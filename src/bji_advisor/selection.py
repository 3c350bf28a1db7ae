"""Index-selection engines over the query-attribute matrix.

Three engines produce a set of candidate attributes, each turned into one
mono-attribute bitmap join index:

* ``tm_ijb``: enumerate the smallest minimal transversals of the workload
  hypergraph, score each by fitness (support-weighted dimension/fact page
  ratio over its indexable members), break ties by summed attribute
  cardinality then lexicographically, keep the winner's indexable members;
* ``close_select``: mine closed frequent itemsets, rank their indexable
  members by marginal support, greedily keep indexes while the modeled
  workload cost strictly decreases;
* ``dynaclose_select``: same mining, score whole motifs by mean
  alpha-weighted support, keep the best motif's indexable members.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from . import costmodel
from .hypergraph import bits, mask, smallest_transversals
from .schema import StarSchema
from .workload import ContextMatrix

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ScoredMotif:
    ids: tuple[int, ...]            # sorted column ids
    attrs: tuple[str, ...]          # qualified names, same order
    fitness: float
    afc: int                        # summed attribute cardinality
    support: float
    selected: bool


@dataclass(frozen=True)
class Configuration:
    engine: str
    attrs: tuple[str, ...]          # qualified attribute names, sorted
    trace: tuple[ScoredMotif, ...]
    notes: tuple[str, ...] = ()


def alpha(schema: StarSchema, qualified: str) -> float:
    """Dimension-to-fact page ratio of the attribute's table; the fact's own
    attributes weigh 1."""
    return _page_ratio(schema, schema.attribute(qualified).table)


def _page_ratio(schema: StarSchema, table: str) -> float:
    fact_pages = schema.table_pages(schema.fact.name)
    if fact_pages == 0:
        return 0.0
    if table == schema.fact.name:
        return 1.0
    return schema.table_pages(table) / fact_pages


# Matrix column ``i`` is ``schema.attributes[i - 1]`` (build_context_matrix
# takes the columns in declaration order), so the helpers below read a
# column's statistics by id.

def _indexable(schema: StarSchema, ids: Iterable[int]) -> list[int]:
    """The ids whose column is indexable, in the given order."""
    return [i for i in ids if schema.is_indexable(schema.attributes[i - 1])]


def _terms(schema: StarSchema, matrix: ContextMatrix,
           ids: Iterable[int]) -> list[float]:
    """Marginal support x page ratio of each indexable member."""
    return [matrix.marginal_support[i]
            * _page_ratio(schema, schema.attributes[i - 1].table)
            for i in _indexable(schema, ids)]


def fitness_tm(schema: StarSchema, matrix: ContextMatrix,
               ids: Iterable[int]) -> float:
    """Sum of marginal support x page ratio over the indexable members."""
    return sum(_terms(schema, matrix, ids), 0.0)


def fitness_dynaclose(schema: StarSchema, matrix: ContextMatrix,
                      ids: Sequence[int]) -> float:
    """Mean of marginal support x page ratio over the indexable members."""
    terms = _terms(schema, matrix, ids)
    return sum(terms) / len(terms) if terms else 0.0


def afc_sum(schema: StarSchema, matrix: ContextMatrix,
            ids: Iterable[int]) -> int:
    """Summed cardinality of all attributes in the motif."""
    return sum(schema.attributes[i - 1].cardinality for i in ids)


def _indexable_of(schema: StarSchema, matrix: ContextMatrix,
                  ids: Iterable[int]) -> tuple[str, ...]:
    return tuple(sorted(matrix.name_of(i) for i in _indexable(schema, ids)))


# ---------------------------------------------------------------------------
# transversal engine
# ---------------------------------------------------------------------------

def tm_ijb(schema: StarSchema, matrix: ContextMatrix) -> Configuration:
    """Pick the best smallest minimal transversal of the workload hypergraph."""
    # candidates arrive as sorted id tuples of one size, in id order
    scored = [(fitness_tm(schema, matrix, ids), afc_sum(schema, matrix, ids),
               ids) for ids in smallest_transversals(matrix.hypergraph())]
    # max fitness, then min cardinality sum, then lexicographic
    winner = max(scored, key=lambda s: (s[0], -s[1], [-i for i in s[2]]))
    trace = tuple(
        ScoredMotif(ids=ids, attrs=tuple(matrix.name_of(i) for i in ids),
                    fitness=fit, afc=afc, support=matrix.support(mask(ids)),
                    selected=(ids == winner[2]))
        for fit, afc, ids in scored)
    attrs = _indexable_of(schema, matrix, winner[2])
    dropped = sorted({matrix.name_of(i) for i in winner[2]} - set(attrs))
    notes = ("non-indexable members dropped: " + ", ".join(dropped),) \
        if dropped else ()
    return Configuration(engine="tm-ijb", attrs=attrs, trace=trace,
                         notes=notes)


# ---------------------------------------------------------------------------
# closed frequent itemsets
# ---------------------------------------------------------------------------

def mine_closed_frequent_itemsets(
        matrix: ContextMatrix, minsup: float) -> list[tuple[tuple[int, ...], float]]:
    """Closed itemsets with support >= minsup, as (sorted ids, support),
    most frequent first, then by size and ids.

    A closed itemset is the intersection of all rows containing it; the family
    of closed sets is exactly the intersections of nonempty row subsets,
    computed to a fixpoint over row masks.  Desk-scale rows (tens) keep this
    cheap.
    """
    if not 0.0 < minsup <= 1.0:
        raise ValueError("minsup must be in (0, 1]")
    rows = set(matrix.rows)
    closed = set(rows)
    frontier = rows
    while frontier:
        frontier = {c & r for c in frontier for r in rows} - closed - {0}
        closed |= frontier
    out = []
    for c in closed:
        sup = matrix.support(c)
        if sup >= minsup:
            out.append((bits(c), sup))
    out.sort(key=lambda cs: (-cs[1], len(cs[0]), cs[0]))
    return out


def close_select(schema: StarSchema, matrix: ContextMatrix,
                 baseline_total: float, minsup: float = 0.1,
                 storage_budget: Optional[int] = None) -> Configuration:
    """Greedy cost-driven pick over closed-itemset candidates.

    Indexable attributes of the frequent closed itemsets are ranked by
    marginal support (ties by name) and added one by one while the modeled
    workload cost strictly decreases, starting from ``baseline_total``, the
    workload's cost without indexes computed once by the caller;
    non-improving candidates are skipped.
    """
    motifs = mine_closed_frequent_itemsets(matrix, minsup)
    in_motifs = mask(i for ids, _ in motifs for i in ids)
    ranked = sorted(_indexable(schema, bits(in_motifs)),
                    key=lambda i: (-matrix.marginal_support[i], matrix.name_of(i)))
    chosen: list[str] = []
    notes: list[str] = []
    current = baseline_total
    for i in ranked:
        attr = matrix.name_of(i)
        trial = chosen + [attr]
        if storage_budget is not None and \
                costmodel.config_storage(schema, trial) > storage_budget:
            notes.append(f"{attr} skipped: storage budget exceeded")
            continue
        cost = costmodel.workload_cost(schema, matrix.queries, trial)
        if cost < current:
            chosen.append(attr)
            current = cost
        else:
            notes.append(f"{attr} skipped: no cost improvement")
    trace = tuple(
        ScoredMotif(ids=ids, attrs=tuple(matrix.name_of(i) for i in ids),
                    fitness=0.0, afc=afc_sum(schema, matrix, ids), support=sup,
                    selected=any(matrix.name_of(i) in chosen for i in ids))
        for ids, sup in motifs)
    return Configuration(engine="close", attrs=tuple(sorted(chosen)),
                         trace=trace, notes=tuple(notes))


def dynaclose_select(schema: StarSchema, matrix: ContextMatrix,
                     minsup: float = 0.1) -> Configuration:
    """Keep the indexable members of the motif with the best mean
    alpha-weighted support."""
    motifs = mine_closed_frequent_itemsets(matrix, minsup)
    if not motifs:
        return Configuration(engine="dynaclose", attrs=(), trace=(),
                             notes=("no frequent closed itemset",))
    scored = [(fitness_dynaclose(schema, matrix, ids), ids, sup)
              for ids, sup in motifs]
    winner = max(scored, key=lambda s: (s[0], [-i for i in s[1]]))
    trace = tuple(
        ScoredMotif(ids=ids, attrs=tuple(matrix.name_of(i) for i in ids),
                    fitness=fit, afc=afc_sum(schema, matrix, ids), support=sup,
                    selected=(ids == winner[1]))
        for fit, ids, sup in sorted(scored, key=lambda s: s[1]))
    attrs = _indexable_of(schema, matrix, winner[1])
    return Configuration(engine="dynaclose", attrs=attrs, trace=trace)
