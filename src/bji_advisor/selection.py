"""Index-selection engines over the query-attribute matrix.

Three engines produce a set of candidate attributes, each turned into one
mono-attribute bitmap join index:

* ``tm_ijb``: enumerate the smallest minimal transversals of the workload
  hypergraph, score each by fitness (support-weighted dimension/fact page
  ratio over its indexable members), break ties by summed attribute
  cardinality then lexicographically, keep the winner's indexable members;
* ``close_select``: over the closed frequent itemsets, rank their indexable
  members by marginal support, greedily keep indexes while the modeled
  workload cost strictly decreases;
* ``dynaclose_select``: over the same itemsets, score whole motifs by mean
  alpha-weighted support, keep the best motif's indexable members.

The two itemset engines take the itemsets ``mine_closed_frequent_itemsets``
returns, so a run that uses both mines once.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence

from . import costmodel
from .hypergraph import bits, mask, smallest_transversals
from .schema import StarSchema
from .workload import ContextMatrix

# one candidate: ``ids`` its sorted column ids, ``afc`` their summed
# attribute cardinality
ScoredMotif = namedtuple("ScoredMotif", "ids fitness afc support selected")

# an engine's pick: ``attrs`` the sorted qualified names, ``trace`` the
# ScoredMotif of each candidate
Configuration = namedtuple("Configuration", "engine attrs trace notes",
                           defaults=((),))


def _page_ratio(schema: StarSchema, table: str) -> float:
    """Dimension-to-fact page ratio of ``table``."""
    fact_pages = schema.table_pages(schema.fact.name)
    if fact_pages == 0:
        return 0.0
    return schema.table_pages(table) / fact_pages


def column_terms(schema: StarSchema,
                 matrix: ContextMatrix) -> dict[int, float]:
    """Each indexable column's fitness term, marginal support x page ratio,
    by column id; the columns that are not indexable are absent."""
    return {i: matrix.marginal_support[i]
            * _page_ratio(schema, schema.attributes[i - 1].table)
            for i in bits(schema.indexable)}


def fitness_tm(terms: dict[int, float], ids: Iterable[int]) -> float:
    """Sum of the ``column_terms`` of the indexable members."""
    return sum([terms[i] for i in ids if i in terms], 0.0)


def fitness_dynaclose(terms: dict[int, float], ids: Sequence[int]) -> float:
    """Mean of the ``column_terms`` of the indexable members."""
    own = [terms[i] for i in ids if i in terms]
    return sum(own) / len(own) if own else 0.0


def afc_sum(cards: Sequence[int], ids: Iterable[int]) -> int:
    """Summed ``cards`` (cardinalities by column id) of the motif's ids."""
    return sum([cards[i] for i in ids])


def _indexable_of(schema: StarSchema, ids: Iterable[int]) -> tuple[str, ...]:
    """The sorted qualified names of the indexable ids."""
    return tuple(sorted([schema.names[i] for i in ids
                         if schema.indexable >> i & 1]))


# ---------------------------------------------------------------------------
# transversal engine
# ---------------------------------------------------------------------------

def tm_ijb(schema: StarSchema, matrix: ContextMatrix) -> Configuration:
    """Pick the best smallest minimal transversal of the workload hypergraph."""
    terms = column_terms(schema, matrix)
    cards, support, new = schema.cards, matrix.support, tuple.__new__
    # each record built as one tuple, its afc summed here, as afc_sum sums it
    trace = [new(ScoredMotif, (ids, fitness_tm(terms, ids),
                               sum([cards[i] for i in ids]), support(ids),
                               False))
             for ids in smallest_transversals(matrix.hypergraph())]
    # max fitness, then min cardinality sum, then lexicographic: candidates
    # arrive as sorted id tuples of one size, in id order, so the first of
    # the best is the lexicographically smallest
    winner = max(trace, key=lambda m: (m.fitness, -m.afc))
    trace[trace.index(winner)] = winner._replace(selected=True)
    attrs = _indexable_of(schema, winner.ids)
    dropped = sorted([schema.names[i] for i in winner.ids
                      if not schema.indexable >> i & 1])
    notes = ("non-indexable members dropped: " + ", ".join(dropped),) \
        if dropped else ()
    return Configuration(engine="tm-ijb", attrs=attrs, trace=tuple(trace),
                         notes=notes)


# ---------------------------------------------------------------------------
# closed frequent itemsets
# ---------------------------------------------------------------------------

def mine_closed_frequent_itemsets(
        matrix: ContextMatrix, minsup: float) -> list[tuple[tuple[int, ...], float]]:
    """Closed itemsets with support >= minsup, as (sorted ids, support),
    most frequent first, then by size and ids.

    Each is found by its row mask (bit ``k`` is row ``k``), in a fixpoint of
    ANDs over the frequent columns' masks that drops the infrequent results:
    every partial AND toward a frequent mask holds it, so none is lost.
    """
    if not 0.0 < minsup <= 1.0:
        raise ValueError("minsup must be in (0, 1]")
    n = len(matrix.rows)
    columns = {i: t for i, t in matrix.column_rows.items()
               if t.bit_count() / n >= minsup}
    masks = set(columns.values())
    found = frontier = masks
    while frontier:
        frontier = {t for t in {f & m for f in frontier for m in masks} - found
                    if t.bit_count() / n >= minsup}
        found = found | frontier
    # a mask's itemset: the columns whose mask holds it, in id order
    return sorted([(tuple([i for i, m in columns.items() if m & t == t]),
                    t.bit_count() / n) for t in found],
                  key=lambda cs: (-cs[1], len(cs[0]), cs[0]))


def close_select(schema: StarSchema, matrix: ContextMatrix,
                 plans: costmodel.WorkloadPlan,
                 motifs: Sequence[tuple[tuple[int, ...], float]],
                 storage_budget: int | None = None) -> Configuration:
    """Greedy cost-driven pick over closed-itemset candidates.

    Indexable attributes of the frequent closed itemsets ``motifs`` are
    ranked by marginal support (ties by name) and added one by one while the
    modeled workload cost strictly decreases, starting from the no-index
    baseline; non-improving candidates are skipped, and so are those that
    would take the summed ``plans.index_bytes`` over ``storage_budget``.
    ``plans`` holds the cost plans of ``matrix.queries``, built once by the
    caller.  A trial re-costs only the queries that can use the candidate,
    then sums every query's cost in query order, the same additions
    ``workload_cost`` makes, so an equal cost never passes for a smaller
    one.
    """
    names = schema.names
    in_motifs = mask(i for ids, _ in motifs for i in ids)
    ranked = sorted(bits(in_motifs & schema.indexable),
                    key=lambda i: (-matrix.marginal_support[i], names[i]))
    chosen = 0                      # id mask
    notes: list[str] = []
    costs = plans.no_index
    current = plans.baseline
    for i in ranked:
        attr = names[i]
        trial = chosen | 1 << i
        if storage_budget is not None and sum(
                [plans.index_bytes[j] for j in bits(trial)]) > storage_budget:
            notes.append(f"{attr} skipped: storage budget exceeded")
            continue
        trial_costs = plans.recost(costs, trial, i)
        cost = sum(trial_costs)
        if cost < current:
            chosen = trial
            costs, current = trial_costs, cost
        else:
            notes.append(f"{attr} skipped: no cost improvement")
    trace = tuple(ScoredMotif(ids, 0.0, afc_sum(schema.cards, ids), sup,
                              bool(chosen & mask(ids)))
                  for ids, sup in motifs)
    return Configuration(engine="close",
                         attrs=tuple(sorted([names[i] for i in bits(chosen)])),
                         trace=trace, notes=tuple(notes))


def dynaclose_select(schema: StarSchema, matrix: ContextMatrix,
                     motifs: Sequence[tuple[tuple[int, ...], float]]
                     ) -> Configuration:
    """Keep the indexable members of the frequent closed itemset in
    ``motifs`` with the best mean alpha-weighted support.  Of tied motifs,
    the smallest id where they first differ wins, else the longer motif."""
    if not motifs:
        return Configuration(engine="dynaclose", attrs=(), trace=(),
                             notes=("no frequent closed itemset",))
    terms = column_terms(schema, matrix)
    scored = [(fitness_dynaclose(terms, ids), ids, sup)
              for ids, sup in motifs]
    winner = max(scored, key=lambda s: (s[0], [-i for i in s[1]]))
    trace = tuple(ScoredMotif(ids, fit, afc_sum(schema.cards, ids), sup,
                              ids == winner[1])
                  for fit, ids, sup in sorted(scored, key=lambda s: s[1]))
    attrs = _indexable_of(schema, winner[1])
    return Configuration(engine="dynaclose", attrs=attrs, trace=trace)
