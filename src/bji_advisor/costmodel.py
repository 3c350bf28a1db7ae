"""I/O cost model for star joins with and without bitmap join indexes.

Costs are counted in pages.  A query over the fact table and k joined
dimensions is charged one of three ways:

* no usable index on any joined dimension: one hash join per dimension,
  3 * (fact_pages + dim_pages) each;
* usable indexes on every joined dimension: load each index plus fetch the
  selected fact tuples, sum(index_pages) + CL(Nt);
* usable indexes on a strict subset: the covered phase as above, then one
  hash join per uncovered dimension with the shrunken fact side,
  3 * (CL + dim_pages) each.

CL(Nt) = pages * (1 - e^(-Nt / pages)) estimates distinct pages touched when
fetching Nt tuples.  Queries that join no dimension scan their referenced
tables and never use an index (a bitmap join index precomputes a
fact-dimension join; there is none to use).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .schema import StarSchema
from .workload import ParsedQuery

# selectivity of a range or LIKE predicate when nothing better is known
RANGE_SELECTIVITY = 1.0 / 3.0


def index_storage_size(cardinality: int, fact_rows: int,
                       rowid_bits: int) -> int:
    """Size in bytes of a bitmap join index: one rowid plus one bit per
    distinct value, per fact row, rounded up to whole bytes."""
    if cardinality < 1:
        raise ValueError("cardinality must be >= 1")
    if fact_rows < 0:
        raise ValueError("fact_rows must be >= 0")
    if rowid_bits < 0:
        raise ValueError("rowid_bits must be >= 0")
    if fact_rows == 0:
        return 0
    return math.ceil((rowid_bits + cardinality) * fact_rows / 8)


def _index_size(schema: StarSchema, qualified: str) -> int:
    return index_storage_size(schema.attribute(qualified).cardinality,
                              schema.fact.rows, schema.rowid_bits)


def index_load_cost(size_bytes: int, page_size: int) -> int:
    """Pages read to scan an index of the given size."""
    if page_size <= 0:
        raise ValueError("page size must be positive")
    return math.ceil(size_bytes / page_size)


def hash_join_cost(pages_left: int, pages_right: int) -> int:
    """Classic 3(P_S + P_R) hash-join page cost."""
    return 3 * (pages_left + pages_right)


def tuple_access_cost(n_tuples: float, table_pages: int) -> float:
    """Expected distinct pages touched when fetching ``n_tuples`` rows."""
    if table_pages <= 0 or n_tuples <= 0:
        return 0.0
    return table_pages * (1.0 - math.exp(-n_tuples / table_pages))


_SELECTIVE_CLASSES = ("equality", "range", "like", "in-list")


def _selectivity(schema: StarSchema, attr: str, opclass: str, k: int) -> float:
    card = schema.attribute(attr).cardinality
    if opclass == "equality":
        return 1.0 / card
    if opclass in ("range", "like"):
        return RANGE_SELECTIVITY
    if opclass == "in-list":
        return min(1.0, max(k, 1) / card)
    return 1.0


def joined_dimensions(schema: StarSchema, query: ParsedQuery) -> list[str]:
    """Dimensions the query joins to the fact table.

    A join link counts when both its endpoints are referenced; a dimension is
    joined when such links chain it back to the fact table (snowflake arms
    must be referenced all the way down).
    """
    joined = {schema.fact.name}
    order: list[str] = []
    changed = True
    while changed:
        changed = False
        for src, dst, j in schema.links:
            if src in joined and dst not in joined \
                    and j.fact_attr in query.referenced \
                    and j.dim_attr in query.referenced:
                joined.add(dst)
                order.append(dst)
                changed = True
    return order


@dataclass(frozen=True)
class QueryPlan:
    """The facts of one query that costing it under any configuration
    needs, worked out once."""

    query_id: int
    dims: tuple[tuple[str, int], ...]    # joined dimensions in order, pages
    no_index: float                      # cost when no index is usable
    # referenced attribute on a joined dimension -> (table, index load pages)
    usable: dict[str, tuple[str, int]]
    # (attribute, selectivity) per selective predicate, in predicate order
    selectivity: tuple[tuple[str, float], ...]
    fact_rows: int
    fact_pages: int

    def fact_tuples(self, filter_attrs: Iterable[str]) -> float:
        """Fact rows surviving the predicates on ``filter_attrs``."""
        usable = set(filter_attrs)
        sel = 1.0
        for attr, s in self.selectivity:
            if attr in usable:
                sel *= s
        rows = self.fact_rows
        return min(float(rows), max(0.0, rows * sel))

    def cost(self, config: Iterable[str]) -> float:
        """Cost under ``config``, given as sorted distinct attribute names."""
        # per joined dimension, the configured indexes the query can use:
        # indexed attributes of that dimension referenced by the query
        used: dict[str, list[str]] = {}
        for a in config:
            hit = self.usable.get(a)
            if hit is not None:
                used.setdefault(hit[0], []).append(a)
        if not used:
            return self.no_index
        index_attrs = [a for attrs in used.values() for a in attrs]
        cl = tuple_access_cost(self.fact_tuples(index_attrs), self.fact_pages)
        cost = cl
        for a in index_attrs:
            cost += self.usable[a][1]
        for d, pages in self.dims:
            if d not in used:
                cost += hash_join_cost(math.ceil(cl), pages)
        return cost


def plan_query(schema: StarSchema, query: ParsedQuery) -> QueryPlan:
    dims = joined_dimensions(schema, query)
    fact_pages = schema.table_pages(schema.fact.name)
    if dims:
        no_index = float(sum(hash_join_cost(fact_pages, schema.table_pages(d))
                             for d in dims))
    else:
        tables = {schema.attribute(a).table for a in query.referenced}
        no_index = float(sum(schema.table_pages(t) for t in tables))
    usable = {}
    for a in query.referenced:
        table = schema.attribute(a).table
        if table in dims:
            usable[a] = (table, index_load_cost(_index_size(schema, a),
                                                schema.page_size))
    return QueryPlan(
        query_id=query.id,
        dims=tuple((d, schema.table_pages(d)) for d in dims),
        no_index=no_index, usable=usable,
        selectivity=tuple((p.attr, _selectivity(schema, p.attr, p.opclass,
                                                p.in_count))
                          for p in query.predicates
                          if p.opclass in _SELECTIVE_CLASSES),
        fact_rows=schema.fact.rows, fact_pages=fact_pages)


def query_cost(schema: StarSchema, query: ParsedQuery,
               config: Iterable[str] = ()) -> float:
    """Cost of one query under ``config``: its plan, costed."""
    return plan_query(schema, query).cost(sorted(set(config)))


class WorkloadPlan:
    """The plans of a workload's queries, built once per run, and which
    queries can use an index on each attribute (only their costs change
    when that attribute joins a configuration)."""

    def __init__(self, schema: StarSchema, queries: Sequence[ParsedQuery]):
        self.plans = tuple(plan_query(schema, q) for q in queries)
        self.users: dict[str, list[int]] = {}
        for k, plan in enumerate(self.plans):
            for a in plan.usable:
                self.users.setdefault(a, []).append(k)
        self.no_index = tuple(p.no_index for p in self.plans)
        self.baseline = sum(self.no_index)

    def costs(self, config: Iterable[str]) -> list[float]:
        """Cost of each query under ``config``, in query order."""
        config = sorted(set(config))
        return [p.cost(config) for p in self.plans]

    def recost(self, costs: Sequence[float], config: list[str],
               attr: str) -> list[float]:
        """``costs``, the per-query costs of ``config`` without ``attr``,
        updated to ``config`` (sorted, holding ``attr``)."""
        out = list(costs)
        for k in self.users.get(attr, ()):
            out[k] = self.plans[k].cost(config)
        return out


def workload_cost(schema: StarSchema, queries: Sequence[ParsedQuery],
                  config: Iterable[str] = ()) -> float:
    return sum(WorkloadPlan(schema, queries).costs(config))


def cost_report(plans: WorkloadPlan, config: Iterable[str]) -> dict:
    """The per-query and total cost of ``config`` against the workload's
    no-index baseline, as the reports write it."""
    config = sorted(set(config))
    costs = plans.costs(config)
    total = sum(costs)
    return {
        "config": config,
        "per_query": [{"query": p.query_id, "cost": c}
                      for p, c in zip(plans.plans, costs)],
        "total": total,
        "baseline_total": plans.baseline,
        "reduction": reduction_rate(plans.baseline, total),
    }


def config_storage(schema: StarSchema, config: Iterable[str]) -> int:
    """Total bytes of the mono-attribute indexes in a configuration."""
    return sum(_index_size(schema, a) for a in set(config))


def reduction_rate(baseline: float, improved: float) -> float:
    if baseline <= 0:
        return 0.0
    return (baseline - improved) / baseline
