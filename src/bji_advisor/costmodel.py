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


def estimate_fact_tuples(schema: StarSchema, query: ParsedQuery,
                         filter_attrs: Iterable[str]) -> float:
    """Fact rows surviving the predicates on ``filter_attrs``."""
    rows = schema.fact.rows
    usable = set(filter_attrs)
    sel = 1.0
    for p in query.predicates:
        if p.attr in usable and p.opclass in _SELECTIVE_CLASSES:
            sel *= _selectivity(schema, p.attr, p.opclass, p.in_count)
    return min(float(rows), max(0.0, rows * sel))


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
        for j in schema.joins:
            src = schema.attribute(j.fact_attr).table
            dst = schema.attribute(j.dim_attr).table
            if src in joined and dst not in joined \
                    and j.fact_attr in query.referenced \
                    and j.dim_attr in query.referenced:
                joined.add(dst)
                order.append(dst)
                changed = True
    return order


def query_cost(schema: StarSchema, query: ParsedQuery,
               config: Iterable[str] = ()) -> float:
    dims = joined_dimensions(schema, query)
    if not dims:
        tables = {schema.attribute(a).table for a in query.referenced}
        return float(sum(schema.table_pages(t) for t in tables))
    fact_pages = schema.table_pages(schema.fact.name)
    # per joined dimension, the configured indexes the query can use: indexed
    # attributes of that dimension referenced by the query
    used: dict[str, list[str]] = {}
    for a in sorted(set(config)):
        table = schema.attribute(a).table
        if table in dims and a in query.referenced:
            used.setdefault(table, []).append(a)
    if not used:
        return float(sum(hash_join_cost(fact_pages, schema.table_pages(d))
                         for d in dims))
    index_attrs = [a for attrs in used.values() for a in attrs]
    nt = estimate_fact_tuples(schema, query, index_attrs)
    cl = tuple_access_cost(nt, fact_pages)
    cost = cl
    for a in index_attrs:
        size = index_storage_size(schema.attribute(a).cardinality,
                                  schema.fact.rows, schema.rowid_bits)
        cost += index_load_cost(size, schema.page_size)
    for d in dims:
        if d not in used:
            cost += hash_join_cost(math.ceil(cl), schema.table_pages(d))
    return cost


@dataclass(frozen=True)
class CostReport:
    config: tuple[str, ...]
    per_query: tuple[tuple[int, float], ...]  # (query id, cost)
    total: float
    baseline_total: float

    @property
    def reduction(self) -> float:
        return reduction_rate(self.baseline_total, self.total)

    def to_document(self) -> dict:
        return {
            "config": list(self.config),
            "per_query": [{"query": qid, "cost": c} for qid, c in self.per_query],
            "total": self.total,
            "baseline_total": self.baseline_total,
            "reduction": self.reduction,
        }


def workload_cost(schema: StarSchema, queries: Sequence[ParsedQuery],
                  config: Iterable[str] = ()) -> float:
    config = set(config)
    return sum(q.weight * query_cost(schema, q, config) for q in queries)


def cost_report(schema: StarSchema, queries: Sequence[ParsedQuery],
                config: Iterable[str], baseline_total: float) -> CostReport:
    """Per-query and total cost of ``config``; ``baseline_total`` is the
    workload's cost without indexes, computed once by the caller."""
    config_t = tuple(sorted(set(config)))
    per = tuple((q.id, q.weight * query_cost(schema, q, config_t))
                for q in queries)
    return CostReport(config=config_t, per_query=per,
                      total=sum(c for _, c in per),
                      baseline_total=baseline_total)


def config_storage(schema: StarSchema, config: Iterable[str]) -> int:
    """Total bytes of the mono-attribute indexes in a configuration."""
    return sum(index_storage_size(schema.attribute(a).cardinality,
                                  schema.fact.rows, schema.rowid_bits)
               for a in set(config))


def reduction_rate(baseline: float, improved: float) -> float:
    if baseline <= 0:
        return 0.0
    return (baseline - improved) / baseline
