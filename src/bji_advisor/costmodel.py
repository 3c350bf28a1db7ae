"""I/O cost model for star joins with and without bitmap join indexes.

Costs are counted in pages.  A query over the fact table and k joined
dimensions is charged one of three ways:

* no usable index on any joined dimension: one hash join per dimension,
  3 * (fact_pages + dim_pages) each;
* usable indexes on every joined dimension: load each index plus fetch the
  selected fact tuples, sum(index_pages) + CL(Nt);
* usable indexes on a strict subset: the covered phase as above, then one
  hash join per uncovered dimension with the shrunken fact side,
  3 * (ceil(CL) + dim_pages) each.

CL(Nt) = pages * (1 - e^(-Nt / pages)) estimates distinct pages touched when
fetching Nt tuples.  Queries that join no dimension scan their referenced
tables and never use an index (a bitmap join index precomputes a
fact-dimension join; there is none to use).

Nt is the fact rows times the selectivities of the predicates on the
usable indexed columns: 1/cardinality for equality, 1/3 for a range or LIKE,
k/cardinality for an IN list of k values.  Of several predicates on one
column only the most selective counts; the columns' selectivities multiply
in qualified-name order.  Every other term is whole pages, summed as an int
and added to CL once, so no cost depends on the order of the WHERE clause,
of the catalog's declarations or of the joins found.

Each query is planned once, over catalog column ids, from the catalog's
per-id tables (``StarSchema.names``, ``cards``, ``on_table``): a plan costs
a configuration given as an id mask.  The joined dimensions and the no-index
cost of a join depend only on the join endpoints a query references, so
they are worked out once per such join shape.  A configuration re-costs
only the queries that can use one of its indexes, and a query is costed
once per set of usable indexes in a run.  ``query_cost``,
``workload_cost``, ``cost_report`` (``costs`` in query order) and
``config_storage`` take configurations as qualified attribute names.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Sequence

from .hypergraph import bits, mask
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
    return -(-(rowid_bits + cardinality) * fact_rows // 8)


def index_load_cost(size_bytes: int, page_size: int) -> int:
    """Pages read to scan an index of the given size."""
    if page_size <= 0:
        raise ValueError("page size must be positive")
    return -(-size_bytes // page_size)


def hash_join_cost(pages_left: int, pages_right: int) -> int:
    """Classic 3(P_S + P_R) hash-join page cost."""
    return 3 * (pages_left + pages_right)


def tuple_access_cost(n_tuples: float, table_pages: int) -> float:
    """Expected distinct pages touched when fetching ``n_tuples`` rows."""
    if table_pages <= 0 or n_tuples <= 0:
        return 0.0
    return table_pages * (1.0 - math.exp(-n_tuples / table_pages))


def joined_dimensions(schema: StarSchema, query: ParsedQuery) -> list[str]:
    """Dimensions the query joins to the fact table.

    A join link counts when both its endpoints are referenced; a dimension is
    joined when such links chain it back to the fact table (snowflake arms
    must be referenced all the way down).
    """
    referenced = query.referenced
    joined = {schema.fact.name}
    order: list[str] = []
    changed = True
    while changed:
        changed = False
        for src, dst, _, ends in schema.links:
            if src in joined and dst not in joined \
                    and referenced & ends == ends:
                joined.add(dst)
                order.append(dst)
                changed = True
    return order


class QueryPlan(namedtuple("QueryPlan", "query_id dims no_index usable "
                           "load_pages selectivity fact_rows fact_pages")):
    """The facts of one query that costing it under any configuration
    needs, worked out once.  Attributes are column ids.

    ``dims``: the joined dimensions, as (table, pages, mask of its column
    ids).  ``no_index``: the cost when no index is usable.  ``usable``: the
    referenced ids on joined dimensions.  ``load_pages``: per column id, its
    index load pages.  ``selectivity``: (id, selectivity) per column with a
    selective predicate, its most selective one, in qualified-name order.
    """

    __slots__ = ()

    def fact_tuples(self, filter_attrs: int) -> float:
        """Fact rows surviving the predicates on the id mask
        ``filter_attrs``: every selectivity is in (0, 1], so at most
        ``fact_rows``."""
        sel = 1.0
        for i, s in self.selectivity:
            if filter_attrs >> i & 1:
                sel *= s
        return self.fact_rows * sel

    def cost(self, config: int) -> float:
        """Cost under the configuration with id mask ``config``: CL plus
        the int sum of the index loads and the uncovered hash joins."""
        # the configured indexes the query can use: indexed attributes of a
        # joined dimension that the query references
        hit = config & self.usable
        if not hit:
            return self.no_index
        cl = tuple_access_cost(self.fact_tuples(hit), self.fact_pages)
        pages = sum([self.load_pages[i] for i in bits(hit)])
        for _, dim_pages, on_dim in self.dims:
            if not hit & on_dim:
                pages += hash_join_cost(math.ceil(cl), dim_pages)
        return cl + pages


def _config_mask(schema: StarSchema, config: Iterable[str]) -> int:
    """The id mask of a configuration given as qualified names."""
    return mask(schema.column_id(a) for a in config)


class WorkloadPlan:
    """The plans of a workload's queries, built once per run, and which
    queries can use an index on each column id (only their costs change
    when that attribute joins a configuration).  Per column id (index 0
    unused): ``index_bytes``, the size of its index, and ``load_pages``,
    the pages read to load it."""

    def __init__(self, schema: StarSchema, queries: Sequence[ParsedQuery]):
        self.schema = schema
        rows, rowid_bits = schema.fact.rows, schema.rowid_bits
        self.index_bytes = (0, *(index_storage_size(c, rows, rowid_bits)
                                 for c in schema.cards[1:]))
        self.load_pages = tuple(index_load_cost(b, schema.page_size)
                                for b in self.index_bytes)
        self._fact_pages = schema.table_pages(schema.fact.name)
        self._link_ends = 0
        for *_, ends in schema.links:
            self._link_ends |= ends
        self._shapes: dict[int, tuple] = {}
        self.plans = tuple(self.plan(q) for q in queries)
        self.users: dict[int, list[int]] = {}
        for k, plan in enumerate(self.plans):
            for i in bits(plan.usable):
                self.users.setdefault(i, []).append(k)
        self.no_index = tuple(p.no_index for p in self.plans)
        self.baseline = sum(self.no_index)
        self._known: dict[tuple[int, int], float] = {}

    def _join_shape(self, query: ParsedQuery) -> tuple:
        """The joined dimensions of ``query``, as (table, pages, mask of
        its column ids); the mask of their ids; and, if any dimension is
        joined, the cost when no index is usable.  They depend only on the
        join endpoints the query references."""
        dims, on_dims, no_index = [], 0, 0
        for d in joined_dimensions(self.schema, query):
            pages, on_d = self.schema.table_pages(d), self.schema.on_table[d]
            dims.append((d, pages, on_d))
            on_dims |= on_d
            no_index += hash_join_cost(self._fact_pages, pages)
        return tuple(dims), on_dims, float(no_index)

    def plan(self, query: ParsedQuery) -> QueryPlan:
        """The cost plan of one query: its join shape, worked out once per
        shape, and its selectivities: 1/cardinality for an equality, 1/3
        for a range or LIKE, k/cardinality (at most 1) for an IN list of k
        values.  Of the predicates on one column, the most selective
        counts."""
        schema = self.schema
        ref = query.referenced
        key = ref & self._link_ends
        shape = self._shapes.get(key)
        if shape is None:
            shape = self._shapes[key] = self._join_shape(query)
        dims, on_dims, no_index = shape
        if not dims:
            no_index = float(sum([schema.table_pages(t)
                                  for t, on_t in schema.on_table.items()
                                  if ref & on_t]))
        cards = schema.cards
        best: dict[int, float] = {}
        for i, opclass, k in query.predicates:
            if opclass == "equality":
                s = 1.0 / cards[i]
            elif opclass == "range" or opclass == "like":
                s = RANGE_SELECTIVITY
            elif opclass == "in-list":
                s = min(1.0, max(k, 1) / cards[i])
            else:
                continue    # a join, subquery or reference filters nothing
            if s < best.get(i, 1.0):  # nor does a selectivity of 1
                best[i] = s
        return QueryPlan(
            query.id, dims, no_index, ref & on_dims, self.load_pages,
            tuple([(i, best[i])
                   for i in sorted(best, key=schema.names.__getitem__)]),
            schema.fact.rows, self._fact_pages)

    def costs(self, config: int) -> list[float]:
        """Cost of each query under the id mask ``config``, in query order."""
        return self._costed(
            list(self.no_index),
            {k for i in bits(config) for k in self.users.get(i, ())}, config)

    def recost(self, costs: Sequence[float], config: int,
               attr: int) -> list[float]:
        """``costs``, the per-query costs of ``config`` without the id
        ``attr``, updated to ``config`` (an id mask holding ``attr``)."""
        return self._costed(list(costs), self.users.get(attr, ()), config)

    def _costed(self, out: list[float], ks: Iterable[int],
                config: int) -> list[float]:
        """``out`` with the cost under ``config`` of each query k of ``ks``.
        A plan's cost reads only ``config & usable``, so each query is
        costed once per such mask in a run; ``_known`` keeps the costs by
        (k, mask)."""
        plans, known = self.plans, self._known
        for k in ks:
            key = k, config & plans[k].usable
            cost = known.get(key)
            if cost is None:
                cost = known[key] = plans[k].cost(config)
            out[k] = cost
        return out


def query_cost(schema: StarSchema, query: ParsedQuery,
               config: Iterable[str] = ()) -> float:
    """Cost of one query under ``config``: its plan, costed."""
    return WorkloadPlan(schema, (query,)).costs(
        _config_mask(schema, config))[0]


def workload_cost(schema: StarSchema, queries: Sequence[ParsedQuery],
                  config: Iterable[str] = ()) -> float:
    return sum(WorkloadPlan(schema, queries).costs(
        _config_mask(schema, config)))


def cost_report(plans: WorkloadPlan, config: Iterable[str]) -> dict:
    """The per-query costs (``costs``, in query order, re-costed only for
    the queries that can use an index of ``config``) and total cost of
    ``config`` against the workload's no-index baseline."""
    config = sorted(set(config))
    costs = plans.costs(_config_mask(plans.schema, config))
    total = sum(costs)
    return {
        "config": config,
        "costs": costs,
        "total": total,
        "baseline_total": plans.baseline,
        "reduction": reduction_rate(plans.baseline, total),
    }


def config_storage(plans: WorkloadPlan, config: Iterable[str]) -> int:
    """Total bytes of the mono-attribute indexes in a configuration."""
    return sum([plans.index_bytes[i]
                for i in bits(_config_mask(plans.schema, config))])


def reduction_rate(baseline: float, improved: float) -> float:
    if baseline <= 0:
        return 0.0
    return (baseline - improved) / baseline
