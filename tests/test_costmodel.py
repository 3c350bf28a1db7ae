"""I/O cost model: storage/load formulas, CL properties, query costing."""

import math
import random

import pytest

from bji_advisor import costmodel, data_path
from bji_advisor.schema import load_catalog_file
from bji_advisor.workload import build_context_matrix, parse_workload


def load(cat, wl):
    schema = load_catalog_file(data_path(cat))
    qs = parse_workload(data_path(wl).read_text(), schema)
    return schema, build_context_matrix(schema, qs)


# ---------------------------------------------------------------------------
# unit formulas
# ---------------------------------------------------------------------------

def test_storage_size_examples():
    assert costmodel.index_storage_size(8, 1000, 64) == 9000
    assert costmodel.index_storage_size(7, 6_000_000, 80) == 65_250_000
    assert costmodel.index_storage_size(5, 0, 80) == 0


def test_storage_size_rounds_up():
    # (80 + 3) * 3 = 249 bits -> 32 bytes
    assert costmodel.index_storage_size(3, 3, 80) == math.ceil(249 / 8)


def test_storage_size_validation():
    with pytest.raises(ValueError):
        costmodel.index_storage_size(0, 10, 80)
    with pytest.raises(ValueError):
        costmodel.index_storage_size(5, -1, 80)


def test_index_load_cost():
    assert costmodel.index_load_cost(0, 4096) == 0
    assert costmodel.index_load_cost(1, 4096) == 1
    assert costmodel.index_load_cost(4097, 4096) == 2
    with pytest.raises(ValueError):
        costmodel.index_load_cost(10, 0)


def test_hash_join_cost_pinned():
    assert costmodel.hash_join_cost(105866, 23766) == 388_896
    assert costmodel.hash_join_cost(0, 0) == 0


def test_tuple_access_cost_properties():
    assert costmodel.tuple_access_cost(0, 1000) == 0.0
    assert costmodel.tuple_access_cost(5, 0) == 0.0
    rng = random.Random(42)
    for _ in range(1000):
        pages = rng.randint(1, 10**6)
        nt = rng.uniform(0, 10**7)
        cl = costmodel.tuple_access_cost(nt, pages)
        assert 0.0 <= cl <= pages
        # monotone in the tuple count
        assert costmodel.tuple_access_cost(nt * 0.5, pages) <= cl + 1e-9


def test_reduction_rate():
    assert costmodel.reduction_rate(100, 80) == pytest.approx(0.2)
    assert costmodel.reduction_rate(0, 5) == 0.0


# ---------------------------------------------------------------------------
# query costing
# ---------------------------------------------------------------------------

def test_no_join_query_scans_referenced_tables():
    schema, m = load("tpch.json", "tpch.sql")
    by_id = {q.id: q for q in m.queries}
    q1 = by_id[1]  # single-table date filter
    assert costmodel.joined_dimensions(schema, q1) == []
    assert costmodel.query_cost(schema, q1, ()) == schema.table_pages("LINEITEM")
    # an index never applies without a fact-dimension join
    assert costmodel.query_cost(schema, q1, {"ORDERS.O_ORDERDATE"}) == \
        costmodel.query_cost(schema, q1, ())


def test_no_fact_link_means_no_join():
    schema, m = load("tpch.json", "tpch.sql")
    by_id = {q.id: q for q in m.queries}
    # supplier/nation are referenced but never chained back to the fact
    assert costmodel.joined_dimensions(schema, by_id[11]) == []
    assert costmodel.joined_dimensions(schema, by_id[22]) == []


def test_snowflake_chain_requires_full_path():
    schema, m = load("tpch.json", "tpch.sql")
    by_id = {q.id: q for q in m.queries}
    dims5 = costmodel.joined_dimensions(schema, by_id[5])
    assert "NATION" in dims5 and "REGION" in dims5
    assert "ORDERS" in dims5 and "SUPPLIER" in dims5


def test_uncovered_join_cost_is_hash_joins():
    schema, m = load("ssb.json", "ssb.sql")
    by_id = {q.id: q for q in m.queries}
    q4 = by_id[4]  # lineorder-dates join only
    fact_pages = schema.table_pages("lineorder")
    want = 3 * (fact_pages + schema.table_pages("dates"))
    assert costmodel.query_cost(schema, q4, ()) == want


def test_covered_join_cost_structure():
    schema, m = load("ssb.json", "ssb.sql")
    by_id = {q.id: q for q in m.queries}
    q4 = by_id[4]  # d_year = 1993 via the dates join
    cfg = {"dates.d_year"}
    size = costmodel.index_storage_size(7, schema.fact.rows, schema.rowid_bits)
    cc = costmodel.index_load_cost(size, schema.page_size)
    nt = schema.fact.rows / 7
    cl = costmodel.tuple_access_cost(nt, schema.table_pages("lineorder"))
    assert costmodel.query_cost(schema, q4, cfg) == pytest.approx(cc + cl)


def test_partially_covered_join_uses_shrunken_fact_side():
    schema, m = load("ssb.json", "ssb.sql")
    by_id = {q.id: q for q in m.queries}
    q5 = by_id[5]  # dates + part + supplier joins
    cfg = {"part.p_brand"}
    cost = costmodel.query_cost(schema, q5, cfg)
    size = costmodel.index_storage_size(1000, schema.fact.rows,
                                        schema.rowid_bits)
    cc = costmodel.index_load_cost(size, schema.page_size)
    nt = schema.fact.rows / 1000
    cl = costmodel.tuple_access_cost(nt, schema.table_pages("lineorder"))
    residual = sum(3 * (math.ceil(cl) + schema.table_pages(d))
                   for d in ("dates", "supplier"))
    assert cost == pytest.approx(cc + cl + residual)


def test_estimate_fact_tuples_selectivities():
    schema, m = load("ssb.json", "ssb.sql")
    by_id = {q.id: q for q in m.queries}
    q1 = by_id[1]
    # only predicates on the given attributes filter
    assert costmodel.estimate_fact_tuples(schema, q1, []) == schema.fact.rows
    nt = costmodel.estimate_fact_tuples(schema, q1, ["dates.d_year"])
    assert nt == pytest.approx(schema.fact.rows / 7)


def test_workload_cost_monotone_under_more_indexes_ssb():
    schema, m = load("ssb.json", "ssb.sql")
    base = costmodel.workload_cost(schema, m.queries, ())
    one = costmodel.workload_cost(schema, m.queries, {"dates.d_year"})
    two = costmodel.workload_cost(schema, m.queries,
                                  {"dates.d_year", "part.p_brand"})
    assert two < one < base


def test_cost_report_document():
    schema, m = load("ssb.json", "ssb.sql")
    rep = costmodel.cost_report(schema, m.queries, ["dates.d_year"],
                                costmodel.workload_cost(schema, m.queries, ()))
    doc = rep.to_document()
    assert doc["config"] == ["dates.d_year"]
    assert len(doc["per_query"]) == 30
    assert doc["total"] == pytest.approx(sum(c for _, c in rep.per_query))
    assert 0 < doc["reduction"] < 1
