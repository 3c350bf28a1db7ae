"""SQL attribute extraction and the query-attribute matrix."""

import random

import pytest
from hypothesis import given, strategies as st

from bji_advisor import data_path
from bji_advisor.hypergraph import mask
from bji_advisor.schema import load_catalog_file
from bji_advisor.workload import (ContextMatrix, ParseError, ParsedQuery,
                                  build_context_matrix, parse_query,
                                  parse_workload, split_workload, tokenize)


def ssb_schema():
    return load_catalog_file(data_path("ssb.json"))


def tpch_schema():
    return load_catalog_file(data_path("tpch.json"))


def example_schema():
    return load_catalog_file(data_path("example_star.json"))


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------

def test_split_headers():
    blocks = split_workload("Q1 - select 1\n\nQ2 - select 2\nmore\n")
    assert blocks == [(1, "select 1"), (2, "select 2\nmore")]


def test_split_colon_headers():
    text = "Q1 : select 1\n\nQ2: select 2\nmore\nQ10 :select 3\n"
    blocks = split_workload(text)
    assert blocks == [(1, "select 1"), (2, "select 2\nmore"), (10, "select 3")]


def test_split_semicolon_lines():
    text = "select a from t\n;\nselect b from t\n;\n"
    blocks = split_workload(text)
    assert [b[0] for b in blocks] == [1, 2]
    assert blocks[0][1] == "select a from t"


def test_split_header_with_internal_blank_line():
    text = "Q1 - create view v as\nselect 1\n\nselect 2\nQ2 - select 3\n"
    blocks = split_workload(text)
    assert len(blocks) == 2
    assert "select 2" in blocks[0][1]


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------

def test_ssb_q1_referenced():
    sql = """select sum(lo_extendedprice*lo_discount) as revenue
    from lineorder, dates
    where lo_orderdate = d_datekey and d_year = 1993
    and lo_discount >= 1 and lo_discount <= 3 and lo_quantity < 25"""
    q = parse_query(sql, ssb_schema(), 1)
    assert q.referenced == {
        "lineorder.lo_orderdate", "dates.d_datekey", "dates.d_year",
        "lineorder.lo_discount", "lineorder.lo_quantity"}
    classes = {p.attr: p.opclass for p in q.predicates}
    assert classes["dates.d_year"] == "equality"
    assert classes["lineorder.lo_quantity"] == "range"
    assert classes["lineorder.lo_orderdate"] == "join"
    assert classes["dates.d_datekey"] == "join"


def test_no_where_clause_gives_empty_set():
    q = parse_query("select count(*) from lineorder", ssb_schema(), 1)
    assert q.referenced == frozenset()


def test_aliased_and_qualified_refs():
    sql = """select count(*) from SALES S, CUSTOMERS C
    where S.cust_id = C.cust_id and C.cust_gender = 'M'"""
    q = parse_query(sql, example_schema(), 4)
    assert q.referenced == {"SALES.cust_id", "CUSTOMERS.cust_id",
                            "CUSTOMERS.cust_gender"}


def test_unresolvable_column_is_error():
    with pytest.raises(ParseError):
        parse_query("select 1 from lineorder where no_such = 3",
                    ssb_schema(), 9)


def test_unknown_table_is_error():
    with pytest.raises(ParseError):
        parse_query("select 1 from nowhere where lo_quantity = 3",
                    ssb_schema(), 9)


def test_in_list_counting():
    sql = ("SELECT 1 FROM LINEITEM, PART WHERE L_PARTKEY = P_PARTKEY "
           "AND P_SIZE IN (1, 2, 3) AND L_SHIPMODE IN ('AIR', 'AIR REG')")
    q = parse_query(sql, tpch_schema(), 1)
    preds = {p.attr: p for p in q.predicates}
    assert preds["PART.P_SIZE"].opclass == "in-list"
    assert preds["PART.P_SIZE"].in_count == 3
    assert preds["LINEITEM.L_SHIPMODE"].in_count == 2


def test_subquery_attrs_fold_into_parent():
    sql = ("SELECT 1 FROM ORDERS WHERE O_ORDERDATE >= '1993-07-01' AND "
           "EXISTS (SELECT * FROM LINEITEM WHERE L_ORDERKEY = O_ORDERKEY)")
    q = parse_query(sql, tpch_schema(), 4)
    assert "LINEITEM.L_ORDERKEY" in q.referenced
    assert "ORDERS.O_ORDERKEY" in q.referenced
    assert "ORDERS.O_ORDERDATE" in q.referenced


def test_having_is_ignored():
    sql = ("SELECT L_ORDERKEY FROM LINEITEM GROUP BY L_ORDERKEY "
           "HAVING SUM(L_QUANTITY) > 300")
    q = parse_query(sql, tpch_schema(), 1)
    assert "LINEITEM.L_QUANTITY" not in q.referenced
    assert q.referenced == frozenset()


def test_view_block_and_derived_columns():
    sql = data_path("tpch.sql").read_text()
    q15 = dict(split_workload(sql))[15]
    q = parse_query(q15, tpch_schema(), 15)
    assert "LINEITEM.L_SHIPDATE" in q.referenced
    assert "SUPPLIER.S_SUPPKEY" in q.referenced
    # view columns must not leak as schema attributes
    assert all(a.split(".")[1] not in ("SUPPLIER_NO", "TOTAL_REVENUE")
               for a in q.referenced)


def test_full_annex_workloads_parse():
    ssb = parse_workload(data_path("ssb.sql").read_text(), ssb_schema())
    assert len(ssb) == 30
    assert all(q.referenced for q in ssb)
    tpch = parse_workload(data_path("tpch.sql").read_text(), tpch_schema())
    assert len(tpch) == 22
    assert all(q.referenced for q in tpch)


# ---------------------------------------------------------------------------
# matrix
# ---------------------------------------------------------------------------

def example_matrix():
    schema = example_schema()
    qs = parse_workload(data_path("example_star.sql").read_text(), schema)
    return build_context_matrix(schema, qs)


def test_example_matrix_shape():
    m = example_matrix()
    assert len(m.columns) == 6
    assert list(m.rows) == [mask({4, 5, 6})] * 3 + \
        [mask({1, 2, 3})] * 2


def test_support_values():
    m = example_matrix()
    assert m.support(mask({3})) == pytest.approx(0.4)
    assert m.support(mask(set())) == 1.0
    assert m.support(mask({3, 6})) == 0.0
    with pytest.raises(ValueError):
        m.support(mask({99}))


@given(st.data())
def test_support_antitone(data):
    m = example_matrix()
    ids = list(range(1, len(m.columns) + 1))
    a = data.draw(st.sets(st.sampled_from(ids), max_size=4))
    extra = data.draw(st.sets(st.sampled_from(ids), max_size=4))
    assert m.support(mask(a)) >= m.support(mask(a | extra))


@given(st.lists(st.tuples(st.sets(st.integers(1, 6), min_size=1),
                          st.floats(0.01, 10.0)), min_size=1, max_size=12))
def test_marginal_support_is_single_column_support(rows):
    m = example_matrix()
    weighted = ContextMatrix(
        schema=m.schema, columns=m.columns, rows=tuple(mask(r) for r, _ in rows),
        queries=tuple(ParsedQuery(id=k, raw_text="", referenced=frozenset(),
                                  predicates=(), weight=w)
                      for k, (_, w) in enumerate(rows, 1)))
    assert weighted.marginal_support[1:] == tuple(
        weighted.support(1 << i) for i in range(1, len(m.columns) + 1))


def indexable_attributes(schema, attrs):
    """Keep only non-key attributes of dimension tables."""
    return {q for q in attrs if schema.is_indexable(schema.attribute(q))}


def test_indexable_attributes_rule():
    schema = example_schema()
    got = indexable_attributes(schema, [a.qualified for a in schema.attributes])
    assert got == {"CUSTOMERS.cust_gender", "CHANNELS.channel_desc"}
    assert indexable_attributes(ssb_schema(),
                                {"lineorder.lo_revenue"}) == set()


def test_matrix_determinism():
    m1 = example_matrix()
    m2 = example_matrix()
    assert m1.columns == m2.columns
    assert m1.rows == m2.rows


def test_empty_workload_is_error():
    schema = ssb_schema()
    q = parse_query("select count(*) from lineorder", schema, 1)
    with pytest.raises(ParseError):
        build_context_matrix(schema, [q])


def test_dropped_empty_query_warns(caplog):
    schema = ssb_schema()
    qs = parse_workload(
        "Q1 - select count(*) from lineorder\n"
        "Q2 - select 1 from lineorder where lo_quantity < 5\n", schema)
    m = build_context_matrix(schema, qs)
    assert len(m.rows) == 1


def test_tokenize_rejects_garbage():
    with pytest.raises(ParseError):
        tokenize("select @ from t")
