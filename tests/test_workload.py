"""SQL attribute extraction and the query-attribute matrix."""

import json
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from bji_advisor import costmodel, data_path, workload
from bji_advisor.hypergraph import bits, mask
from bji_advisor.schema import load_catalog, load_catalog_file
from bji_advisor.workload import (ContextMatrix, ParseError, ParsedQuery,
                                  build_context_matrix, parse_query,
                                  parse_workload, split_workload, tokenize)


def ssb_schema():
    return load_catalog_file(data_path("ssb.json"))


def tpch_schema():
    return load_catalog_file(data_path("tpch.json"))


def example_schema():
    return load_catalog_file(data_path("example_star.json"))


def names(schema, ids):
    """The qualified names of the column ids in the mask ``ids``."""
    assert not ids & 1, "bit 0 names no column"
    return frozenset(schema.attributes[i - 1].qualified for i in bits(ids))


def predicates_by_name(schema, q):
    """A query's predicates as {qualified name: (opclass, in_count)}."""
    return {schema.attributes[i - 1].qualified: (opclass, k)
            for i, opclass, k in q.predicates}


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------

def test_split_headers():
    blocks = split_workload("Q1 - select 1\n\nQ2 - select 2\nmore\n")
    assert blocks == [(1, "select 1"), (2, "select 2\nmore")]
    # a header's q may be lowercase, alone or mixed with uppercase ones
    assert split_workload("Q1 - select 1\n\nq2 - select 2\nmore\n") == blocks
    assert split_workload("q1 - select 1\n\nq2 - select 2\nmore\n") == blocks


def test_split_colon_headers():
    text = "Q1 : select 1\n\nQ2: select 2\nmore\nQ10 :select 3\n"
    blocks = split_workload(text)
    assert blocks == [(1, "select 1"), (2, "select 2\nmore"), (10, "select 3")]
    assert split_workload(text.replace("Q2", "q2")) == blocks
    assert split_workload(text.replace("Q", "q")) == blocks


def test_split_rejects_text_before_the_first_header():
    with pytest.raises(ParseError, match="text before the first query header"):
        split_workload("select x from t where a = 1\n\nQ1 - select 2\n")
    # blank lines before it are fine
    assert split_workload("\n  \nQ1 - select 2\n") == [(1, "select 2")]
    assert split_workload("\n  \nq1: select 2\n") == [(1, "select 2")]


def test_split_rejects_a_repeated_query_id():
    with pytest.raises(ParseError, match="Q1 appears more than once"):
        split_workload("Q1 - select 1\nQ2 - select 2\nQ1 : select 3\n")
    # 1 and 01 are one id
    with pytest.raises(ParseError, match="Q1 appears more than once"):
        split_workload("Q1 - select 1\nQ01 - select 2\n")
    # q1 and Q1 are one id
    with pytest.raises(ParseError, match="Q1 appears more than once"):
        split_workload("q1 - select 1\nQ1 : select 2\n")


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


def oracle_split_workload(text):
    """The header split as a multiline ``finditer`` of
    ``^\\s*[Qq](\\d+)\\s*[-:][^\\S\\n]*``: every header found where the
    one before it ended, each ending on its own line."""
    headers = list(re.finditer(r"^\s*[Qq](\d+)\s*[-:][^\S\n]*", text,
                               re.MULTILINE))
    if not headers:
        blocks = re.split(r"^\s*;\s*$", text, flags=re.MULTILINE)
        return [(k + 1, b.strip()) for k, b in enumerate(blocks) if b.strip()]
    before = text[:headers[0].start()].strip()
    if before:
        raise ParseError(
            f"text before the first query header: {before[:40]!r}")
    out, seen = [], set()
    for k, m in enumerate(headers):
        qid = int(m.group(1))
        if qid in seen:
            raise ParseError(f"query id Q{qid} appears more than once")
        seen.add(qid)
        end = headers[k + 1].start() if k + 1 < len(headers) else len(text)
        out.append((qid, text[m.end():end].strip()))
    return out


def split_or_error(split, text):
    try:
        return split(text)
    except ParseError as exc:
        return str(exc)


# whitespace of every kind ``\\s`` matches, blank lines, indented and
# split headers, an empty-body header before an indented one, mid-line
# headers, repeated ids and ';' separators
_SPLIT_PIECES = st.sampled_from([
    "\r\n", "\x0b", "\x0c", "\xa0", " ", "\n", "\n\n", "\n  \n", "\t",
    "Q1 - ", "q2: ", "Q3 -", "  Q1 - ", "\x0bq4 :", "Q1\n- ", "Q2 -\n",
    "Q1 -\n  Q2 - ", "select 1 q1 - ", "select 2", "x", ";", "\n;\n", "-", ":",
])


@given(st.lists(_SPLIT_PIECES, max_size=12).map("".join))
@example("Q1 -\nQ2 - select 1")
@example("Q1 -\n  Q2 - select 1")
@example("Q1 -\r\nq2 : select 1\n\x0c Q3-\n")
def test_split_finds_the_headers_of_a_multiline_finditer(text):
    """One ``finditer`` of the newline-led pattern over ``"\\n" + text``
    finds the headers of a multiline ``finditer`` of the line-start one."""
    assert split_or_error(split_workload, text) == \
        split_or_error(oracle_split_workload, text)


def test_an_empty_header_leaves_an_indented_one_a_header():
    # a header ends on its own line, so the next line may start another
    assert split_workload("Q1 -\n  Q2 - select 1") == [(1, ""),
                                                       (2, "select 1")]
    assert split_workload("Q1 -\nQ2 - select 1") == [(1, ""),
                                                     (2, "select 1")]


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------

def test_ssb_q1_referenced():
    sql = """select sum(lo_extendedprice*lo_discount) as revenue
    from lineorder, dates
    where lo_orderdate = d_datekey and d_year = 1993
    and lo_discount >= 1 and lo_discount <= 3 and lo_quantity < 25"""
    schema = ssb_schema()
    q = parse_query(sql, schema, 1)
    assert names(schema, q.referenced) == {
        "lineorder.lo_orderdate", "dates.d_datekey", "dates.d_year",
        "lineorder.lo_discount", "lineorder.lo_quantity"}
    classes = {a: p[0] for a, p in predicates_by_name(schema, q).items()}
    assert classes["dates.d_year"] == "equality"
    assert classes["lineorder.lo_quantity"] == "range"
    assert classes["lineorder.lo_orderdate"] == "join"
    assert classes["dates.d_datekey"] == "join"


def test_no_where_clause_gives_empty_set():
    q = parse_query("select count(*) from lineorder", ssb_schema(), 1)
    assert q.referenced == 0


def test_aliased_and_qualified_refs():
    sql = """select count(*) from SALES S, CUSTOMERS C
    where S.cust_id = C.cust_id and C.cust_gender = 'M'"""
    schema = example_schema()
    q = parse_query(sql, schema, 4)
    assert names(schema, q.referenced) == {
        "SALES.cust_id", "CUSTOMERS.cust_id", "CUSTOMERS.cust_gender"}


def helper_named_schema():
    """F(fk, x) joined on fk to D(date key, y, dd, yy): D's columns are
    named like T-SQL helper arguments."""
    return load_catalog(json.dumps({
        "page_size": 8192,
        "tables": [{"name": "F", "role": "fact", "rows": 1000,
                    "tuple_width": 10, "pages": 100},
                   {"name": "D", "role": "dimension", "rows": 100,
                    "tuple_width": 10, "pages": 1}],
        "attributes": [{"table": "F", "name": "fk", "cardinality": 100},
                       {"table": "F", "name": "x", "cardinality": 10},
                       {"table": "D", "name": "date", "is_key": True},
                       {"table": "D", "name": "y", "cardinality": 10},
                       {"table": "D", "name": "dd", "cardinality": 10},
                       {"table": "D", "name": "yy", "cardinality": 10}],
        "joins": [{"fact_attr": "F.fk", "dim_attr": "D.date"}]}))


def test_helper_argument_name_as_join_endpoint():
    """A bare helper-argument name that is a column is that column next to
    a comparison operator: each spelling of the join costs as the qualified
    one does, not as a 101-page scan of F and D."""
    schema = helper_named_schema()
    qualified = parse_query(
        "select * from F, D where F.fk = D.date and y = 2", schema)
    assert names(schema, qualified.referenced) == {"F.fk", "D.date", "D.y"}
    cost = costmodel.query_cost(schema, qualified, ["D.y"])
    assert cost == pytest.approx(65.21205588285576)
    for where in ("fk = date and y = 2", "date = fk and y = 2"):
        q = parse_query(f"select * from F, D where {where}", schema)
        assert q.referenced == qualified.referenced, where
        assert sorted(q.predicates) == sorted(qualified.predicates), where
        assert costmodel.query_cost(schema, q, ["D.y"]) == cost, where
    for where, opclass in (("y = 2 and date > 3", "range"),
                           ("y = 2 and 3 = date", "ref")):
        q = parse_query(f"select * from D where {where}", schema)
        assert predicates_by_name(schema, q) == {
            "D.y": ("equality", 0), "D.date": (opclass, 0)}, where


def test_helper_argument_name_inside_a_call_is_an_argument():
    schema = helper_named_schema()
    for where, want in (
            ("y < dateadd(dd, 1, cast('1998-12-01' as date))", {"D.y"}),
            ("datepart(yy, y) = 1994", {"D.y"}),
            ("cast(x as date) = '1998-12-01'", {"F.x"})):
        q = parse_query(f"select * from F, D where {where}", schema)
        assert names(schema, q.referenced) == want, where


def test_unresolvable_column_is_error():
    with pytest.raises(ParseError):
        parse_query("select 1 from lineorder where no_such = 3",
                    ssb_schema(), 9)


def test_unknown_table_is_error():
    with pytest.raises(ParseError):
        parse_query("select 1 from nowhere where lo_quantity = 3",
                    ssb_schema(), 9)


@pytest.mark.parametrize("sql, message", [
    ("select 1 from NoWhere where lo_quantity = 3",
     "unknown table 'NoWhere' in FROM"),
    ("select 1 from lineorder where No_Such = 3",
     "unresolvable column 'No_Such'"),
    ("select 1 from lineorder L where L.No_Such = 3",
     "unknown attribute lineorder.No_Such"),
    # a qualifier that is no alias, table or derived name
    ("select 1 from lineorder L where Zz.lo_quantity = 3 and lo_discount = 1",
     "unknown table 'Zz'"),
    ("select 1 from lineorder where LineOrdr.lo_quantity = 3",
     "unknown table 'LineOrdr'"),
    ("select 1 from lineorder join dates on lo_orderdate = Dats.d_datekey",
     "unknown table 'Dats'"),
    ("UPDATE lineorder set x = 1",
     "unsupported statement starting at 'UPDATE'"),
    # U+212A, the Kelvin sign, lowercases to an ASCII 'k'
    ("select 1 from lineorder where lo_quantity = 3 \u212a",
     "unexpected character '\u212a' at offset 46"),
    ("select \u212a from lineorder where lo_quantity = 3",
     "unexpected character '\u212a' at offset 7"),
    # U+0130 lowercases to two characters
    ("select 1 from lineorder where lo_quantity = '\u0130\u0130' @",
     "unexpected character '@' at offset 49"),
])
def test_input_errors_quote_the_text_as_written(sql, message):
    with pytest.raises(ParseError) as exc:
        parse_query(sql, ssb_schema(), 7)
    assert str(exc.value) == f"query 7: {message}"


_CATALOGS = {name: load_catalog_file(data_path(name + ".json"))
             for name in ("example_star", "ssb", "tpch")}


def _recased(data, text):
    """``text`` with the case of each letter drawn at random."""
    flips = data.draw(st.lists(st.booleans(), min_size=len(text),
                               max_size=len(text)))
    return "".join(c.upper() if f else c.lower() for c, f in zip(text, flips))


# the words of the parser's table that never name a column
_NOT_COLUMNS = {w for w, f in workload._FLAGS.items()
                if f & (workload._RESERVED | workload._HELPER)}


@given(data=st.data())
def test_names_resolve_as_a_linear_scan_does(data):
    """A WHERE name, qualified by its table or an alias, or bare, resolves
    to the column a scan of the catalog finds; a bare name two tables share,
    a name its table lacks and a qualifier that is no alias or table are
    errors that quote it as written."""
    s = _CATALOGS[data.draw(st.sampled_from(sorted(_CATALOGS)))]
    i = data.draw(st.sampled_from([
        i for i, a in enumerate(s.attributes, 1)
        if a.name.lower() not in _NOT_COLUMNS]))
    a = s.attributes[i - 1]
    table, name = _recased(data, a.table), _recased(data, a.name)
    alias, bad = _recased(data, "t_alias"), _recased(data, "no_such_col")
    head = f"select * from {table} {alias} where "
    for where in (f"{table}.{name}", f"{alias}.{name}"):
        q = parse_query(f"{head}{where} = 1", s)
        assert q.referenced == 1 << i and q.predicates == ((i, "equality", 0),)
    hits = [h for h in s.attributes if h.name.lower() == a.name.lower()]
    if len(hits) == 1:
        assert parse_query(f"{head}{name} = 1", s).referenced == 1 << i
    else:
        with pytest.raises(ParseError) as exc:
            parse_query(f"{head}{name} = 1", s)
        assert str(exc.value) == f"query 0: unresolvable column {name!r}"
    with pytest.raises(ParseError) as exc:
        parse_query(f"{head}{table}.{bad} = 1", s)
    assert str(exc.value) == f"query 0: unknown attribute {a.table}.{bad}"
    known = {t.lower() for t in s.tables} | {"t_alias"} | _NOT_COLUMNS
    stray = _recased(data, data.draw(st.from_regex(
        r"[a-z_][a-z0-9_]{0,11}", fullmatch=True).filter(
            lambda q: q not in known)))
    with pytest.raises(ParseError) as exc:
        parse_query(f"{head}{stray}.{name} = 1", s)
    assert str(exc.value) == f"query 0: unknown table {stray!r}"


def test_in_list_counting():
    sql = ("SELECT 1 FROM LINEITEM, PART WHERE L_PARTKEY = P_PARTKEY "
           "AND P_SIZE IN (1, 2, 3) AND L_SHIPMODE IN ('AIR', 'AIR REG')")
    schema = tpch_schema()
    q = parse_query(sql, schema, 1)
    preds = predicates_by_name(schema, q)
    assert preds["PART.P_SIZE"][0] == "in-list"
    assert preds["PART.P_SIZE"][1] == 3
    assert preds["LINEITEM.L_SHIPMODE"][1] == 2


def test_subquery_attrs_fold_into_parent():
    sql = ("SELECT 1 FROM ORDERS WHERE O_ORDERDATE >= '1993-07-01' AND "
           "EXISTS (SELECT * FROM LINEITEM WHERE L_ORDERKEY = O_ORDERKEY)")
    schema = tpch_schema()
    q = parse_query(sql, schema, 4)
    assert "LINEITEM.L_ORDERKEY" in names(schema, q.referenced)
    assert "ORDERS.O_ORDERKEY" in names(schema, q.referenced)
    assert "ORDERS.O_ORDERDATE" in names(schema, q.referenced)


def test_having_is_ignored():
    sql = ("SELECT L_ORDERKEY FROM LINEITEM GROUP BY L_ORDERKEY "
           "HAVING SUM(L_QUANTITY) > 300")
    schema = tpch_schema()
    q = parse_query(sql, schema, 1)
    assert "LINEITEM.L_QUANTITY" not in names(schema, q.referenced)
    assert q.referenced == 0


def test_view_block_and_derived_columns():
    sql = data_path("tpch.sql").read_text()
    q15 = dict(split_workload(sql))[15]
    schema = tpch_schema()
    q = parse_query(q15, schema, 15)
    assert "LINEITEM.L_SHIPDATE" in names(schema, q.referenced)
    assert "SUPPLIER.S_SUPPKEY" in names(schema, q.referenced)
    # view columns must not leak as schema attributes
    assert all(a.split(".")[1] not in ("SUPPLIER_NO", "TOTAL_REVENUE")
               for a in names(schema, q.referenced))


@pytest.mark.parametrize("sql, message", [
    ("drop table lineorder", "only DROP VIEW is supported"),
    ("DROP INDEX zz select 1 from lineorder where lo_quantity = 3",
     "only DROP VIEW is supported"),
    ("select 1 from lineorder where lo_quantity = 3; drop procedure p",
     "only DROP VIEW is supported"),
    ("drop", "truncated statement"),
    ("drop view", "truncated statement"),
    ("DROP VIEW ;", "truncated statement"),
])
def test_drop_other_than_drop_view_is_error(sql, message):
    with pytest.raises(ParseError) as exc:
        parse_query(sql, ssb_schema(), 7)
    assert str(exc.value) == f"query 7: {message}"


def test_drop_view_ends_a_statement():
    q = parse_query("select 1 from lineorder where lo_quantity = 3;\n"
                    "DROP VIEW v select 1 from lineorder where lo_discount = 1",
                    ssb_schema())
    assert q.predicates == parse_query(
        "select 1 from lineorder where lo_quantity = 3 and lo_discount = 1",
        ssb_schema()).predicates


@pytest.mark.parametrize("sql, message", [
    # each once parsed to the predicates before the statement, with the
    # statement after the ORDER BY or GROUP BY swallowed
    ("select 1 from lineorder where lo_quantity = 3 order by lo_quantity "
     "drop table lineorder", "only DROP VIEW is supported"),
    ("select 1 from lineorder where lo_quantity = 3 group by lo_quantity "
     "update lineorder set lo_discount = 1",
     "unsupported statement starting at 'update'"),
    # here the DELETE's WHERE predicate was added to the SELECT's
    ("select 1 from lineorder where lo_quantity = 3 order by lo_quantity "
     "DELETE from lineorder where lo_tax = 2",
     "unsupported statement starting at 'DELETE'"),
    ("select 1 from lineorder where lo_quantity = 3 order by lo_quantity "
     "truncate table lineorder",
     "unsupported statement starting at 'truncate'"),
    ("select 1 from lineorder where lo_quantity = 3 group by lo_quantity "
     "having count(*) > 1 alter table lineorder add x int",
     "unsupported statement starting at 'alter'"),
    ("select lo_quantity merge into lineorder using lineorder on 1 = 1",
     "unsupported statement starting at 'merge'"),
    ("select 1 from lineorder where lo_quantity = 3 group by lo_quantity "
     "grant select on lineorder to public",
     "unsupported statement starting at 'grant'"),
    ("select 1 from lineorder where lo_quantity = 3 order by lo_quantity "
     "set lo_tax = 1", "unsupported statement starting at 'set'"),
    ("select 1 from lineorder where lo_quantity = 3 order by lo_quantity "
     "CALL p()", "unsupported statement starting at 'CALL'"),
    ("select 1 from lineorder where lo_quantity = 3 order by lo_quantity "
     "commit", "unsupported statement starting at 'commit'"),
    ("select 1 from lineorder where lo_quantity = 3 group by lo_quantity "
     "having count(*) > 1 rollback",
     "unsupported statement starting at 'rollback'"),
    ("select 1 from lineorder where lo_quantity = 3 order by lo_quantity "
     "replace into lineorder values (1)",
     "unsupported statement starting at 'replace'"),
    ("select 1 from lineorder where lo_quantity = 3 REPLACE lineorder",
     "unsupported statement starting at 'REPLACE'"),
])
def test_a_statement_after_a_skipped_clause_is_parsed(sql, message):
    with pytest.raises(ParseError) as exc:
        parse_query(sql, ssb_schema(), 7)
    assert str(exc.value) == f"query 7: {message}"


@pytest.mark.parametrize("where, operator", [
    ("lo_quantity <", "<"),                     # the end of the statement
    ("lo_quantity < ;", "<"),
    ("(lo_quantity >= )", ">="),
    ("d_year = and lo_quantity < 25", "="),
    ("lo_quantity = = 3", "="),
    ("lo_quantity < 3 or lo_tax <> or lo_tax = 1", "<>"),
    ("lo_quantity != group by lo_quantity", "!="),
    ("lo_quantity not <= order by 1", "<="),
    ("3 > ", ">"),                              # no column before it
    ("lo_quantity = 3 and d_year = select 1", "="),
])
def test_a_comparison_without_a_right_hand_operand_is_an_error(where,
                                                               operator):
    sql = f"select 1 from lineorder, dates where {where}"
    with pytest.raises(ParseError) as exc:
        parse_query(sql, ssb_schema(), 4)
    assert str(exc.value) == \
        f"query 4: no right-hand operand after {operator!r}"


@pytest.mark.parametrize("where, predicates", [
    ("lo_quantity = null", {"lineorder.lo_quantity": ("equality", 0)}),
    ("lo_quantity > all (select lo_tax from lineorder)",
     {"lineorder.lo_quantity": ("range", 0)}),
    ("lo_quantity = case when lo_tax = 1 then 2 else 3 end",
     {"lineorder.lo_quantity": ("equality", 0),
      "lineorder.lo_tax": ("equality", 0)}),
    ("lo_quantity = - 5", {"lineorder.lo_quantity": ("equality", 0)}),
    ("lo_quantity = (select max(lo_tax) from lineorder where lo_tax < 5)",
     {"lineorder.lo_quantity": ("subquery", 0),
      "lineorder.lo_tax": ("range", 0)}),
    ("lo_quantity < 3 and lo_tax like 'x' order by lo_quantity desc",
     {"lineorder.lo_quantity": ("range", 0),
      "lineorder.lo_tax": ("like", 0)}),
])
def test_a_comparison_with_a_right_hand_operand_parses(where, predicates):
    q = parse_query(f"select 1 from lineorder where {where}", ssb_schema())
    assert predicates_by_name(ssb_schema(), q) == predicates


@pytest.mark.parametrize("where, message", [
    ("lo_quantity like", "no right-hand operand after 'like'"),
    ("lo_quantity not like ;", "no right-hand operand after 'like'"),
    ("lo_quantity = like 'x'", "no right-hand operand after '='"),
    ("lo_quantity between and 3", "no right-hand operand after 'between'"),
    ("lo_quantity between 1 and", "no right-hand operand after 'and'"),
    ("lo_quantity between 1 and or lo_tax = 1",
     "no right-hand operand after 'and'"),
    ("lo_quantity not between 1 ;", "no AND after 'between'"),
    ("lo_quantity in ;", "no '(' after 'in'"),
    ("lo_quantity not in 3", "no '(' after 'in'"),
    ("lo_quantity is", "no NULL after 'is'"),
    ("lo_quantity is not", "no NULL after 'is'"),
    ("lo_quantity is 3", "no NULL after 'is'"),
    ("'x' like", "no right-hand operand after 'like'"),  # no column before
    ("(lo_quantity) in )", "no '(' after 'in'"),
    # AND and OR need an operand too
    ("lo_quantity = 1 and", "no right-hand operand after 'and'"),
    ("lo_quantity = 1 or ;", "no right-hand operand after 'or'"),
    ("lo_quantity = 1 and and lo_tax = 2", "no right-hand operand after 'and'"),
    ("(lo_quantity = 1 or) and lo_tax = 2", "no right-hand operand after 'or'"),
    # cut after BETWEEN's AND, where its first operand holds an AND
    ("lo_quantity between (select max(lo_tax) from lineorder"
     " where lo_tax > 1 and lo_discount < 2) and",
     "no right-hand operand after 'and'"),
    # the arithmetic operators and NOT need an operand too
    ("lo_quantity = 3 -", "no right-hand operand after '-'"),
    ("lo_quantity = 3 + ) and lo_tax = 1", "no right-hand operand after '+'"),
    ("lo_quantity / = 3", "no right-hand operand after '/'"),
    ("not", "no right-hand operand after 'not'"),
    ("lo_quantity = 1 and not or lo_tax = 2",
     "no right-hand operand after 'not'"),
    ("lo_quantity not = 3", "no right-hand operand after 'not'"),
    ("lo_quantity not < ;", "no right-hand operand after '<'"),
    ("lo_quantity = 1 group by lo_tax -", "no right-hand operand after '-'"),
])
def test_a_predicate_operator_without_its_operand_is_an_error(where, message):
    sql = f"select 1 from lineorder where {where}"
    with pytest.raises(ParseError) as exc:
        parse_query(sql, ssb_schema(), 4)
    assert str(exc.value) == f"query 4: {message}"


@pytest.mark.parametrize("where, predicates", [
    ("lo_quantity is null", {"lineorder.lo_quantity": ("ref", 0)}),
    ("lo_quantity is not null and lo_tax not like 'x'",
     {"lineorder.lo_quantity": ("ref", 0), "lineorder.lo_tax": ("like", 0)}),
    ("lo_quantity not between 1 and 3",
     {"lineorder.lo_quantity": ("range", 0)}),
    ("lo_quantity between (select min(lo_tax) from lineorder "
     "where lo_tax > 1 and lo_discount < 3) and 5",
     {"lineorder.lo_quantity": ("range", 0), "lineorder.lo_tax": ("range", 0),
      "lineorder.lo_discount": ("range", 0)}),
    ("lo_quantity not in (1, 2)", {"lineorder.lo_quantity": ("in-list", 2)}),
    ("lo_quantity in (select lo_tax from lineorder)",
     {"lineorder.lo_quantity": ("subquery", 0)}),
    # NOT before IN, LIKE, BETWEEN, an operand or a parenthesis; a sign
    # after an operator; '*' with no operand
    ("abs(lo_quantity) not in (1) and lo_tax - - 1 = 2",
     {"lineorder.lo_quantity": ("ref", 0), "lineorder.lo_tax": ("ref", 0)}),
    ("not (lo_quantity = 1) and not exists (select * from lineorder) and "
     "not lo_tax / 2 > 1", {"lineorder.lo_quantity": ("equality", 0),
                            "lineorder.lo_tax": ("ref", 0)}),
    ("lo_quantity not like 'x' or lo_tax = - 5 * 2",
     {"lineorder.lo_quantity": ("like", 0),
      "lineorder.lo_tax": ("equality", 0)}),
])
def test_a_predicate_operator_with_its_operand_parses(where, predicates):
    q = parse_query(f"select 1 from lineorder where {where}", ssb_schema())
    assert predicates_by_name(ssb_schema(), q) == predicates


def test_replace_with_a_parenthesis_is_a_call():
    q = parse_query("select replace(s_city, 'a', 'b') from supplier "
                    "where replace(s_city, 'a', 'b') = 'x' and s_region = 'A'",
                    ssb_schema())
    assert predicates_by_name(ssb_schema(), q) == {
        "supplier.s_city": ("ref", 0), "supplier.s_region": ("equality", 0)}


def _flip_case(rng, sql):
    """``sql`` with each ASCII letter outside its string literals in a
    random case."""
    return "".join(
        part if part.startswith("'") else "".join(
            rng.choice((c.lower(), c.upper())) if c.isascii() else c
            for c in part)
        for part in re.split(r"('(?:[^']|'')*')", sql))


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32))
def test_keywords_and_names_match_in_any_case(seed):
    """Flipping the case of the bundled workloads' keywords and names
    leaves every parsed query as it was."""
    rng = random.Random(seed)
    for cat, wl in (("example_star.json", "example_star.sql"),
                    ("ssb.json", "ssb.sql"), ("tpch.json", "tpch.sql")):
        schema = load_catalog_file(data_path(cat))
        for qid, sql in split_workload(data_path(wl).read_text()):
            flipped = _flip_case(rng, sql)
            assert parse_query(flipped, schema, qid) == \
                parse_query(sql, schema, qid), flipped


def test_full_annex_workloads_parse():
    ssb = parse_workload(data_path("ssb.sql").read_text(), ssb_schema())
    assert len(ssb) == 30
    assert all(q.referenced for q in ssb)
    tpch = parse_workload(data_path("tpch.sql").read_text(), tpch_schema())
    assert len(tpch) == 22
    assert all(q.referenced for q in tpch)


# ---------------------------------------------------------------------------
# the benchmark generator as an oracle
# ---------------------------------------------------------------------------

# operator class the extractor gives each of the generator's operators
GEN_OPCLASS = {"equality": "equality", "range": "range", "between": "range",
               "in-list": "in-list", "like": "like"}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_parser_agrees_with_the_generators_record(gen, data):
    """A query the benchmark generator renders (aliases, qualified or bare
    names and predicate order drawn) parses to the attributes the generator
    recorded, each attribute with the class of its operator."""
    dims, attrs, fact_cols = 3, 4, 4
    catalog = gen.star_catalog(random.Random(data.draw(st.integers(0, 99))),
                               dims, attrs, fact_cols)
    schema = load_catalog(json.dumps(catalog))
    joins = data.draw(st.lists(st.integers(1, dims), unique=True))
    dim_filters = data.draw(st.lists(
        st.tuples(st.sampled_from(joins), st.integers(1, attrs),
                  st.sampled_from(gen.OPERATORS)),
        unique_by=lambda f: f[:2])) if joins else []
    fact_filters = data.draw(st.lists(
        st.tuples(st.integers(1, fact_cols), st.sampled_from(gen.OPERATORS)),
        unique_by=lambda f: f[0]))
    shape = gen.QueryShape(tuple(joins), tuple(dim_filters),
                           tuple(fact_filters))
    sql = gen.render_query(random.Random(data.draw(st.integers(0, 2**32))),
                           1, shape)
    (q,) = parse_workload(sql, schema)
    assert names(schema, q.referenced) == shape.referenced()
    want = {f"{gen.FACT}.{gen._fcol(c)}": GEN_OPCLASS[op]
            for c, op in fact_filters}
    want.update({f"{gen._dim(d)}.{gen._dattr(d, a)}": GEN_OPCLASS[op]
                 for d, a, op in dim_filters})
    for d in joins:
        want[f"{gen.FACT}.{gen._fk(d)}"] = "join"
        want[f"{gen._dim(d)}.{gen._key(d)}"] = "join"
    assert {a: p[0] for a, p in predicates_by_name(schema, q).items()} == want


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
    assert m.support((3,)) == pytest.approx(0.4)
    assert m.support(()) == 1.0
    assert m.support({3, 6}) == 0.0
    with pytest.raises(ValueError):
        m.support((99,))


@pytest.mark.parametrize("ids, unknown", [
    ((0,), [0]), ((-1,), [-1]), ((7,), [7]), ((7, 3, 0, 7), [0, 7])])
def test_support_rejects_ids_outside_the_columns(ids, unknown):
    m = example_matrix()
    assert len(m.columns) + 1 == 7
    with pytest.raises(ValueError,
                       match=re.escape(f"unknown columns {unknown}")):
        m.support(ids)


@given(st.data())
def test_support_antitone(data):
    m = example_matrix()
    ids = list(range(1, len(m.columns) + 1))
    a = data.draw(st.sets(st.sampled_from(ids), max_size=4))
    extra = data.draw(st.sets(st.sampled_from(ids), max_size=4))
    assert m.support(a) >= m.support(a | extra)


def drawn_matrix(rows) -> ContextMatrix:
    """The example's six columns over the drawn rows of column ids."""
    return ContextMatrix(
        columns=example_matrix().columns, rows=tuple(mask(r) for r in rows),
        queries=tuple(ParsedQuery(id=k, referenced=0, predicates=())
                      for k in range(1, len(rows) + 1)))


@given(st.lists(st.sets(st.integers(1, 6), min_size=1), min_size=1,
                max_size=12))
def test_marginal_support_is_single_column_support(rows):
    drawn = drawn_matrix(rows)
    assert drawn.marginal_support == tuple(
        sum(1 for r in rows if i in r) / len(rows) for i in range(7))
    assert drawn.marginal_support[1:] == tuple(
        drawn.support((i,)) for i in range(1, len(drawn.columns) + 1))


# rows over four of the six columns, so that rows repeat; ids -1, 0, 7 and
# 8 name no column
@given(st.lists(st.sets(st.integers(1, 4), min_size=1), min_size=1,
                max_size=12),
       st.sets(st.integers(-1, 8), max_size=3))
def test_support_equals_row_scan(rows, attrs):
    drawn = drawn_matrix(rows)
    assert drawn.support(()) == 1.0
    if attrs <= set(range(1, 7)):
        want = sum(1 for r in rows if attrs <= r) / len(rows)
        assert drawn.support(attrs) == want
        assert drawn.support(sorted(attrs)) == want
    else:
        unknown = sorted(attrs - set(range(1, 7)))
        with pytest.raises(ValueError,
                           match=re.escape(f"unknown columns {unknown}")):
            drawn.support(sorted(attrs))


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


# ---------------------------------------------------------------------------
# tokenizer vs a match-per-token oracle
# ---------------------------------------------------------------------------

_ORACLE_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<str>'(?:[^']|'')*')
      | (?P<num>\d+(?:\.\d+)?|\.\d+)
      | (?P<id>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op><>|<=|>=|!=|[=<>(),.;*+\-/])
    )""",
    re.VERBOSE,
)


def oracle_tokenize(sql):
    """One anchored match per token, stepping over whitespace by hand."""
    out = []
    pos = 0
    while pos < len(sql):
        m = _ORACLE_TOKEN_RE.match(sql, pos)
        if not m:
            if sql[pos].isspace():
                pos += 1
                continue
            raise ParseError(f"unexpected character {sql[pos]!r} at offset {pos}")
        out.append(m.group(0).strip())
        pos = m.end()
    return out


def tokens_or_error(tokenizer, text):
    try:
        return tokenizer(text)
    except ParseError as exc:
        return f"ParseError: {exc}"


# SQL characters, quotes, whitespace (also non-ASCII), '@', a non-ASCII
# digit and non-ASCII letters, among them the two whose lowercase is not
# one character of the same kind (U+0130, U+212A); any other character now
# and then
_SQL_TEXT = st.text(alphabet=st.one_of(
    st.sampled_from(list("selctfromwhrandSELCTAND_xyz0129.'=<>!(),;*+-/"
                         " \t\n\u00a0\u2003@\u0663\u00e9\u00c4\u00df\u03a3"
                         "\u0130\u212a")),
    st.characters()), max_size=60)


@settings(max_examples=600, deadline=None)
@given(_SQL_TEXT)
def test_tokenize_matches_oracle(text):
    assert tokens_or_error(tokenize, text) == tokens_or_error(oracle_tokenize, text)


def test_tokenize_matches_oracle_on_bundled_workloads():
    for name in ("example_star.sql", "ssb.sql", "tpch.sql"):
        text = data_path(name).read_text()
        assert tokenize(text) == oracle_tokenize(text)


def test_tokenize_rejects_garbage():
    for sql, message in (
            ("select @ from t", "unexpected character '@' at offset 7"),
            ("select a from t where b = 'abc",
             "unexpected character \"'\" at offset 26"),
            ("select \u00e9 from t", "unexpected character '\u00e9' at offset 7")):
        with pytest.raises(ParseError) as exc:
            tokenize(sql)
        assert str(exc.value) == message
        assert tokens_or_error(oracle_tokenize, sql) == f"ParseError: {message}"


# ---------------------------------------------------------------------------
# a query cut right after a predicate operator
# ---------------------------------------------------------------------------

_NEEDS_OPERAND = {"=", "<>", "!=", "<", "<=", ">", ">=", "like", "between",
                  "in", "is", "and", "or"}


def _cuts_after_operators(sql):
    """The offsets in ``sql`` right after each predicate operator or
    connective: a comparison, LIKE, BETWEEN, IN, IS, the NOT of IS NOT, AND
    (BETWEEN's included) and OR."""
    cuts, prev = [], None
    for m in _ORACLE_TOKEN_RE.finditer(sql):
        tok = m.group(0).strip().lower()
        if tok in _NEEDS_OPERAND or tok == "not" and prev == "is":
            cuts.append(m.end())
        prev = tok
    return cuts


def test_a_query_cut_right_after_a_predicate_operator_is_an_error(gen):
    """Every prefix of the bundled queries and of the seed-1 generated ones
    that ends right after a predicate operator or a connective is an input
    error, in WHERE and ON and in the clauses the extractor skips alike."""
    inputs = [(_CATALOGS[name], data_path(name + ".sql").read_text())
              for name in sorted(_CATALOGS)]
    inputs += [(load_catalog(json.dumps(inst.catalog)), inst.sql)
               for make in gen.GENERATORS.values() for inst in make(1)]
    cut = 0
    for schema, text in inputs:
        for qid, sql in split_workload(text):
            parse_query(sql, schema, qid)
            for end in _cuts_after_operators(sql):
                with pytest.raises(ParseError):
                    parse_query(sql[:end], schema, qid)
                cut += 1
    assert cut > 1_000


@pytest.mark.parametrize("qid, cut, message", [
    (18, "HAVING\n SUM(L_QUANTITY) >", "no right-hand operand after '>'"),
    (8, "SUM(CASE WHEN NATION =", "no right-hand operand after '='"),
    (8, "SUM(CASE WHEN NATION = 'BRAZIL' THEN VOLUME ELSE 0 END)/SUM(VOLUME)",
     None),
])
def test_a_cut_in_a_skipped_clause(qid, cut, message):
    """A cut right after an operator in a clause the extractor skips (here
    a subquery's HAVING and a SELECT list) is an input error too; a cut
    after a whole expression there parses."""
    sql = dict(split_workload(data_path("tpch.sql").read_text()))[qid]
    prefix = sql[:sql.index(cut) + len(cut)]
    if message is None:
        parse_query(prefix, tpch_schema(), qid)
        return
    with pytest.raises(ParseError) as exc:
        parse_query(prefix, tpch_schema(), qid)
    assert str(exc.value) == f"query {qid}: {message}"


# ---------------------------------------------------------------------------
# fuzzing the workload input
# ---------------------------------------------------------------------------

_TPCH = tpch_schema()
_KEYWORDS = ("select from where and or not in exists like between is null "
             "join inner left outer on as group by having order union all "
             "distinct case when then else end create view top date").split()
# token soup: SQL keywords, the TPC-H catalog's names, operators, literals
# and query separators, which reach far deeper into the parser than text;
# alone, or after a query head that parses, so it lands in a WHERE clause
_TOKENS = (_KEYWORDS + sorted(_TPCH.tables)
           + [a.name for a in _TPCH.attributes]
           + [a.qualified for a in _TPCH.attributes]
           + list("(),.;*=<>+-/")
           + ["<>", ">=", "'x'", "1", "2.5", "\n;\n", "\nQ1 - ", "\nQ2: "])
_SOUP = st.builds(lambda head, tokens: head + " ".join(tokens),
                  st.sampled_from(["", "select * from LINEITEM, ORDERS where "]),
                  st.lists(st.sampled_from(_TOKENS), max_size=40))


@settings(max_examples=300, deadline=None)
@given(st.text(st.characters(max_codepoint=127), max_size=60) | _SOUP)
def test_lowered_tokens_are_the_tokens_lowercased(text):
    """ASCII text, which is scanned once lowered, gives ``tokenize``'s
    tokens lowercased, or the same error."""
    assert tokens_or_error(workload._lowered_tokens, text) == \
        tokens_or_error(lambda t: [x.lower() for x in tokenize(t)], text)


@settings(max_examples=300, deadline=None)
@given(_SQL_TEXT | _SOUP)
def test_parse_workload_returns_or_raises_parse_error(text):
    try:
        queries = parse_workload(text, _TPCH)
    except ParseError:
        return
    assert all(_TPCH.attribute(a).qualified == a
               for q in queries for a in names(_TPCH, q.referenced))
