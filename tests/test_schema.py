"""Catalog loading, validation and page arithmetic."""

import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from bji_advisor import cli, data_path
from bji_advisor.schema import (MAX_CATALOG_INT, AttributeStats, CatalogError,
                                Join, StarSchema, TableStats, load_catalog,
                                load_catalog_file, pages_of)


def small_catalog(**overrides):
    doc = {
        "page_size": 4096,
        "tables": [
            {"name": "F", "role": "fact", "rows": 1000, "tuple_width": 40},
            {"name": "D", "role": "dimension", "rows": 10, "tuple_width": 20},
        ],
        "attributes": [
            {"table": "F", "name": "fk", "cardinality": 10},
            {"table": "D", "name": "k", "is_key": True},
            {"table": "D", "name": "color", "cardinality": 4},
        ],
        "joins": [{"fact_attr": "F.fk", "dim_attr": "D.k"}],
    }
    doc.update(overrides)
    return doc


def test_load_small_catalog():
    s = load_catalog(json.dumps(small_catalog()))
    assert s.fact.name == "F"
    assert s.table_pages("F") == math.ceil(1000 * 40 / 4096)
    assert s.attribute("D.k").cardinality == 10  # keys default to row count
    assert s.is_indexable(s.attribute("D.color"))
    assert not s.is_indexable(s.attribute("D.k"))
    assert not s.is_indexable(s.attribute("F.fk"))


def test_per_column_tables():
    """``names``, ``cards``, ``on_table`` and ``indexable`` read per column
    id what ``attributes`` and ``is_indexable`` say, on a catalog declared
    out of name order, with a dotted table name next to its prefix table."""
    s = load_catalog(json.dumps({
        "page_size": 4096,
        "tables": [
            {"name": "d.b", "role": "dimension", "rows": 50, "tuple_width": 8},
            {"name": "F", "role": "fact", "rows": 1000, "tuple_width": 40},
            {"name": "d", "role": "dimension", "rows": 20, "tuple_width": 8}],
        "attributes": [
            {"table": "d", "name": "z", "cardinality": 9},
            {"table": "F", "name": "fk2", "cardinality": 50},
            {"table": "d.b", "name": "c", "cardinality": 4},
            {"table": "d", "name": "k1", "is_key": True},
            {"table": "F", "name": "fk1", "cardinality": 20},
            {"table": "F", "name": "amount", "cardinality": 300},
            {"table": "d.b", "name": "k2", "is_key": True},
            {"table": "d", "name": "a", "cardinality": 3}],
        "joins": [{"fact_attr": "F.fk1", "dim_attr": "d.k1"},
                  {"fact_attr": "F.fk2", "dim_attr": "d.b.k2"}]}))
    assert s.names == ("", "d.z", "F.fk2", "d.b.c", "d.k1", "F.fk1",
                       "F.amount", "d.b.k2", "d.a")
    assert s.cards == (0, 9, 50, 4, 20, 20, 300, 50, 3)
    assert s.on_table == {"d.b": 0b10001000, "F": 0b01100100,
                          "d": 0b100010010}
    assert s.indexable == 0b100001010
    for i, a in enumerate(s.attributes, 1):
        assert (s.names[i], s.cards[i]) == (a.qualified, a.cardinality)
        assert s.on_table[a.table] >> i & 1
        assert (s.indexable >> i & 1) == s.is_indexable(a)
    assert sum(m.bit_count() for m in s.on_table.values()) == 8


def test_pages_explicit_wins():
    t = TableStats("T", "dimension", rows=100, tuple_width=10, pages=7)
    assert pages_of(t, 4096) == 7
    t2 = TableStats("T", "dimension", rows=0, tuple_width=10)
    assert pages_of(t2, 4096) == 0


@given(rows=st.integers(1, MAX_CATALOG_INT), width=st.integers(1, 512),
       ps=st.integers(1, 10**6))
@example(rows=2**60 + 1, width=1, ps=4096)   # past float precision
def test_pages_of_bounds(rows, width, ps):
    t = TableStats("T", "dimension", rows=rows, tuple_width=width)
    p = pages_of(t, ps)
    assert p >= 1
    assert (p - 1) * ps < rows * width <= p * ps


def test_requires_exactly_one_fact():
    doc = small_catalog()
    doc["tables"][1]["role"] = "fact"
    with pytest.raises(CatalogError):
        load_catalog(json.dumps(doc))


def test_dimension_without_join_path():
    doc = small_catalog(joins=[])
    with pytest.raises(CatalogError,
                       match="no join path from fact table F to D"):
        load_catalog(json.dumps(doc))


def test_missing_page_size():
    doc = small_catalog()
    del doc["page_size"]
    with pytest.raises(CatalogError):
        load_catalog(json.dumps(doc))


def _drop(section, key):
    doc = small_catalog()
    del doc[section][-1][key]
    return doc


def _set(section, **values):
    doc = small_catalog()
    doc[section][-1].update(values)
    return doc


def _add(section, entry):
    doc = small_catalog()
    doc[section].append(entry)
    return doc


# one single-fault document per catalog rule, with the rule's message; a
# str is the catalog text as it stands, any other value is dumped to JSON
@pytest.mark.parametrize("doc, message", [
    ("{", "catalog is not valid JSON: "),
    ("[" * 100_000, "catalog is nested too deeply"),
    (["page_size"], "catalog must be a JSON object"),
    (small_catalog(pagesize=4096), "catalog: unknown key 'pagesize'"),
    ({k: v for k, v in small_catalog().items() if k != "page_size"},
     "missing page_size"),
    (small_catalog(tables="x"), "catalog tables must be a list of objects"),
    (_drop("tables", "rows"), "table #2: missing key 'rows'"),
    (_drop("tables", "name"), "table #2: missing key 'name'"),
    (_drop("attributes", "name"), "attribute #3: missing key 'name'"),
    (_drop("joins", "dim_attr"), "join #1: missing key 'dim_attr'"),
    (_set("tables", name={}), "table #2: name must be a string, not {}"),
    (_set("tables", pagse=4102), "table D: unknown key 'pagse'"),
    (_set("attributes", table=5), "attribute #3: table must be a string, not 5"),
    (_set("attributes", name=["color"]),
     "attribute #3: name must be a string, not ['color']"),
    (_set("attributes", is_kye=True), "attribute D.color: unknown key 'is_kye'"),
    (_set("joins", fact_attr=1), "join #1: fact_attr must be a string, not 1"),
    (_set("joins", dim_attr=None),
     "join #1: dim_attr must be a string, not None"),
    (_set("joins", kind="inner"), "join F.fk = D.k: unknown key 'kind'"),
    (small_catalog(page_size="abc"), "page_size must be an integer, not 'abc'"),
    (_set("tables", rows=True), "rows must be an integer, not True"),
    (_set("tables", rows=1.5), "rows must be an integer, not 1.5"),
    (_set("tables", rows="10"), "rows must be an integer, not '10'"),
    (_set("tables", rows=2**63), "rows out of the signed 64-bit range"),
    (small_catalog(page_size=0), "missing or invalid page_size"),
    (small_catalog(rowid_bits=0), "rowid_bits must be positive"),
    (_set("tables", role="cube"), "table D: unknown role 'cube'"),
    (_set("tables", rows=-1), "table D: negative row count"),
    (_set("tables", tuple_width=0), "table D: tuple width must be positive"),
    (_set("tables", pages=0), "table D: pages must be >= 1"),
    (_set("tables", rows=0, pages=-500), "table D: pages must be >= 0"),
    (_add("tables", {"name": "D", "role": "dimension", "rows": 1,
                     "tuple_width": 1}), "duplicate table D"),
    (_add("tables", {"name": "d", "role": "dimension", "rows": 1,
                     "tuple_width": 1}), "duplicate table d"),
    (_set("tables", role="fact"),
     "exactly one fact table required, found ['F', 'D']"),
    (_set("attributes", table="E"), "attribute E.color: unknown table E"),
    (_set("attributes", is_key="false"),
     "attribute D.color: is_key must be true or false, not 'false'"),
    (_drop("attributes", "cardinality"),
     "attribute D.color: cardinality required"),
    (_set("attributes", cardinality=0), "attribute D.color: cardinality < 1"),
    (_set("attributes", cardinality=-2, is_key=True),
     "attribute D.color: cardinality < 1"),
    (_add("attributes", {"table": "d", "name": "COLOR", "cardinality": 4}),
     "duplicate attribute D.COLOR"),
    (_set("joins", dim_attr="D.nope"), "join F.fk = D.nope: unknown endpoint"),
    (_set("joins", fact_attr="D.color"),
     "join D.color = D.k is self-referential"),
    (_add("joins", {"fact_attr": "D.k", "dim_attr": "F.fk"}),
     "join dim side F.fk is not on a dimension"),
    (_set("joins", dim_attr="D.color"), "join dim side D.color must be a key"),
    (small_catalog(joins=[]), "no join path from fact table F to D"),
], ids=["not-json", "nested-too-deeply", "not-an-object",
        "unknown-catalog-key", "no-page-size",
        "tables-not-a-list", "table-without-rows", "table-without-name",
        "attribute-without-name", "join-without-dim_attr",
        "table-name-not-a-string", "unknown-table-key",
        "attribute-table-not-a-string", "attribute-name-not-a-string",
        "unknown-attribute-key", "join-fact-attr-not-a-string",
        "join-dim-attr-not-a-string", "unknown-join-key",
        "page-size-not-a-number",
        "rows-is-boolean", "rows-is-fraction", "rows-is-string",
        "rows-past-64-bits", "page-size-zero", "rowid-bits-zero",
        "unknown-role", "negative-rows", "zero-tuple-width", "zero-pages",
        "negative-pages-on-empty-table",
        "duplicate-table", "duplicate-table-in-another-case", "two-facts",
        "attribute-on-unknown-table", "is-key-is-string",
        "no-cardinality-on-a-non-key", "zero-cardinality",
        "negative-key-cardinality", "duplicate-attribute-in-another-case",
        "join-to-unknown-attribute", "self-referential-join",
        "join-to-the-fact-table", "join-to-a-non-key", "no-join-path"])
def test_malformed_catalog_is_input_error(doc, message, tmp_path, capsys):
    text = doc if isinstance(doc, str) else json.dumps(doc)
    with pytest.raises(CatalogError, match=re.escape(message)):
        load_catalog(text)
    cat = tmp_path / "catalog.json"
    cat.write_text(text)
    assert cli.main(["advise", "--catalog", str(cat),
                     "--workload", str(data_path("ssb.sql")),
                     "--out", str(tmp_path / "out")]) == 2
    assert f"input error: {message}" in capsys.readouterr().err


def test_duplicate_attribute():
    doc = small_catalog()
    doc["attributes"].append({"table": "D", "name": "color", "cardinality": 4})
    with pytest.raises(CatalogError):
        load_catalog(json.dumps(doc))


def test_join_dim_side_must_be_key():
    doc = small_catalog()
    doc["joins"] = [{"fact_attr": "F.fk", "dim_attr": "D.color"}]
    with pytest.raises(CatalogError):
        load_catalog(json.dumps(doc))


def test_cardinality_above_rows_warns_not_raises(caplog):
    doc = small_catalog()
    doc["attributes"][0]["cardinality"] = 10**9
    s = load_catalog(json.dumps(doc))  # must not raise
    assert s.attribute("F.fk").cardinality == 10**9


def test_names_resolve_case_insensitively():
    s = load_catalog_file(data_path("tpch.json"))
    assert s.names[s.ids_by_name["n_name"]] == "NATION.N_NAME"
    i = s.ids_by_column["LINEITEM", "l_shipdate"]
    assert s.names[i] == "LINEITEM.L_SHIPDATE"
    assert s.attribute("lineitem.L_shipdate") is s.attributes[i - 1]
    assert "no_such_column" not in s.ids_by_name
    with pytest.raises(CatalogError, match="unknown attribute LINEITEM.nope"):
        s.attribute("LINEITEM.nope")


def test_join_path_snowflake():
    s = load_catalog_file(data_path("tpch.json"))
    path = s.join_path("NATION")
    assert path is not None
    tables = [s.attribute(j.dim_attr).table for j in path]
    assert tables[-1] == "NATION"
    assert len(path) == 2  # through supplier or customer
    assert s.join_path("ORDERS") is not None and len(s.join_path("ORDERS")) == 1
    assert s.join_path("REGION") is not None and len(s.join_path("REGION")) == 3


def test_bundled_catalog_shapes():
    ssb = load_catalog_file(data_path("ssb.json"))
    assert len(ssb.attributes) == 57
    assert sum(a.is_key for a in ssb.attributes) == 9
    tpch = load_catalog_file(data_path("tpch.json"))
    assert len(tpch.attributes) == 61
    assert sum(a.is_key for a in tpch.attributes) == 15
    assert tpch.fact.name == "LINEITEM"


# ---------------------------------------------------------------------------
# resolved lookup tables against linear-scan oracles
# ---------------------------------------------------------------------------

BUNDLED = {name: load_catalog_file(data_path(name + ".json"))
           for name in ("example_star", "ssb", "tpch")}
# each bundled catalog's document, whose joins the join-path oracle reads
DOCS = {name: json.loads(data_path(name + ".json").read_text())
        for name in BUNDLED}


def scan_attributes(s, name):
    """Every attribute named ``name``, in declaration order."""
    return [a for a in s.attributes if a.name.lower() == name.lower()]


def scan_table(s, name):
    return next((t for t in s.tables if t.lower() == name.lower()), None)


def bfs_join_path(s, doc, dim):
    """Shortest chain of the joins ``doc``, the catalog document of ``s``,
    declares from the fact table to ``dim``, each join spelt with the
    declared attribute names."""
    def declared(q):
        return next(a for a in s.attributes if a.qualified.lower() == q.lower())

    fact = next(t.name for t in s.tables.values() if t.role == "fact")
    paths = {fact: []}
    queue = [fact]
    for table in queue:
        for j in doc["joins"]:
            src, dst = declared(j["fact_attr"]), declared(j["dim_attr"])
            if src.table == table and dst.table not in paths:
                paths[dst.table] = paths[table] + [
                    Join(src.qualified, dst.qualified)]
                queue.append(dst.table)
    return paths.get(dim)


def recased(data, text):
    """``text`` with the case of each letter drawn at random."""
    flips = data.draw(st.lists(st.booleans(), min_size=len(text),
                               max_size=len(text)))
    return "".join(c.upper() if f else c.lower() for c, f in zip(text, flips))


@given(data=st.data())
def test_resolved_lookups_match_linear_scans(data):
    catalog = data.draw(st.sampled_from(sorted(BUNDLED)))
    s, doc = BUNDLED[catalog], DOCS[catalog]
    a = data.draw(st.sampled_from(s.attributes))
    name, table = recased(data, a.name), recased(data, a.table)
    assert s.attribute(f"{table}.{name}") is a
    assert s.find_table(table) == scan_table(s, table) == a.table
    i = s.ids_by_column[s.find_table(table), name.lower()]
    assert s.attributes[i - 1] is a
    hits = scan_attributes(s, name)
    assert s.ids_by_name.get(name.lower()) == (i if len(hits) == 1 else None)
    assert s.table_pages(a.table) == pages_of(s.tables[a.table], s.page_size)
    assert s.join_path(a.table) == bfs_join_path(s, doc, a.table)


def test_ambiguous_names_exist_in_example_catalog():
    """``ids_by_name`` holds exactly the bare names only one table has, so
    the example catalog's shared CUST_ID is not in it."""
    s = BUNDLED["example_star"]
    assert [a.qualified for a in scan_attributes(s, "CUST_ID")] == \
        ["SALES.cust_id", "CUSTOMERS.cust_id"]
    assert "cust_id" not in s.ids_by_name
    for s in BUNDLED.values():
        assert s.ids_by_name == {
            a.name.lower(): i for i, a in enumerate(s.attributes, 1)
            if len(scan_attributes(s, a.name)) == 1}


def test_catalog_names_match_case_insensitively():
    doc = small_catalog()
    doc["attributes"][2]["table"] = "d"
    doc["joins"] = [{"fact_attr": "f.FK", "dim_attr": "d.K"}]
    s = load_catalog(json.dumps(doc))
    assert s.names[s.ids_by_name["color"]] == "D.color"
    assert s.attribute("d.COLOR") is \
        s.attributes[s.ids_by_column["D", "color"] - 1]
    assert s.join_path("D") == [Join("F.fk", "D.k")]
    doc["tables"].append({"name": "d", "role": "dimension", "rows": 1,
                          "tuple_width": 1})
    with pytest.raises(CatalogError, match="duplicate table d"):
        load_catalog(json.dumps(doc))


def test_catalog_numbers_fit_64_bits():
    doc = small_catalog()
    doc["tables"][0]["rows"] = 2**63 - 1
    assert load_catalog(json.dumps(doc)).fact.rows == 2**63 - 1
    doc["tables"][0]["rows"] = 2**63
    with pytest.raises(CatalogError, match="rows out of the signed 64-bit"):
        load_catalog(json.dumps(doc))


def test_number_too_long_is_catalog_error():
    # json.loads refuses integers longer than int() reads, with a ValueError
    with pytest.raises(CatalogError):
        load_catalog('{"page_size": ' + "1" * 5000 + "}")


# ---------------------------------------------------------------------------
# fuzzing the catalog input
# ---------------------------------------------------------------------------

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(2**62, 10**400)
    | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)

_EXAMPLE = json.loads(data_path("example_star.json").read_text())


@st.composite
def _mutated_example(draw):
    """The bundled example catalog with one value, at any depth, dropped or
    replaced by any JSON value: mostly documents that pass the first checks
    and fail deeper, or load."""
    doc = json.loads(json.dumps(_EXAMPLE))
    node = doc
    while True:
        key = draw(st.sampled_from(
            sorted(node) if isinstance(node, dict) else range(len(node))))
        if isinstance(node[key], (dict, list)) and node[key] \
                and draw(st.booleans()):
            node = node[key]
        elif isinstance(node, dict) and draw(st.booleans()):
            del node[key]
            return doc
        else:
            node[key] = draw(_JSON)
            return doc


_CATALOGS = _JSON | _mutated_example()


@settings(max_examples=300, deadline=None)
@given(_CATALOGS)
def test_load_catalog_returns_or_raises_catalog_error(doc):
    try:
        schema = load_catalog(json.dumps(doc))
    except CatalogError:
        return
    assert isinstance(schema, StarSchema)


@settings(max_examples=60, deadline=None)
@given(_mutated_example())
def test_main_on_fuzzed_catalog_returns_exit_code(doc):
    with tempfile.TemporaryDirectory() as tmp:
        cat = Path(tmp) / "catalog.json"
        cat.write_text(json.dumps(doc))
        code = cli.main(["compare", "--catalog", str(cat),
                         "--workload", str(data_path("example_star.sql")),
                         "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2, 3)
