"""Catalog loading, validation and page arithmetic."""

import json
import math

import pytest
from hypothesis import given, strategies as st

from bji_advisor import cli, data_path
from bji_advisor.schema import (AttributeStats, CatalogError, Join, StarSchema,
                                TableStats, load_catalog, load_catalog_file,
                                pages_of)


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


def test_pages_explicit_wins():
    t = TableStats("T", "dimension", rows=100, tuple_width=10, pages=7)
    assert pages_of(t, 4096) == 7
    t2 = TableStats("T", "dimension", rows=0, tuple_width=10)
    assert pages_of(t2, 4096) == 0


@given(rows=st.integers(1, 10**7), width=st.integers(1, 512),
       ps=st.integers(1, 10**6))
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


def test_missing_page_size():
    doc = small_catalog()
    del doc["page_size"]
    with pytest.raises(CatalogError):
        load_catalog(json.dumps(doc))


def _drop(section, key):
    doc = small_catalog()
    del doc[section][-1][key]
    return doc


@pytest.mark.parametrize("doc", [
    _drop("tables", "rows"),
    small_catalog(tables="x"),
    _drop("joins", "dim_attr"),
    ["page_size"],
], ids=["table-without-rows", "tables-not-a-list", "join-without-dim_attr",
        "not-an-object"])
def test_malformed_catalog_is_input_error(doc, tmp_path, capsys):
    text = json.dumps(doc)
    with pytest.raises(CatalogError):
        load_catalog(text)
    cat = tmp_path / "catalog.json"
    cat.write_text(text)
    assert cli.main(["advise", "--catalog", str(cat),
                     "--workload", str(data_path("ssb.sql")),
                     "--out", str(tmp_path / "out")]) == 2
    assert "input error" in capsys.readouterr().err


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


def test_find_attribute_case_insensitive_and_ambiguity():
    s = load_catalog_file(data_path("tpch.json"))
    assert s.find_attribute("n_name").qualified == "NATION.N_NAME"
    assert s.find_attribute("L_SHIPDATE").table == "LINEITEM"
    with pytest.raises(CatalogError):
        s.find_attribute("no_such_column")


def test_join_path_snowflake():
    s = load_catalog_file(data_path("tpch.json"))
    path = s.join_path("NATION")
    assert path is not None
    tables = [s.attribute(j.dim_attr).table for j in path]
    assert tables[-1] == "NATION"
    assert len(path) == 2  # through supplier or customer
    assert s.join_path("ORDERS") is not None and len(s.join_path("ORDERS")) == 1
    assert s.join_path("REGION") is not None and len(s.join_path("REGION")) == 3


def test_round_trip():
    s = load_catalog_file(data_path("ssb.json"))
    s2 = load_catalog(json.dumps(s.to_document()))
    assert [a.qualified for a in s2.attributes] == \
        [a.qualified for a in s.attributes]
    assert s2.page_size == s.page_size
    assert len(s2.joins) == len(s.joins)


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


def scan_attributes(s, name):
    """Every attribute named ``name``, in declaration order."""
    return [a for a in s.attributes if a.name.lower() == name.lower()]


def scan_table(s, name):
    return next((t for t in s.tables if t.lower() == name.lower()), None)


def bfs_join_path(s, dim):
    """Shortest chain of declared joins from the fact table to ``dim``, each
    join spelt with the declared attribute names."""
    def declared(q):
        return next(a for a in s.attributes if a.qualified.lower() == q.lower())

    fact = next(t.name for t in s.tables.values() if t.role == "fact")
    paths = {fact: []}
    queue = [fact]
    for table in queue:
        for j in s.joins:
            src, dst = declared(j.fact_attr), declared(j.dim_attr)
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
    s = BUNDLED[data.draw(st.sampled_from(sorted(BUNDLED)))]
    a = data.draw(st.sampled_from(s.attributes))
    name, table = recased(data, a.name), recased(data, a.table)
    assert s.attribute(f"{table}.{name}") is a
    assert s.find_attribute(name, table) is a
    assert s.find_table(table) == scan_table(s, table) == a.table
    hits = scan_attributes(s, name)
    if len(hits) == 1:
        assert s.find_attribute(name) is hits[0] is a
    else:
        with pytest.raises(CatalogError) as err:
            s.find_attribute(name)
        assert str(err.value) == f"ambiguous attribute {name}: " + \
            ", ".join(h.qualified for h in hits)
    assert s.table_pages(a.table) == pages_of(s.tables[a.table], s.page_size)
    assert s.join_path(a.table) == bfs_join_path(s, a.table)


def test_ambiguous_names_exist_in_example_catalog():
    s = BUNDLED["example_star"]
    assert [a.qualified for a in scan_attributes(s, "CUST_ID")] == \
        ["SALES.cust_id", "CUSTOMERS.cust_id"]
    with pytest.raises(CatalogError, match="SALES.cust_id, CUSTOMERS.cust_id"):
        s.find_attribute("CUST_ID")


def test_catalog_names_match_case_insensitively():
    doc = small_catalog()
    doc["attributes"][2]["table"] = "d"
    doc["joins"] = [{"fact_attr": "f.FK", "dim_attr": "d.K"}]
    s = load_catalog(json.dumps(doc))
    assert s.find_attribute("COLOR").qualified == "D.color"
    assert s.join_path("D") == [Join("F.fk", "D.k")]
    doc["tables"].append({"name": "d", "role": "dimension", "rows": 1,
                          "tuple_width": 1})
    with pytest.raises(CatalogError, match="duplicate table d"):
        load_catalog(json.dumps(doc))
