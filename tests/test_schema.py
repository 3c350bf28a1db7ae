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
