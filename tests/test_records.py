"""The immutable records: assignment, keyword construction, defaults and
the checks made when a record is built.  The catalog's values are checked
as the catalog is read (``test_schema.test_malformed_catalog_is_input_error``),
not by its records."""

import pytest

from bji_advisor import data_path
from bji_advisor.costmodel import WorkloadPlan
from bji_advisor.engine import BitmapJoinIndex, EngineError, MiniTable
from bji_advisor.hypergraph import Hypergraph
from bji_advisor.schema import (AttributeStats, Join, TableStats,
                                load_catalog_file)
from bji_advisor.selection import Configuration, ScoredMotif
from bji_advisor.workload import (ContextMatrix, ParsedQuery,
                                  build_context_matrix, parse_workload)


def records():
    schema = load_catalog_file(data_path("example_star.json"))
    queries = parse_workload(data_path("example_star.sql").read_text(), schema)
    matrix = build_context_matrix(schema, queries)
    motif = ScoredMotif(ids=(1,), fitness=0.5, afc=3, support=1.0,
                        selected=True)
    return [
        matrix.hypergraph(), queries[0], matrix,
        WorkloadPlan(schema, queries).plans[0], motif,
        Configuration(engine="close", attrs=("T.a",), trace=(motif,)),
        schema.fact, schema.attributes[0], schema.links[0][2],
        MiniTable("T", ("a",), (("1",),)),
        BitmapJoinIndex(bitmaps={"x": 1}, n_rows=1),
    ]


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_records_reject_attribute_assignment(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_keyword_construction_and_defaults():
    assert Configuration(engine="tm-ijb", attrs=(), trace=()).notes == ()
    t = TableStats(name="T", role="dimension", rows=5, tuple_width=4)
    assert t.pages is None
    assert TableStats("T", "dimension", 5, 4, pages=2).pages == 2
    a = AttributeStats(table="T", name="a", cardinality=3)
    assert a.is_key is False and a.qualified == "T.a"
    assert Join(fact_attr="F.k", dim_attr="D.k") == Join("F.k", "D.k")
    q = ParsedQuery(id=1, referenced=2, predicates=())
    assert (q.id, q.referenced, q.predicates) == (1, 2, ())
    h = Hypergraph.from_edges([0b110, 0b010])
    assert h == Hypergraph(vertices=(1, 2), edges=(0b010,), vertex_mask=0b110,
                           incidence=(0, 1, 0))
    m = ContextMatrix(queries=(q,), columns=("T.a",), rows=(2,))
    assert m.support((1,)) == 1.0


@pytest.mark.parametrize("build, message", [
    (lambda: MiniTable("T", ("a", "A"), ()), "duplicate column names"),
    (lambda: MiniTable(name="T", columns=("a", "b"), rows=(("1",),)),
     "row arity mismatch"),
])
def test_mini_table_checks_its_values(build, message):
    with pytest.raises(EngineError, match=message):
        build()
