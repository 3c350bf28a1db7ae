"""CLI behavior: exit codes, reports, determinism, DDL."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bji_advisor import cli, costmodel, data_path, selection
from bji_advisor.engine import evaluate
from bji_advisor.hypergraph import berge_enumerate, smallest_transversals
from bji_advisor.schema import (DEFAULT_ROWID_BITS, MAX_CATALOG_INT,
                                load_catalog_file)
from bji_advisor.workload import (ContextMatrix, ParsedQuery,
                                  build_context_matrix, parse_workload)

CAT = str(data_path("ssb.json"))
WL = str(data_path("ssb.sql"))


def run(args, capsys=None):
    code = cli.main(args)
    return code


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_advise_writes_reports(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["advise", "--catalog", CAT, "--workload", WL,
                "--engine", "tm-ijb", "--out", str(out)]) == 0
    assert (out / "trace.json").exists()
    assert (out / "report.txt").exists()
    assert (out / "metadata.json").exists()
    ddl = (out / "tm-ijb.sql").read_text()
    assert "CREATE BITMAP INDEX" in ddl
    assert "dates.d_year" in ddl and "part.p_brand" in ddl
    assert ddl.count("CREATE BITMAP INDEX") == 2
    trace = json.loads((out / "trace.json").read_text())
    assert trace["engines"]["tm-ijb"]["configuration"] == \
        ["dates.d_year", "part.p_brand"]
    assert len(trace["matrix"]["columns"]) == 57


def test_ddl_statements_cover_config_exactly():
    schema = load_catalog_file(CAT)
    stmts = cli.ddl_statements(schema, ["dates.d_year", "part.p_brand"])
    assert len(stmts) == 2
    assert "ON lineorder(dates.d_year)" in stmts[0]
    assert "WHERE lineorder.lo_orderdate = dates.d_datekey" in stmts[0]


def test_ddl_index_names_are_distinct(tmp_path):
    """``A_B.C`` and ``A.B_C`` both spell ``f_a_b_c_idx``: the second one
    taken gets its column id, and a name that does not collide keeps its
    spelling."""
    doc = {"page_size": 4096, "tables": [
        {"name": "F", "role": "fact", "rows": 1000, "tuple_width": 40},
        {"name": "A_B", "role": "dimension", "rows": 10, "tuple_width": 20},
        {"name": "A", "role": "dimension", "rows": 10, "tuple_width": 20}],
        "attributes": [
            {"table": "F", "name": "fk1", "cardinality": 10},
            {"table": "F", "name": "fk2", "cardinality": 10},
            {"table": "A_B", "name": "k", "is_key": True},
            {"table": "A_B", "name": "C", "cardinality": 4},
            {"table": "A", "name": "k", "is_key": True},
            {"table": "A", "name": "B_C", "cardinality": 5}],
        "joins": [{"fact_attr": "F.fk1", "dim_attr": "A_B.k"},
                  {"fact_attr": "F.fk2", "dim_attr": "A.k"}]}
    cat = tmp_path / "c.json"
    cat.write_text(json.dumps(doc))
    schema = load_catalog_file(str(cat))
    stmts = cli.ddl_statements(schema, ["A_B.C", "A.B_C", "A.k"])
    assert [s.split("\n")[0] for s in stmts] == [    # in name order
        "CREATE BITMAP INDEX f_a_b_c_idx",
        "CREATE BITMAP INDEX f_a_k_idx",
        f"CREATE BITMAP INDEX f_a_b_c_{schema.column_id('A_B.C')}_idx"]
    # through advise: close selects both colliding attributes
    wl = tmp_path / "w.sql"
    wl.write_text("SELECT * FROM F, A_B, A WHERE F.fk1 = A_B.k "
                  "AND F.fk2 = A.k AND A_B.C = 1 AND A.B_C = 2;\n")
    out = tmp_path / "o"
    assert run(["advise", "--engine", "close", "--catalog", str(cat),
                "--workload", str(wl), "--out", str(out)]) == 0
    assert [line for line in (out / "close.sql").read_text().splitlines()
            if line.startswith("CREATE")] == [stmts[0].split("\n")[0],
                                               stmts[2].split("\n")[0]]


def test_ddl_snowflake_chains_path():
    schema = load_catalog_file(str(data_path("tpch.json")))
    stmts = cli.ddl_statements(schema, ["NATION.N_NAME"])
    (stmt,) = stmts
    assert "FROM LINEITEM," in stmt
    assert "NATION" in stmt
    assert stmt.count("=") == 2  # two chained join conditions


def test_compare_outputs_and_summary(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["compare", "--catalog", CAT, "--workload", WL,
                "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "minimum-cost engine:" in printed
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[0] == "engine,total_cost,storage_bytes,reduction_rate"
    assert lines[1].startswith("baseline,")
    assert len(lines) == 5  # header + baseline + three engines


def test_compare_single_engine_usage_error(tmp_path):
    assert run(["compare", "--catalog", CAT, "--workload", WL,
                "--engine", "tm-ijb", "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("command", ["advise", "compare"])
def test_repeated_engine_usage_error(command, tmp_path, capsys):
    out = tmp_path / "o"
    assert run([command, "--catalog", CAT, "--workload", WL,
                "--engine", "tm-ijb,tm-ijb", "--out", str(out)]) == 1
    assert "more than once" in capsys.readouterr().err
    assert not out.exists()


def test_compare_has_no_format_option(tmp_path, capsys):
    assert run(["compare", "--catalog", CAT, "--workload", WL,
                "--format", "json", "--out", str(tmp_path)]) == 1
    assert "--format" in capsys.readouterr().err


def test_unknown_engine_usage_error(tmp_path):
    assert run(["advise", "--catalog", CAT, "--workload", WL,
                "--engine", "wat", "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("engine", [",", ""])
@pytest.mark.parametrize("command", ["advise", "compare"])
def test_no_engine_named_usage_error(command, engine, tmp_path, capsys):
    out = tmp_path / "o"
    assert run([command, "--catalog", CAT, "--workload", WL,
                "--engine", engine, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"usage error: no engine named in {engine!r}; "
        f"choose from {cli.ENGINES}\n")
    assert not out.exists()


def parse(parser, argv):
    """What ``parser`` makes of ``argv``: its help text, its usage error
    message, or the function it would run and its options, as a dict."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            args = vars(parser.parse_args(argv))
            args.pop("command", None)   # only the top-level parser sets it
            return args
    except SystemExit:
        return out.getvalue()
    except cli.UsageError as exc:
        return f"usage error: {exc}"


INPUTS = ["--catalog", "c.json", "--workload", "w.sql"]


PARSER_CASES = [
    ["advise", "-h"], ["compare", "--help"], ["enumerate", "-h"],
    ["demo", "-h"],
    ["advise"], ["compare", "--catalog", "c.json"], ["enumerate"],
    ["advise", *INPUTS, "--minsup", "x"],
    ["compare", *INPUTS, "--minsup", ""],
    ["advise", *INPUTS, "--storage-budget", "1.5"],
    ["advise", *INPUTS, "--format", "xml"],
    ["demo", "--rows", "x"], ["demo", "--rows"],
    ["advise", *INPUTS, "--bogus"], ["compare", *INPUTS, "--format", "json"],
    ["enumerate", *INPUTS, "--minsup", "0.5"], ["demo", "extra"],
    ["advise", *INPUTS], ["enumerate", *INPUTS, "--all"], ["demo"],
]


def assert_one_command_parser_acts_as_the_full_parser(argv):
    one, full = cli._build_parser(argv), cli._build_parser()
    got = parse(one, argv[1:])
    assert got == parse(full, argv)
    if isinstance(got, dict):
        assert got["func"] is getattr(cli, f"cmd_{argv[0]}")
    else:
        assert got.startswith("usage")
    # the one-command parser holds that command only
    assert one.prog == f"bji-advisor {argv[0]}"
    (flags,) = [[f for f, _ in c[2]] for c in cli._COMMANDS if c[0] == argv[0]]
    assert sorted(s for a in one._actions for s in a.option_strings) == \
        sorted(["-h", "--help", *flags])


@pytest.mark.parametrize("argv", PARSER_CASES)
def test_one_command_parser_acts_as_the_full_parser(argv):
    assert_one_command_parser_acts_as_the_full_parser(argv)


@pytest.mark.parametrize("columns", ["40", "200"])
def test_one_command_parser_wraps_help_as_the_full_parser(columns,
                                                          monkeypatch):
    monkeypatch.setenv("COLUMNS", columns)
    for argv in PARSER_CASES:
        assert_one_command_parser_acts_as_the_full_parser(argv)


def test_a_named_command_builds_one_parser(monkeypatch, capsys):
    built = []
    init = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    assert run(["demo", "--rows", "3"]) == 0
    assert built == ["bji-advisor demo"]


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["--"], "the following arguments are required: command"),
    (["wat"], "invalid choice: 'wat' (choose from "),
])
def test_no_command_lists_every_command(argv, message, capsys):
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert message in err
    assert all(f"'{c}'" in err
               for c in ("advise", "compare", "enumerate", "demo"))
    help_text = parse(cli._build_parser(["-h"]), ["-h"])
    assert "{advise,compare,enumerate,demo}" in help_text


def test_a_leading_double_dash_is_dropped(tmp_path, capsys):
    """``-- advise`` runs ``advise``: the same stdout and files, and
    ``metadata.json`` records the arguments as given."""
    printed, files = [], []
    for lead in ([], ["--"]):
        out = tmp_path / f"o{len(lead)}"
        argv = lead + ["advise", "--catalog", CAT, "--workload", WL,
                       "--out", str(out)]
        assert run(argv) == 0
        printed.append(capsys.readouterr().out)
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["argv"] == argv
        files.append({p.name: p.read_bytes() for p in out.iterdir()
                      if p.name != "metadata.json"})
    assert printed[0] == printed[1]
    assert files[0] == files[1] and "trace.json" in files[0]


def test_bad_minsup_usage_error(tmp_path):
    assert run(["advise", "--catalog", CAT, "--workload", WL,
                "--minsup", "0", "--out", str(tmp_path)]) == 1


def test_negative_storage_budget_usage_error(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["compare", "--catalog", CAT, "--workload", WL,
                "--storage-budget", "-5", "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        "usage error: --storage-budget must be >= 0\n"
    assert not out.exists()


def test_unreachable_dimension_input_error(tmp_path, capsys):
    # without its join, CHANNELS has no join path, and no DDL could index it
    doc = json.loads(data_path("example_star.json").read_text())
    doc["joins"] = [j for j in doc["joins"]
                    if not j["dim_attr"].startswith("CHANNELS.")]
    cat = tmp_path / "catalog.json"
    cat.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert run(["advise", "--catalog", str(cat),
                "--workload", str(data_path("example_star.sql")),
                "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "input error: no join path from fact table SALES to CHANNELS\n"
    assert not out.exists()


def test_missing_catalog_input_error(tmp_path):
    assert run(["advise", "--catalog", str(tmp_path / "nope.json"),
                "--workload", WL, "--out", str(tmp_path)]) == 2


def test_invalid_workload_input_error(tmp_path):
    bad = tmp_path / "w.sql"
    bad.write_text("Q1 - select 1 from nowhere where x = 1\n")
    assert run(["advise", "--catalog", CAT, "--workload", str(bad),
                "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("text, message", [
    ("select x from t where a = 1\n\nQ1 - select 2\n",
     "text before the first query header: 'select x from t where a = 1'"),
    ("Q1 - select 1 from lineorder where lo_quantity < 5\n"
     "Q1 - select 1 from lineorder where lo_discount = 2\n",
     "query id Q1 appears more than once")])
def test_malformed_headers_input_error(text, message, tmp_path, capsys):
    bad = tmp_path / "w.sql"
    bad.write_text(text)
    assert run(["advise", "--catalog", CAT, "--workload", str(bad),
                "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


@pytest.mark.parametrize("query, qualifier", [
    ("select 1 from lineorder L where zz.lo_quantity = 3 and lo_discount = 1",
     "zz"),
    ("select 1 from lineorder where lineordr.lo_quantity = 3", "lineordr"),
    ("select 1 from lineorder join dates on lo_orderdate = dats.d_datekey",
     "dats")])
def test_unknown_qualifier_input_error(query, qualifier, tmp_path, capsys):
    # a mistyped alias or table once dropped its predicate without a word
    bad = tmp_path / "w.sql"
    bad.write_text(f"Q1 - {query}\n")
    out = tmp_path / "o"
    assert run(["advise", "--catalog", CAT, "--workload", str(bad),
                "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"input error: query 1: unknown table '{qualifier}'\n"
    assert not out.exists()


def test_drop_other_than_view_input_error(tmp_path, capsys):
    # once dropped as a query that references no attribute, with exit 0
    bad = tmp_path / "w.sql"
    bad.write_text("Q1 - drop table lineorder\n"
                   "Q2 - select 1 from lineorder where lo_quantity = 3\n")
    out = tmp_path / "o"
    assert run(["advise", "--catalog", CAT, "--workload", str(bad),
                "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "input error: query 1: only DROP VIEW is supported\n"
    assert not out.exists()


def test_statement_after_order_by_input_error(tmp_path, capsys):
    # once swallowed by the ORDER BY's skip, with exit 0
    bad = tmp_path / "w.sql"
    bad.write_text("Q1 - select 1 from lineorder where lo_quantity = 3 "
                   "order by lo_quantity insert into lineorder values (1)\n")
    out = tmp_path / "o"
    assert run(["advise", "--catalog", CAT, "--workload", str(bad),
                "--out", str(out)]) == 2
    assert capsys.readouterr().err == "input error: query 1: unsupported " \
        "statement starting at 'insert'\n"
    assert not out.exists()


def test_comparison_without_operand_input_error(tmp_path, capsys):
    # once parsed as a range predicate, with exit 0
    bad = tmp_path / "w.sql"
    bad.write_text("Q1 - select 1 from lineorder where lo_quantity = 3\n"
                   "Q2 - select 1 from lineorder where lo_quantity <\n")
    out = tmp_path / "o"
    assert run(["compare", "--catalog", CAT, "--workload", str(bad),
                "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "input error: query 2: no right-hand operand after '<'\n"
    assert not out.exists()


def test_empty_workload_input_error(tmp_path):
    bad = tmp_path / "w.sql"
    bad.write_text("Q1 - select count(*) from lineorder\n")
    assert run(["advise", "--catalog", CAT, "--workload", str(bad),
                "--out", str(tmp_path)]) == 2


def test_deeply_nested_subqueries_input_error(tmp_path, capsys):
    # deeper than the interpreter's recursion limit allows the scanner
    depth = 1200
    bad = tmp_path / "w.sql"
    bad.write_text(
        "Q1 - select count(*) from lineorder where lo_quantity in "
        + "(select lo_quantity from lineorder where lo_quantity in " * depth
        + "(1)" + ")" * depth + "\n")
    assert run(["advise", "--catalog", CAT, "--workload", str(bad),
                "--out", str(tmp_path)]) == 2
    assert "query 1: subqueries nested too deeply" in capsys.readouterr().err


def assert_input_error(catalog_text, tmp_path, capsys):
    cat = tmp_path / "catalog.json"
    cat.write_text(catalog_text)
    assert run(["enumerate", "--catalog", str(cat), "--workload", WL]) == 2
    assert capsys.readouterr().err.startswith("input error: ")


@pytest.mark.parametrize("number", ["1e400", "1" + "0" * 400],
                         ids=["1e400", "10^400"])
@pytest.mark.parametrize("section, key", [
    (None, "page_size"), (None, "rowid_bits"), ("tables", "rows"),
    ("attributes", "cardinality")])
def test_catalog_number_too_large_input_error(section, key, number, tmp_path,
                                              capsys):
    # JSON reads 1e400 as infinity, a float and not an integer; 10^400 is
    # an int that no float holds
    doc = json.loads(read(CAT))
    (doc if section is None else doc[section][0])[key] = "BIG"
    assert_input_error(json.dumps(doc).replace('"BIG"', number),
                       tmp_path, capsys)


def test_catalog_nested_too_deeply_input_error(tmp_path, capsys):
    assert_input_error("[" * 200_000, tmp_path, capsys)


def test_byte_identical_reports(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run(["advise", "--catalog", CAT, "--workload", WL,
                    "--engine", "tm-ijb,close,dynaclose",
                    "--out", str(out)]) == 0
        assert run(["compare", "--catalog", CAT, "--workload", WL,
                    "--out", str(out)]) == 0
        outs.append(out)
    for fname in ("trace.json", "report.txt", "tm-ijb.sql", "close.sql",
                  "dynaclose.sql", "compare.csv", "compare.json"):
        assert read(outs[0] / fname) == read(outs[1] / fname), fname


def test_trace_candidates_one_line_each(tmp_path):
    """Each candidate is one line of trace.json, and so is each matrix
    column and row, in order."""
    out = tmp_path / "o"
    assert run(["advise", "--catalog", CAT, "--workload", WL,
                "--out", str(out)]) == 0
    text = (out / "trace.json").read_text()
    doc = json.loads(text)
    candidates = doc["engines"]["tm-ijb"]["trace"]
    lines = [line.strip().rstrip(",") for line in text.splitlines()]
    assert candidates
    for c in candidates:
        assert lines.count(json.dumps(c, sort_keys=True)) == 1
    assert sum(line.startswith('{"afc": ') for line in lines) == len(candidates)
    matrix = doc["matrix"]["columns"] + doc["matrix"]["rows"]
    assert [line for line in lines if line.startswith('{"attr')] == \
        [json.dumps(r, sort_keys=True) for r in matrix]
    assert len(matrix) == 57 + 30


def compare_inputs(name, directory, gen):
    """Catalog and workload paths: bundled SSB or TPC-H, the seed-1
    ``synth-templates`` instance, or SSB over a catalog whose row counts,
    widths and cardinalities are all ``MAX_CATALOG_INT`` (page counts are
    then estimated, so they are as large as a catalog can make them)."""
    if name == "synth-templates":
        return gen.synth_templates(1)[0].write(str(directory))
    if name != "max-catalog":
        return str(data_path(f"{name}.json")), str(data_path(f"{name}.sql"))
    doc = json.loads(read(CAT))
    for t in doc["tables"]:
        t["rows"] = t["tuple_width"] = MAX_CATALOG_INT
        del t["pages"]
    for a in doc["attributes"]:
        a["cardinality"] = MAX_CATALOG_INT
    cat = directory / "max.json"
    cat.write_text(json.dumps(doc))
    return str(cat), WL


@pytest.mark.parametrize("name", ["ssb", "tpch", "synth-templates",
                                  "max-catalog"])
def test_per_query_lines_are_what_the_encoder_writes(name, tmp_path, gen):
    """Each ``per_query`` line of ``compare.json`` is ``json.dumps`` of its
    record, and the file reads back as the document built from
    ``cost_report`` with one dict per query; every trace record's fitness
    and support is finite."""
    cat, wl = compare_inputs(name, tmp_path, gen)
    out = tmp_path / "o"
    assert run(["compare", "--catalog", cat, "--workload", wl,
                "--out", str(out)]) == 0
    text = (out / "compare.json").read_text()
    doc = json.loads(text)
    schema = load_catalog_file(cat)
    with open(wl, encoding="utf-8") as fh:
        matrix = build_context_matrix(schema, parse_workload(fh.read(), schema))
    plans = costmodel.WorkloadPlan(schema, matrix.queries)
    want_lines = []
    for engine in sorted(doc["engines"]):
        report = costmodel.cost_report(
            plans, doc["engines"][engine]["configuration"])
        records = [{"query": p.query_id, "cost": c}
                   for p, c in zip(plans.plans, report.pop("costs"))]
        assert all(math.isfinite(r["cost"]) for r in records)
        assert doc["engines"][engine]["cost"] == {**report,
                                                  "per_query": records}
        want_lines += [json.dumps(r, sort_keys=True) for r in records]
    lines = [line.strip().rstrip(",") for line in text.splitlines()]
    assert [line for line in lines if line.startswith('{"cost": ')] == \
        want_lines
    if name == "max-catalog":
        assert min(plans.no_index) > 1e30
    # a trace record's floats are written as their repr, so must be finite
    assert all(math.isfinite(m[k]) for e in doc["engines"].values()
               for m in e["trace"] for k in ("fitness", "support"))


_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.floats(allow_nan=False) | st.text(max_size=6))
_KEYS = st.text(max_size=6)


@given(st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=4)
                    | st.dictionaries(_KEYS, inner, max_size=4)))
def test_json_text_parses_to_the_document(doc):
    assert json.loads(cli._json_text(doc)) == doc


# any document without _Lines, objects in lists included
@given(st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=4)
                    | st.dictionaries(_KEYS, inner, max_size=4)))
def test_json_text_is_indent_2_without_records(doc):
    assert cli._json_text(doc) == json.dumps(doc, indent=2,
                                             sort_keys=True) + "\n"


# JSON text escapes: quotes, backslashes, control and non-ASCII characters
_NAMES = st.text(max_size=8) | st.sampled_from(
    ['"', "\\", 'a"b\\c', "\x00\x1f\n\t", "caf\u00e9", "\u2028",
     "\U0001f600", "\ud800"])
# both signs of zero, tiny and huge values and subnormals; a support or a
# fitness is never non-finite (the max-catalog case of
# test_per_query_lines_are_what_the_encoder_writes checks the extreme end)
_FLOATS = st.sampled_from([0.0, -0.0, 1e-13, -1e-13, 1e300, 5e-324,
                           2.2250738585072014e-308 / 3]) | st.floats(
    allow_nan=False, allow_infinity=False)


@st.composite
def scored_motifs(draw):
    """A per-column name table (index 0 unused) and trace records over it."""
    names = ["", *draw(st.lists(_NAMES, min_size=1, max_size=6))]
    ids = st.lists(st.integers(1, len(names) - 1), max_size=40).map(tuple)
    trace = draw(st.lists(st.builds(
        selection.ScoredMotif, ids, _FLOATS, st.integers(), _FLOATS,
        st.booleans()), max_size=4))
    return names, trace


@given(scored_motifs())
def test_trace_lines_are_what_the_encoder_writes(drawn):
    names, trace = drawn
    want = [json.dumps({"ids": list(m.ids),
                        "attrs": [names[i] for i in m.ids],
                        "fitness": round(m.fitness, 12), "afc": m.afc,
                        "support": round(m.support, 12),
                        "selected": m.selected}, sort_keys=True)
            for m in trace]
    assert list(cli._trace_lines(cli._column_json(names), trace)) == want
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(json.encoder, "encode_basestring_ascii",
                   json.encoder.py_encode_basestring_ascii)
        assert list(cli._trace_lines(cli._column_json(names), trace)) == want
    # in a document, the lines are the list's items, an empty one included
    text = cli._json_text({"trace": cli._trace_lines(cli._column_json(names),
                                                     trace)})
    assert json.dumps(json.loads(text)) == \
        json.dumps({"trace": [json.loads(line) for line in want]})


@st.composite
def matrices(draw):
    """A per-column name table (index 0 unused) and a matrix over it."""
    names = ["", *draw(st.lists(_NAMES, min_size=1, max_size=6))]
    rows = draw(st.lists(st.integers(1, (1 << len(names) - 1) - 1).map(
        lambda m: m << 1), max_size=5))
    ids = draw(st.lists(st.integers(0, 2**70), min_size=len(rows),
                        max_size=len(rows), unique=True))
    queries = tuple(ParsedQuery(q, row, ()) for q, row in zip(ids, rows))
    return names, ContextMatrix(queries, tuple(names[1:]), tuple(rows))


@given(matrices())
def test_matrix_lines_are_what_the_encoder_writes(drawn):
    """Each column and row line of the matrix document is its record as
    ``json.dumps(record, sort_keys=True)`` writes it."""
    names, matrix = drawn
    want = {"columns": [json.dumps({"id": i, "attr": q}, sort_keys=True)
                        for i, q in enumerate(names) if i],
            "rows": [json.dumps({"query": q.id, "attrs": [
                i for i in range(len(names)) if row >> i & 1]}, sort_keys=True)
                     for q, row in zip(matrix.queries, matrix.rows)]}
    doc = cli._matrix_doc(cli._column_json(names), matrix)
    assert {k: list(v) for k, v in doc.items()} == want
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(json.encoder, "encode_basestring_ascii",
                   json.encoder.py_encode_basestring_ascii)
        doc = cli._matrix_doc(cli._column_json(names), matrix)
        assert {k: list(v) for k, v in doc.items()} == want
    # in trace.json's layout, the lines are the lists' items
    assert json.loads(cli._json_text({"matrix": doc})) == \
        {"matrix": {k: [json.loads(line) for line in v]
                    for k, v in want.items()}}


def test_cost_doc_writes_each_zero_as_itself():
    """0.0 and -0.0 are one value but two texts, in any order in one
    report."""
    costs = [0.0, -0.0, 2.5, 0.0, 2.5, -0.0, 1e-300, -1e-300]
    tails = [f', "query": {k}}}' for k in range(len(costs))]
    doc = cli._cost_doc(tails, {"costs": costs, "total": 5.0})
    assert list(doc["per_query"]) == [
        json.dumps({"cost": c, "query": k}, sort_keys=True)
        for k, c in enumerate(costs)]
    assert [math.copysign(1, json.loads(line)["cost"])
            for line in doc["per_query"]] == [1, -1, 1, 1, 1, -1, 1, -1]
    assert doc["total"] == 5.0 and "costs" not in doc


def storage_oracle(doc, config):
    """Bytes of the indexes on ``config`` from the catalog document alone:
    per attribute, ceil((rowid_bits + cardinality) * fact rows / 8)."""
    rows = next(t["rows"] for t in doc["tables"] if t["role"] == "fact")
    bits = doc.get("rowid_bits", DEFAULT_ROWID_BITS)
    cards = {f"{a['table']}.{a['name']}".lower(): a.get("cardinality")
             for a in doc["attributes"]}
    return sum(-(-(bits + cards[q.lower()]) * rows // 8) for q in config)


def check_rows_against_documents(cat, wl, out):
    """Each ``compare`` and ``advise --format csv`` row holds its engine
    document's figures, and each document's storage the catalog's."""
    with open(cat, encoding="utf-8") as fh:
        catalog = json.load(fh)
    engines = ["--engine", ",".join(cli.ENGINES)]
    inputs = ["--catalog", cat, "--workload", wl, "--out", str(out)]
    for argv, csv, docs_in in (
            (["compare", *engines, *inputs], "compare.csv", "compare.json"),
            (["advise", *engines, "--format", "csv", *inputs], "report.csv",
             "trace.json")):
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(argv) == 0
        docs = json.loads(read(out / docs_in))["engines"]
        baseline = {docs[e]["cost"]["baseline_total"] for e in docs}
        assert len(baseline) == 1
        # the rows follow the --engine order, the documents their names'
        want = [("baseline", baseline.pop(), 0, 0.0)] + [
            (e, docs[e]["cost"]["total"], docs[e]["storage_bytes"],
             docs[e]["cost"]["reduction"]) for e in cli.ENGINES]
        for d in docs.values():
            assert d["storage_bytes"] == storage_oracle(catalog,
                                                        d["configuration"])
        assert read(out / csv).decode().splitlines()[1:] == [
            f"{e},{t:.4f},{b},{r:.6f}" for e, t, b, r in want]
    rows = json.loads(read(out / "compare.json"))["rows"]
    assert rows == [{"engine": e, "total_cost": round(t, 6),
                     "storage_bytes": b, "reduction_rate": round(r, 9)}
                    for e, t, b, r in want]


@pytest.mark.parametrize("name", ["ssb", "tpch"])
def test_engine_rows_are_the_documents_figures(name, tmp_path):
    check_rows_against_documents(str(data_path(f"{name}.json")),
                                 str(data_path(f"{name}.sql")), tmp_path / "o")


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_engine_rows_are_the_documents_figures_on_random_stars(random_stars,
                                                               data):
    with tempfile.TemporaryDirectory() as tmp:
        cat, wl = data.draw(random_stars).write(tmp)
        check_rows_against_documents(cat, wl, Path(tmp) / "o")


@pytest.mark.parametrize("argv", [
    ["advise", "--engine", "tm-ijb,close,dynaclose", "--format", "csv"],
    ["compare"]])
def test_storage_is_summed_once_per_engine(argv, tmp_path, monkeypatch):
    calls = []
    storage = costmodel.config_storage
    monkeypatch.setattr(costmodel, "config_storage",
                        lambda *a: calls.append(a) or storage(*a))
    assert run([*argv, "--catalog", CAT, "--workload", WL,
                "--out", str(tmp_path)]) == 0
    assert len(calls) == 3


def listing_oracle(cat, wl, all_):
    """What ``enumerate`` prints, built set by set from the catalog's
    attributes and the matrix's column names."""
    schema = load_catalog_file(cat)
    with open(wl, encoding="utf-8") as fh:
        matrix = build_context_matrix(schema, parse_workload(fh.read(), schema))
    h = matrix.hypergraph()
    tms = berge_enumerate(h) if all_ else smallest_transversals(h)
    terms = selection.column_terms(schema, matrix)
    lines = ["columns:"]
    lines += [f"  {v}: {matrix.columns[v - 1]}" for v in h.vertices]
    lines.append(f"{'all' if all_ else 'smallest'} minimal transversals: "
                 f"{len(tms)}")
    for ids in tms:
        names = [matrix.columns[i - 1] for i in ids]
        afc = sum(schema.attribute(q).cardinality for q in names)
        lines.append(f"  {ids} fitness={selection.fitness_tm(terms, ids):.6f}"
                     f" afc={afc} [{', '.join(names)}]")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("all_", [False, True])
@pytest.mark.parametrize("name", ["example_star", "ssb", "tpch"])
def test_enumerate_listing_matches_oracle(name, all_, capsys):
    cat, wl = str(data_path(f"{name}.json")), str(data_path(f"{name}.sql"))
    assert run(["enumerate", "--catalog", cat, "--workload", wl]
               + ["--all"] * all_) == 0
    assert capsys.readouterr().out == listing_oracle(cat, wl, all_)


def listing(cat, wl, all_) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["enumerate", "--catalog", cat, "--workload", wl]
                   + ["--all"] * all_) == 0
    return out.getvalue()


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_enumerate_listing_matches_oracle_on_random_stars(random_stars, data):
    with tempfile.TemporaryDirectory() as tmp:
        cat, wl = data.draw(random_stars).write(tmp)
        for all_ in (False, True):
            assert listing(cat, wl, all_) == listing_oracle(cat, wl, all_)


def test_enumerate_listing_one_member_and_unindexable_sets(tmp_path):
    # edges {SALES.channel_id (5), CHANNELS.channel_id (4), channel_desc (6)}
    # and {SALES.cust_id (1), CUSTOMERS.cust_id (2), SALES.channel_id}: the
    # fact column 5 alone hits both, and only 6 of the members is indexable
    cat = str(data_path("example_star.json"))
    wl = tmp_path / "w.sql"
    wl.write_text(
        "Q1 - select count(*) from SALES S, CHANNELS C\n"
        "where S.channel_id = C.channel_id and C.channel_desc = 'Internet'\n\n"
        "Q2 - select count(*) from SALES S, CUSTOMERS C\n"
        "where S.cust_id = C.cust_id and S.channel_id = 2\n")
    one = "  (5,) fitness=0.000000 afc=16260336 [SALES.channel_id]\n"
    for all_ in (False, True):
        printed = listing(cat, str(wl), all_)
        assert printed == listing_oracle(cat, str(wl), all_)
        assert one in printed
    assert "  (1, 6) fitness=" in printed and "  (2, 4) fitness=0.000000 " \
        in printed
    assert "all minimal transversals: 5\n" in printed


def test_enumerate_smallest(tmp_path, capsys):
    cat = str(data_path("example_star.json"))
    wl = str(data_path("example_star.sql"))
    assert run(["enumerate", "--catalog", cat, "--workload", wl]) == 0
    printed = capsys.readouterr().out
    assert "smallest minimal transversals: 9" in printed


def test_enumerate_all(tmp_path, capsys):
    cat = str(data_path("example_star.json"))
    wl = str(data_path("example_star.sql"))
    assert run(["enumerate", "--all", "--catalog", cat, "--workload", wl]) == 0
    printed = capsys.readouterr().out
    assert "all minimal transversals: 9" in printed


def cli_process(args, **kwargs):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.Popen([sys.executable, "-m", "bji_advisor.cli", *args],
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, **kwargs)


def test_enumerate_closed_stdout_exits_141():
    # TPC-H --all prints about 225 KB, more than a pipe buffer holds, so
    # the writer is still printing when the reader leaves
    cat, wl = str(data_path("tpch.json")), str(data_path("tpch.sql"))
    proc = cli_process(["enumerate", "--all", "--catalog", cat,
                        "--workload", wl])
    assert proc.stdout.readline() == b"columns:\n"
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_enumerate_out_of_memory_exits_4(monkeypatch, capsys):
    def exhausted(h):
        raise MemoryError
    monkeypatch.setattr(cli, "berge_enumerate", exhausted)
    cat = str(data_path("example_star.json"))
    wl = str(data_path("example_star.sql"))
    assert run(["enumerate", "--all", "--catalog", cat,
                "--workload", wl]) == 4
    err = capsys.readouterr().err
    assert err == "out of memory: the output does not fit in memory\n"


def test_enumerate_out_of_memory_under_address_limit(tmp_path):
    resource = pytest.importorskip("resource")
    # twelve disjoint 4-attribute queries: 4^12 minimal transversals, far
    # more than 256 MiB of address space holds; Berge runs out in 1-2 s
    n = 48
    cat = tmp_path / "c.json"
    cat.write_text(json.dumps({
        "page_size": 8192,
        "tables": [{"name": "F", "role": "fact", "rows": 1000,
                    "tuple_width": 100}],
        "attributes": [{"table": "F", "name": f"c{i}", "cardinality": 10}
                       for i in range(n)]}))
    wl = tmp_path / "w.sql"
    wl.write_text("".join(
        f"Q{g + 1} - select count(*) from F where "
        + " and ".join(f"c{i} = 1" for i in range(g, g + 4)) + "\n\n"
        for g in range(0, n, 4)))
    limit = 256 * 2**20

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    proc = cli_process(["enumerate", "--all", "--catalog", str(cat),
                        "--workload", str(wl)], preexec_fn=cap)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 4
    assert out == b""
    assert err == b"out of memory: the output does not fit in memory\n"


def test_enumerate_rejects_advise_options():
    cat = str(data_path("example_star.json"))
    wl = str(data_path("example_star.sql"))
    assert run(["enumerate", "--catalog", cat, "--workload", wl,
                "--minsup", "0.5"]) == 1


def test_demo_exit_zero(capsys, monkeypatch):
    monkeypatch.delenv("ADVISOR_SEED", raising=False)
    assert run(["demo"]) == 0
    # the whole walkthrough on the 12-row sales table: rows 0, 4 and 6 are
    # Poitiers or Nantes customers buying toys or beauty products in March
    assert capsys.readouterr().out == """\
fact rows: 12
  Mois=Aout: 000100001000
  Mois=Juin: 010001010010
  Mois=Mars: 101010100101
  Type=Beaute: 010010010010
  Type=Cuisine: 001001001001
  Type=Jouet: 100100100100
  Ville=Nantes: 001000100001
  Ville=Paris: 010001000100
  Ville=Poitiers: 100110011010
VB Mois IN ['Mars']: 101010100101
VB Type IN ['Jouet', 'Beaute']: 110110110110
VB Ville IN ['Poitiers', 'Nantes']: 101110111011
VBF: 100010100000
selected fact rows: [0, 4, 6]
naive join oracle agrees: True
"""


def test_demo_exits_3_when_the_naive_join_oracle_disagrees(capsys,
                                                          monkeypatch):
    # the only exit-3 path: the bitmap result differs from the oracle's;
    # cmd_demo imports evaluate from the engine module when it runs
    monkeypatch.delenv("ADVISOR_SEED", raising=False)
    monkeypatch.setattr("bji_advisor.engine.evaluate",
                        lambda indexes, conds: evaluate(indexes, conds) ^ 1)
    assert run(["demo"]) == 3
    assert capsys.readouterr().out.endswith(
        "naive join oracle agrees: False\n")


def test_demo_zero_rows(capsys, monkeypatch):
    monkeypatch.delenv("ADVISOR_SEED", raising=False)
    assert run(["demo", "--rows", "0"]) == 0
    printed = capsys.readouterr().out
    assert "selected fact rows: []" in printed


@pytest.mark.parametrize("rows, seed", [("-1", None), ("-1", "7"),
                                        ("13", None)])
def test_demo_rows_out_of_range_usage_error(rows, seed, capsys, monkeypatch):
    monkeypatch.delenv("ADVISOR_SEED", raising=False)
    if seed is not None:
        monkeypatch.setenv("ADVISOR_SEED", seed)
    assert run(["demo", "--rows", rows]) == 1
    assert "usage error: --rows" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["x", "1e3"])
def test_demo_bad_seed_input_error(seed, capsys, monkeypatch):
    monkeypatch.setenv("ADVISOR_SEED", seed)
    assert run(["demo"]) == 2
    assert capsys.readouterr().err == \
        f"input error: ADVISOR_SEED must be an integer, not {seed!r}\n"


def test_demo_seeded_rows_above_twelve(capsys, monkeypatch):
    monkeypatch.setenv("ADVISOR_SEED", "7")
    assert run(["demo", "--rows", "20"]) == 0
    printed = capsys.readouterr().out
    assert "fact rows: 20" in printed
    # the seed draws the foreign keys; the three dimensions stay
    for attr in ("Mois", "Type", "Ville"):
        assert f"VB {attr} IN " in printed
    assert "naive join oracle agrees: True" in printed


def test_demo_seeded_deterministic(capsys, monkeypatch):
    monkeypatch.setenv("ADVISOR_SEED", "7")
    assert run(["demo"]) == 0
    first = capsys.readouterr().out
    assert run(["demo"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "naive join oracle agrees: True" in first


# modules a command does not need; each costs start-up time when imported
NOT_IMPORTED = ("bji_advisor.engine", "random", "typing", "importlib.resources",
                "dataclasses", "inspect", "logging", "string")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


@pytest.mark.parametrize("command", ["advise", "compare", "enumerate"])
def test_commands_import_only_what_they_run(command, tmp_path):
    """A fresh interpreter without ``site`` (whose start-up hooks may import
    some of these modules themselves) runs the command on SSB, which warns
    of nothing, then lists which of the modules it loaded."""
    argv = [command, "--catalog", CAT, "--workload", WL]
    if command != "enumerate":
        argv += ["--out", str(tmp_path)]
    watched = NOT_IMPORTED + {"advise": ("csv",), "compare": ("csv",),
                              "enumerate": ("csv", "datetime")}[command]
    script = ("import sys\n"
              "from bji_advisor import cli\n"
              f"code = cli.main({argv!r})\n"
              f"print([m for m in {watched!r} if m in sys.modules], code)\n")
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          env={"PYTHONPATH": SRC}, capture_output=True,
                          text=True, timeout=60)
    assert proc.stdout.splitlines()[-1] == "[] 0", proc.stderr


def test_warning_reaches_stderr_through_the_lazy_logger():
    """example_star's catalog warns when it loads; the module imports
    ``logging`` only then, and the message still reaches stderr as is."""
    proc = subprocess.run(
        [sys.executable, "-S", "-m", "bji_advisor.cli", "enumerate",
         "--catalog", str(data_path("example_star.json")),
         "--workload", str(data_path("example_star.sql"))],
        env={"PYTHONPATH": SRC}, capture_output=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == (b"attribute SALES.channel_id: cardinality 16260336 "
                           b"exceeds table rows 1626033\n")


@pytest.mark.parametrize("engine, mined", [("tm-ijb,close,dynaclose", 1),
                                           ("close,dynaclose", 1),
                                           ("tm-ijb", 0)])
def test_closed_itemsets_are_mined_once(engine, mined, tmp_path, monkeypatch):
    calls = []
    mine = selection.mine_closed_frequent_itemsets
    monkeypatch.setattr(selection, "mine_closed_frequent_itemsets",
                        lambda *a: calls.append(a) or mine(*a))
    assert run(["advise", "--catalog", CAT, "--workload", WL, "--engine",
                engine, "--out", str(tmp_path)]) == 0
    assert len(calls) == mined
