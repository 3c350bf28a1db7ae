"""Command-line front end: advise, compare, enumerate, demo.

Report files never embed timestamps; run metadata (time, arguments) goes to a
separate metadata.json so consecutive runs over identical inputs produce
byte-identical reports.

Exit codes: 0 success (including an empty configuration), 1 usage error,
2 input validation error, 3 ``demo``'s bitmap join result disagreeing with
the naive join oracle, 4 output too large for memory, 141 stdout closed by
its reader.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import costmodel, selection
from .hypergraph import berge_enumerate, bits, smallest_transversals
from .schema import StarSchema, load_catalog_file
from .workload import ContextMatrix, build_context_matrix, parse_workload

ENGINES = ("tm-ijb", "close", "dynaclose")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3
EXIT_MEMORY = 4
EXIT_PIPE = 141     # 128 + SIGPIPE, as a shell reports a reader that left


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def _load_inputs(args) -> tuple[StarSchema, ContextMatrix]:
    schema = load_catalog_file(args.catalog)
    with open(args.workload, "r", encoding="utf-8") as fh:
        queries = parse_workload(fh.read(), schema)
    return schema, build_context_matrix(schema, queries)


def _parse_engines(arg: str) -> list[str]:
    names = [e.strip() for e in arg.split(",") if e.strip()]
    if not names:
        raise UsageError(f"no engine named in {arg!r}; choose from {ENGINES}")
    bad = [e for e in names if e not in ENGINES]
    if bad:
        raise UsageError(f"unknown engine(s) {bad}; choose from {ENGINES}")
    if len(set(names)) < len(names):
        raise UsageError(f"engine named more than once in {arg!r}")
    return names


def _select(args, engines: list[str]):
    """Load the inputs, create the output directory and run ``engines``.
    Each query's cost plan is built once, here, and serves every
    configuration; so do the closed itemsets, mined once for the engines
    that read them.  Returns the plans (which hold the catalog as
    ``schema``), the matrix and the configurations."""
    schema, matrix = _load_inputs(args)
    os.makedirs(args.out, exist_ok=True)
    plans = costmodel.WorkloadPlan(schema, matrix.queries)
    if {"close", "dynaclose"} & set(engines):
        motifs = selection.mine_closed_frequent_itemsets(matrix, args.minsup)
    run = {"tm-ijb": lambda: selection.tm_ijb(schema, matrix),
           "close": lambda: selection.close_select(
               schema, matrix, plans, motifs,
               storage_budget=args.storage_budget),
           "dynaclose": lambda: selection.dynaclose_select(
               schema, matrix, motifs)}
    return plans, matrix, [run[e]() for e in engines]


def ddl_statements(schema: StarSchema, attrs) -> list[str]:
    """One CREATE BITMAP INDEX statement per configured dimension attribute.

    Snowflake dimensions chain every table and join condition on the path
    from the fact table.  An index is named ``<fact>_<table>_<attr>_idx``,
    lowercased; as ``_`` may occur within a name, a name already used gets
    the column id before its ``_idx`` until it is new.
    """
    out, used = [], set()
    for q in sorted(attrs):
        a = schema.attribute(q)
        tables = [schema.fact.name]
        conds = []
        for j in schema.join_path(a.table):
            tables.append(schema.attribute(j.dim_attr).table)
            conds.append(f"{j.fact_attr} = {j.dim_attr}")
        name = f"{schema.fact.name}_{a.table}_{a.name}_idx".lower()
        while name in used:
            name = f"{name[:-4]}_{schema.column_id(q)}_idx"
        used.add(name)
        out.append(
            f"CREATE BITMAP INDEX {name}\n"
            f"ON {schema.fact.name}({a.table}.{a.name})\n"
            f"FROM {', '.join(tables)}\n"
            f"WHERE {' AND '.join(conds)};")
    return out


class _Lines(tuple):
    """JSON lines that ``_emit`` writes as they are, one per list item."""


def _column_json(names) -> tuple[list[str], list[str]]:
    """Per column id (index 0 unused), its id and its name as JSON text."""
    encode = json.encoder.encode_basestring_ascii
    return [str(i) for i in range(len(names))], [encode(q) for q in names]


class _Texts(dict):
    """``text(x)`` by nonzero value ``x``, worked out once per distinct
    value.  0.0 and -0.0 are one key with two texts, so a zero is never
    looked up: its text is its repr, written each time."""

    def __init__(self, text):
        self.text = text

    def __missing__(self, x):
        out = self[x] = self.text(x)
        return out


def _trace_lines(columns: tuple[list[str], list[str]], trace) -> _Lines:
    """Each ``ScoredMotif`` of ``trace`` as the line ``json.dumps(record,
    sort_keys=True)`` writes for its record: ids, attrs, afc, selected, and
    fitness and support rounded to 12 places, each as its repr, as
    ``json.dumps`` writes a finite float: a support is a share of the
    queries and a fitness sums supports times page ratios of catalog ints,
    and an int division raises rather than give a non-finite float.  A zero
    rounds to itself, so its text is its repr.  ``columns`` is
    ``_column_json`` of the catalog, whose names give a record's attrs from
    its ids."""
    id_text, name_json = columns
    texts = _Texts(lambda x: repr(round(x, 12)))
    return _Lines([
        f'{{"afc": {m.afc}, '
        f'"attrs": [{", ".join([name_json[i] for i in m.ids])}], '
        f'"fitness": {texts[m.fitness] if m.fitness else repr(m.fitness)}, '
        f'"ids": [{", ".join([id_text[i] for i in m.ids])}], '
        f'"selected": {"true" if m.selected else "false"}, '
        f'"support": {texts[m.support] if m.support else repr(m.support)}}}'
        for m in trace])


def _cost_doc(tails: list[str], report: dict) -> dict:
    """``report`` with its ``costs`` as ``per_query`` lines (``tails`` ends
    each), as ``json.dumps(record, sort_keys=True)`` writes them: a cost is
    finite, so its repr."""
    doc = dict(report)
    texts = _Texts(repr)
    doc["per_query"] = _Lines([
        f'{{"cost": {texts[c] if c else repr(c)}{tail}'
        for c, tail in zip(doc.pop("costs"), tails)])
    return doc


def _engine_docs(plans: costmodel.WorkloadPlan, configs,
                 columns: tuple[list[str], list[str]]) -> dict:
    """Each configuration's document by engine name, costed against the
    no-index baseline.  ``columns`` is ``_column_json`` of the catalog."""
    tails = [f', "query": {p.query_id}}}' for p in plans.plans]
    return {cfg.engine: {
        "engine": cfg.engine,
        "configuration": list(cfg.attrs),
        "notes": list(cfg.notes),
        "storage_bytes": costmodel.config_storage(plans, cfg.attrs),
        "cost": _cost_doc(tails, costmodel.cost_report(plans, cfg.attrs)),
        "trace": _trace_lines(columns, cfg.trace),
    } for cfg in configs}


def _matrix_doc(columns: tuple[list[str], list[str]],
                matrix: ContextMatrix) -> dict:
    """The matrix's columns and rows as the lines ``json.dumps(record,
    sort_keys=True)`` writes for their records, from ``columns``,
    ``_column_json`` of the catalog, whose names are the matrix's columns."""
    id_text, name_json = columns
    return {
        "columns": _Lines([f'{{"attr": {name_json[i]}, "id": {id_text[i]}}}'
                           for i in range(1, len(name_json))]),
        "rows": _Lines([
            f'{{"attrs": [{", ".join([id_text[i] for i in bits(row)])}], '
            f'"query": {q.id}}}'
            for q, row in zip(matrix.queries, matrix.rows)]),
    }


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _json_text(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)`` and a newline, except
    that a ``_Lines`` list is written as given, one line per item."""
    out: list[str] = []
    _emit(doc, "\n", out)
    return "".join(out) + "\n"


def _emit(value, newline: str, out: list[str]) -> None:
    inner = newline + "  "
    if isinstance(value, dict) and value:
        opener = "{"
        for key in sorted(value):
            out += (opener, inner, json.dumps(key), ": ")
            _emit(value[key], inner, out)
            opener = ","
        out += (newline, "}")
    elif isinstance(value, _Lines) and value:
        out += ("[", inner, ("," + inner).join(value), newline, "]")
    elif isinstance(value, (list, tuple)) and value:
        opener = "["
        for item in value:
            out += (opener, inner)
            _emit(item, inner, out)
            opener = ","
        out += (newline, "]")
    else:
        out.append(json.dumps(value))


def _write_metadata(out_dir: str, argv) -> None:
    from datetime import datetime, timezone
    _write(os.path.join(out_dir, "metadata.json"), _json_text({
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "argv": list(argv),
    }))


def _engine_rows(baseline: float, docs: dict) -> list[dict]:
    """The no-index row, then each engine's row, read from its document."""
    return [{"engine": "baseline", "total_cost": baseline,
             "storage_bytes": 0, "reduction_rate": 0.0}] + [
        {"engine": engine, "total_cost": doc["cost"]["total"],
         "storage_bytes": doc["storage_bytes"],
         "reduction_rate": doc["cost"]["reduction"]}
        for engine, doc in docs.items()]


def _rows_csv(rows: list[dict]) -> str:
    """The rows as CSV lines under a header.  No field needs quoting: the
    engine names are fixed words and the numbers are formatted here."""
    return "engine,total_cost,storage_bytes,reduction_rate\n" + "".join([
        f"{r['engine']},{r['total_cost']:.4f},{r['storage_bytes']},"
        f"{r['reduction_rate']:.6f}\n" for r in rows])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_advise(args, argv) -> int:
    plans, matrix, configs = _select(args, _parse_engines(args.engine))
    columns = _column_json(plans.schema.names)
    docs = _engine_docs(plans, configs, columns)
    _write(os.path.join(args.out, "trace.json"), _json_text(
        {"matrix": _matrix_doc(columns, matrix), "engines": docs}))

    lines = []
    for cfg in configs:
        ddl = ddl_statements(plans.schema, cfg.attrs)
        _write(os.path.join(args.out, f"{cfg.engine}.sql"),
               "\n\n".join(ddl) + ("\n" if ddl else ""))
        if cfg.attrs:
            lines.append(f"{cfg.engine}: {', '.join(cfg.attrs)}")
        else:
            lines.append(f"{cfg.engine}: no indexable configuration")
        for note in cfg.notes:
            lines.append(f"  note: {note}")

    if args.format == "json":
        _write(os.path.join(args.out, "report.json"),
               _json_text({c.engine: list(c.attrs) for c in configs}))
    elif args.format == "csv":
        _write(os.path.join(args.out, "report.csv"),
               _rows_csv(_engine_rows(plans.baseline, docs)))
    else:
        _write(os.path.join(args.out, "report.txt"), "\n".join(lines) + "\n")
    _write_metadata(args.out, argv)
    print("\n".join(lines))
    return EXIT_OK


def cmd_compare(args, argv) -> int:
    engines = _parse_engines(args.engine)
    if len(engines) < 2:
        raise UsageError("compare needs at least two engines")
    plans, _, configs = _select(args, engines)
    docs = _engine_docs(plans, configs, _column_json(plans.schema.names))
    rows = _engine_rows(plans.baseline, docs)
    _write(os.path.join(args.out, "compare.csv"), _rows_csv(rows))
    _write(os.path.join(args.out, "compare.json"), _json_text(
        {"rows": _Lines([json.dumps(
            {**r, "total_cost": round(r["total_cost"], 6),
             "reduction_rate": round(r["reduction_rate"], 9)},
            sort_keys=True) for r in rows]),
         "engines": docs}))
    _write_metadata(args.out, argv)
    best = min(rows[1:], key=lambda r: (r["total_cost"], r["engine"]))
    for r in rows:
        print(f"{r['engine']}: cost={r['total_cost']:.1f} "
              f"storage={r['storage_bytes']} "
              f"reduction={r['reduction_rate']:.4f}")
    print(f"minimum-cost engine: {best['engine']}")
    return EXIT_OK


def cmd_enumerate(args, argv) -> int:
    schema, matrix = _load_inputs(args)
    h = matrix.hypergraph()
    tms = berge_enumerate(h) if args.all else smallest_transversals(h)
    names, cards = schema.names, schema.cards
    terms = selection.column_terms(schema, matrix)
    # per vertex: its fitness term (0.0 when not indexable, which leaves a
    # float sum as it was), its cardinality, its id as text and its name
    info = {v: (terms.get(v, 0.0), cards[v], str(v), names[v])
            for v in h.vertices}
    out = sys.stdout
    out.write("columns:\n")
    out.writelines(f"  {v}: {names[v]}\n" for v in h.vertices)
    out.write(f"{'all' if args.all else 'smallest'} minimal transversals: "
              f"{len(tms)}\n")
    out.writelines(_listing(info, tms))     # streamed: no list of every line
    return EXIT_OK


def _listing(info: dict, sets):
    """One line per set, as ``selection`` scores it: the ids as the tuple
    prints, the fitness summed in member order as ``fitness_tm`` sums it,
    the summed cardinality and the qualified names.  Sets share few
    fitness values, so each nonzero one is formatted once."""
    texts = _Texts("{:.6f}".format)
    for ids in sets:
        fits, cards, ids_text, names = zip(*[info[i] for i in ids])
        fit = sum(fits, 0.0)
        yield (f"  ({', '.join(ids_text)}{',' if len(ids) == 1 else ''}) "
               f"fitness={texts[fit] if fit else f'{fit:.6f}'} "
               f"afc={sum(cards)} [{', '.join(names)}]\n")


def cmd_demo(args, argv) -> int:
    import random
    from .engine import (bit_string, build_bji, demo_tables, evaluate,
                         naive_join_oracle, MiniTable)
    if args.rows < 0:
        raise UsageError("--rows must be >= 0")
    fact, client, produit, temps = demo_tables()
    dims = {"Ville": (client, "CID", "CID"),
            "Type": (produit, "PID", "PID"),
            "Mois": (temps, "TID", "TID")}
    seed = os.environ.get("ADVISOR_SEED")
    if seed is not None:
        # each fact row's foreign keys are drawn from the dimension keys
        try:
            rng = random.Random(int(seed))
        except ValueError:
            raise ValueError(
                f"ADVISOR_SEED must be an integer, not {seed!r}") from None
        keys = [dim.values(key) for dim, _, key in dims.values()]
        fact = MiniTable(fact.name, ("RID", "CID", "PID", "TID"), tuple(
            (str(r), *(rng.choice(k) for k in keys))
            for r in range(1, args.rows + 1)))
    elif args.rows > len(fact.rows):
        raise UsageError(f"--rows above {len(fact.rows)} needs ADVISOR_SEED")
    else:
        fact = MiniTable(fact.name, fact.columns, fact.rows[:args.rows])
    indexes = {attr: build_bji(fact, dim, fk, key, attr)
               for attr, (dim, fk, key) in dims.items()}
    conds = {"Ville": ["Poitiers", "Nantes"], "Mois": ["Mars"],
             "Type": ["Jouet", "Beaute"]}

    n = len(fact.rows)
    print(f"fact rows: {n}")
    for attr, idx in sorted(indexes.items()):
        for value in sorted(idx.bitmaps):
            print(f"  {attr}={value}: {bit_string(idx.bitmaps[value], n)}")
    for attr in sorted(conds):
        vb = indexes[attr].bitmap_for(conds[attr])
        print(f"VB {attr} IN {conds[attr]}: {bit_string(vb, n)}")
    vbf = evaluate(indexes, conds)
    print(f"VBF: {bit_string(vbf, n)}")
    print(f"selected fact rows: {list(bits(vbf))}")
    agrees = naive_join_oracle(fact, dims, conds) == vbf
    print(f"naive join oracle agrees: {agrees}")
    return EXIT_OK if agrees else EXIT_INTERNAL


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


_INPUTS = (("--catalog", {"required": True}),
           ("--workload", {"required": True}))
_COMMON = _INPUTS + (("--minsup", {"type": float, "default": 0.1}),
                     ("--storage-budget", {"type": int, "default": None}),
                     ("--out", {"default": "."}))

# (name, help, arguments as (flag, keywords), function), in --help order
_COMMANDS = (
    ("advise", "select an index configuration", _COMMON + (
        ("--format", {"choices": ("csv", "json", "text"), "default": "text"}),
        ("--engine", {"default": "tm-ijb",
                      "help": "engine name(s), comma separated"})),
     cmd_advise),
    ("compare", "compare engines by modeled cost", _COMMON + (
        ("--engine", {"default": "tm-ijb,close,dynaclose"}),), cmd_compare),
    ("enumerate", "list minimal transversals", _INPUTS + (
        ("--all", {"action": "store_true"}),), cmd_enumerate),
    ("demo", "bitmap join index walkthrough", (
        ("--rows", {"type": int, "default": 12}),), cmd_demo),
)


def _build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser of ``argv``.  When ``argv`` starts with a command's name,
    one parser of that command alone, which parses ``argv[1:]`` as that
    command's subparser would: same help, usage errors and options.
    Otherwise the top-level parser (prog ``bji-advisor``) with every
    command's subparser, which parses ``argv``, so that the top-level help
    and the missing- and unknown-command messages list every command."""
    named = [c for c in _COMMANDS if argv and argv[0] == c[0]]
    if named:
        p = _Parser(prog=f"bji-advisor {argv[0]}")
        parsers = [p]
    else:
        p = _Parser(prog="bji-advisor",
                    description="Bitmap join index advisor for star schemas")
        sub = p.add_subparsers(dest="command", required=True)
        parsers = [sub.add_parser(name, help=help_)
                   for name, help_, _, _ in _COMMANDS]
    for sp, (_, _, arguments, func) in zip(parsers, named or _COMMANDS):
        for flag, keywords in arguments:
            sp.add_argument(flag, **keywords)
        sp.set_defaults(func=func)
    return p


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # a leading '--' is dropped: the command still follows it
    given = argv[1:] if argv[:1] == ["--"] else argv
    try:
        if not given:    # argparse's message names no command
            raise UsageError(
                "the following arguments are required: command (choose from "
                f"{', '.join([repr(c[0]) for c in _COMMANDS])})")
        parser = _build_parser(given)
        args = parser.parse_args(
            given if parser.prog == "bji-advisor" else given[1:])
        if not 0.0 < getattr(args, "minsup", 0.1) <= 1.0:
            raise UsageError("--minsup must be in (0, 1]")
        budget = getattr(args, "storage_budget", None)
        if budget is not None and budget < 0:
            raise UsageError("--storage-budget must be >= 0")
        code = args.func(args, argv)
        sys.stdout.flush()      # a reader that left shows here, not at exit
        return code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader left: print nothing more, and send what stdout still
        # buffers to the null device so the interpreter's last flush passes
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except (OSError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        pass    # reported below, once the traceback has let the frames go
    print("out of memory: the output does not fit in memory", file=sys.stderr)
    return EXIT_MEMORY


if __name__ == "__main__":
    sys.exit(main())
