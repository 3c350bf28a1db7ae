"""Command-line front end: advise, compare, enumerate, demo.

Report files never embed timestamps; run metadata (time, arguments) goes to a
separate metadata.json so consecutive runs over identical inputs produce
byte-identical reports.

Exit codes: 0 success (including an empty configuration), 1 usage error,
2 input validation error, 3 internal invariant breach.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys
from datetime import datetime, timezone

from . import costmodel, selection
from .engine import (bit_string, build_bji, demo_tables, evaluate,
                     naive_join_oracle, selected_rows, EngineError, MiniTable)
from .hypergraph import berge_enumerate, bits, smallest_transversals
from .schema import CatalogError, StarSchema, load_catalog_file
from .workload import (ContextMatrix, ParseError, build_context_matrix,
                       parse_workload)

ENGINES = ("tm-ijb", "close", "dynaclose")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


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
    bad = [e for e in names if e not in ENGINES]
    if bad or not names:
        raise UsageError(f"unknown engine(s) {bad}; choose from {ENGINES}")
    return names


def _select(args, engines: list[str]):
    """Load the inputs, create the output directory, run ``engines`` and cost
    each configuration against the no-index baseline, computed once."""
    schema, matrix = _load_inputs(args)
    os.makedirs(args.out, exist_ok=True)
    baseline = costmodel.workload_cost(schema, matrix.queries, ())
    run = {"tm-ijb": lambda: selection.tm_ijb(schema, matrix),
           "close": lambda: selection.close_select(
               schema, matrix, baseline, minsup=args.minsup,
               storage_budget=args.storage_budget),
           "dynaclose": lambda: selection.dynaclose_select(
               schema, matrix, minsup=args.minsup)}
    configs = [run[e]() for e in engines]
    reports = [costmodel.cost_report(schema, matrix.queries, c.attrs, baseline)
               for c in configs]
    return schema, matrix, configs, reports


def ddl_statements(schema: StarSchema, attrs) -> list[str]:
    """One CREATE BITMAP INDEX statement per configured dimension attribute.

    Snowflake dimensions chain every table and join condition on the path
    from the fact table.
    """
    out = []
    for q in sorted(attrs):
        a = schema.attribute(q)
        path = schema.join_path(a.table)
        if path is None:
            raise CatalogError(f"no join path from fact to {a.table}")
        tables = [schema.fact.name]
        conds = []
        for j in path:
            tables.append(schema.attribute(j.dim_attr).table)
            conds.append(f"{j.fact_attr} = {j.dim_attr}")
        name = f"{schema.fact.name}_{a.table}_{a.name}_idx".lower()
        out.append(
            f"CREATE BITMAP INDEX {name}\n"
            f"ON {schema.fact.name}({a.table}.{a.name})\n"
            f"FROM {', '.join(tables)}\n"
            f"WHERE {' AND '.join(conds)};")
    return out


def _motif_doc(m: selection.ScoredMotif) -> dict:
    return {"ids": list(m.ids), "attrs": list(m.attrs),
            "fitness": round(m.fitness, 12), "afc": m.afc,
            "support": round(m.support, 12), "selected": m.selected}


def _config_doc(schema: StarSchema, cfg: selection.Configuration,
                report: costmodel.CostReport) -> dict:
    return {
        "engine": cfg.engine,
        "configuration": list(cfg.attrs),
        "notes": list(cfg.notes),
        "storage_bytes": costmodel.config_storage(schema, cfg.attrs),
        "cost": report.to_document(),
        "trace": [_motif_doc(m) for m in cfg.trace],
    }


def _matrix_doc(matrix: ContextMatrix) -> dict:
    return {
        "columns": [{"id": i + 1, "attr": q}
                    for i, q in enumerate(matrix.columns)],
        "rows": [{"query": q.id, "attrs": list(bits(row))}
                 for q, row in zip(matrix.queries, matrix.rows)],
    }


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _write_metadata(out_dir: str, argv) -> None:
    _write(os.path.join(out_dir, "metadata.json"), _json_text({
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "argv": list(argv),
    }))


def _engine_rows(schema, configs, reports) -> list[dict]:
    rows = [{"engine": "baseline", "total_cost": reports[0].baseline_total,
             "storage_bytes": 0, "reduction_rate": 0.0}]
    for cfg, report in zip(configs, reports):
        rows.append({
            "engine": cfg.engine,
            "total_cost": report.total,
            "storage_bytes": costmodel.config_storage(schema, cfg.attrs),
            "reduction_rate": report.reduction,
        })
    return rows


def _rows_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(
        buf, fieldnames=["engine", "total_cost", "storage_bytes",
                         "reduction_rate"], lineterminator="\n")
    writer.writeheader()
    for r in rows:
        writer.writerow({**r, "total_cost": f"{r['total_cost']:.4f}",
                         "reduction_rate": f"{r['reduction_rate']:.6f}"})
    return buf.getvalue()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_advise(args, argv) -> int:
    schema, matrix, configs, reports = _select(args, _parse_engines(args.engine))
    trace = {"matrix": _matrix_doc(matrix),
             "engines": {c.engine: _config_doc(schema, c, r)
                         for c, r in zip(configs, reports)}}
    _write(os.path.join(args.out, "trace.json"), _json_text(trace))

    lines = []
    for cfg in configs:
        ddl = ddl_statements(schema, cfg.attrs)
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
               _rows_csv(_engine_rows(schema, configs, reports)))
    else:
        _write(os.path.join(args.out, "report.txt"), "\n".join(lines) + "\n")
    _write_metadata(args.out, argv)
    print("\n".join(lines))
    return EXIT_OK


def cmd_compare(args, argv) -> int:
    engines = _parse_engines(args.engine)
    if len(engines) < 2:
        raise UsageError("compare needs at least two engines")
    schema, matrix, configs, reports = _select(args, engines)
    rows = _engine_rows(schema, configs, reports)
    _write(os.path.join(args.out, "compare.csv"), _rows_csv(rows))
    _write(os.path.join(args.out, "compare.json"), _json_text(
        {"rows": [{**r, "total_cost": round(r["total_cost"], 6),
                   "reduction_rate": round(r["reduction_rate"], 9)}
                  for r in rows],
         "engines": {c.engine: _config_doc(schema, c, r)
                     for c, r in zip(configs, reports)}}))
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
    print("columns:")
    for v in h.vertices:
        print(f"  {v}: {matrix.name_of(v)}")
    print(f"{'all' if args.all else 'smallest'} minimal transversals: "
          f"{len(tms)}")
    for ids in tms:
        fit = selection.fitness_tm(schema, matrix, ids)
        afc = selection.afc_sum(schema, matrix, ids)
        names = ", ".join(matrix.name_of(i) for i in ids)
        print(f"  {ids} fitness={fit:.6f} afc={afc} [{names}]")
    return EXIT_OK


def _random_demo(rng: random.Random, n_rows: int):
    villes = ["Poitiers", "Paris", "Nantes"]
    client_rows = tuple((str(c), f"C{c}", rng.choice(villes))
                        for c in range(1, 5))
    client = MiniTable("CLIENT", ("CID", "Nom", "Ville"), client_rows)
    fact_rows = tuple((str(r), rng.choice([row[0] for row in client_rows]))
                      for r in range(1, n_rows + 1))
    fact = MiniTable("VENTES", ("RID", "CID"), fact_rows)
    return fact, client


def cmd_demo(args, argv) -> int:
    if args.rows < 0:
        raise UsageError("--rows must be >= 0")
    seed = os.environ.get("ADVISOR_SEED")
    if seed is not None:
        rng = random.Random(int(seed))
        fact, client = _random_demo(rng, args.rows)
        idx = build_bji(fact, client, "CID", "CID", "Ville")
        conds = {"Ville": ["Poitiers", "Nantes"]}
        indexes = {"Ville": idx}
        dims = {"Ville": (client, "CID", "CID")}
    else:
        fact, client, produit, temps = demo_tables()
        if args.rows > len(fact.rows):
            raise UsageError(f"--rows above {len(fact.rows)} needs ADVISOR_SEED")
        fact = MiniTable(fact.name, fact.columns, fact.rows[:args.rows])
        indexes = {
            "Ville": build_bji(fact, client, "CID", "CID", "Ville"),
            "Type": build_bji(fact, produit, "PID", "PID", "Type"),
            "Mois": build_bji(fact, temps, "TID", "TID", "Mois"),
        }
        dims = {"Ville": (client, "CID", "CID"),
                "Type": (produit, "PID", "PID"),
                "Mois": (temps, "TID", "TID")}
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
    rows = selected_rows(vbf)
    print(f"selected fact rows: {rows}")
    oracle = naive_join_oracle(fact, dims, conds)
    agrees = selected_rows(oracle) == rows
    print(f"naive join oracle agrees: {agrees}")
    return EXIT_OK if agrees else EXIT_INTERNAL


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="bji-advisor",
                description="Bitmap join index advisor for star schemas")
    sub = p.add_subparsers(dest="command", required=True)

    def inputs(sp):
        sp.add_argument("--catalog", required=True)
        sp.add_argument("--workload", required=True)

    def common(sp):
        inputs(sp)
        sp.add_argument("--minsup", type=float, default=0.1)
        sp.add_argument("--storage-budget", type=int, default=None)
        sp.add_argument("--out", default=".")
        sp.add_argument("--format", choices=("csv", "json", "text"),
                        default="text")

    sp = sub.add_parser("advise", help="select an index configuration")
    common(sp)
    sp.add_argument("--engine", default="tm-ijb",
                    help="engine name(s), comma separated")
    sp.set_defaults(func=cmd_advise)

    sp = sub.add_parser("compare", help="compare engines by modeled cost")
    common(sp)
    sp.add_argument("--engine", default="tm-ijb,close,dynaclose")
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("enumerate", help="list minimal transversals")
    inputs(sp)
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true")
    group.add_argument("--smallest", action="store_true", default=True)
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("demo", help="bitmap join index walkthrough")
    sp.add_argument("--rows", type=int, default=12)
    sp.set_defaults(func=cmd_demo)
    return p


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        if not 0.0 < getattr(args, "minsup", 0.1) <= 1.0:
            raise UsageError("--minsup must be in (0, 1]")
        return args.func(args, argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CatalogError, ParseError, EngineError, OSError,
            ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AssertionError as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
