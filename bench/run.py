"""Benchmark of the bji-advisor batch tool, end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

NAME is one of bundled, synth-search, synth-templates, enumerate-all (see
bench/README.md).  The run generates its inputs from the seed under
.bench_build/, measures set-up (a fresh interpreter importing
bji_advisor.cli) several times, then starts one single-threaded child that
calls bji_advisor.cli.main in a closed loop for S seconds of invocation time
and checks every output.  With --trace 1 the child also records spans around
each layer's functions and the run reports per-layer metrics instead of the
end-to-end ones.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("bundled", "synth-search", "synth-templates", "enumerate-all")
SETUP_SAMPLES = 16   # half before the child runs, half after
TIME_LIMIT = 170.0   # seconds a whole run may take

END_TO_END = (
    ("invocations_per_kref", "1/kref"),
    ("invocation_ref_p50", "ref"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

# (name, unit, better).  Input properties (queries, rows, edges, vertices,
# edge share, transversality) have no better direction; they are listed as
# "lower" only because every metric must name one.
PER_LAYER = tuple((name, unit, better) for unit, better, names in (
    ("ms", "lower", (
        "schema.load_catalog_file.ms", "workload.parse_workload.ms",
        "workload.build_context_matrix.ms", "workload.ContextMatrix.support.ms",
        "hypergraph.get_min_transversality.ms", "hypergraph.mmcs.ms",
        "hypergraph.berge_enumerate.ms", "selection.tm_ijb.self_ms",
        "selection.mine_closed_frequent_itemsets.ms", "selection.close_select.self_ms",
        "selection.dynaclose_select.self_ms", "costmodel.workload_cost.ms",
        "costmodel.query_cost.ms", "costmodel.cost_report.ms", "cli.self_ms",
        "schema.self_ms", "workload.self_ms", "hypergraph.self_ms",
        "selection.self_ms", "costmodel.self_ms", "trace.invocation_ms")),
    ("count", "lower", (
        "workload.queries", "workload.matrix_rows", "workload.hypergraph_edges",
        "workload.hypergraph_vertices", "workload.ContextMatrix.support.calls",
        "hypergraph.greedy_bound", "hypergraph.mmcs.found",
        "hypergraph.smallest.count", "hypergraph.transversality",
        "hypergraph.greedy_gap", "hypergraph.berge_enumerate.found",
        "selection.candidates_scored", "selection.mine_closed_frequent_itemsets.calls",
        "selection.closed_itemsets", "selection.close_trials",
        "costmodel.workload_cost.calls", "costmodel.query_cost.calls")),
    ("ratio", "lower", (
        "workload.edge_share", "hypergraph.greedy_overshoot_share",
        "costmodel.query_cost_per_workload_cost", "trace.overhead_ratio")),
    ("ratio", "higher", (
        "hypergraph.search_useful_ratio", "selection.close_kept_ratio")),
    ("bytes", "lower", ("cli.output_bytes",)),
) for name in names)


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------

def _argv(kind: str, catalog: str, workload: str, out: str) -> list[str]:
    if kind == "advise":
        return ["advise", "--engine", "tm-ijb", "--catalog", catalog,
                "--workload", workload, "--out", out]
    if kind == "compare":
        return ["compare", "--catalog", catalog, "--workload", workload, "--out", out]
    return ["enumerate", "--all", "--catalog", catalog, "--workload", workload]


def make_plan(root: str, workload: str, seed: int, work: str) -> tuple[dict, list]:
    """Write the inputs and return the child's plan plus the generated
    instances (empty for the bundled inputs, which ignore the seed)."""
    data = os.path.join(root, "src", "bji_advisor", "data")
    inputs, probes, jobs, instances = {}, {}, [], []

    def add_input(name, catalog, sql, referenced, probe):
        inputs[name] = {"catalog": catalog, "sql": sql, "referenced": referenced}
        if probe:
            out = os.path.join(work, "probe-" + name)
            probes[name] = {"argv": _argv("advise", catalog, sql, out), "out": out}

    def add_job(name, kind):
        i = inputs[name]
        out = os.path.join(work, f"out-{len(jobs)}")
        jobs.append({"input": name, "kind": kind, "out": out,
                     "argv": _argv(kind, i["catalog"], i["sql"], out)})

    if workload in ("bundled", "enumerate-all"):
        for name in ("ssb", "tpch") if workload == "bundled" else ("tpch",):
            add_input(name, os.path.join(data, name + ".json"),
                      os.path.join(data, name + ".sql"), None, True)
        for name in inputs:
            add_job(name, "compare" if workload == "bundled" else "enumerate")
    else:
        instances = gen.GENERATORS[workload](seed)
        os.makedirs(os.path.join(work, "inputs"))
        for inst in instances:
            catalog, sql = inst.write(os.path.join(work, "inputs"))
            add_input(inst.name, catalog, sql,
                      {q: sorted(a) for q, a in inst.referenced.items()},
                      workload == "synth-templates")
            add_job(inst.name, "advise" if workload == "synth-search" else "compare")
    return {"inputs": inputs, "probes": probes, "jobs": jobs}, instances


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(root: str, env: dict, samples: int) -> list[float]:
    """Seconds from starting a fresh interpreter until ``bji_advisor.cli`` is
    imported and a first invocation could begin."""
    code = ("import sys, bji_advisor.cli\n"
            "sys.stdout.write('ready\\n'); sys.stdout.flush()")
    out = []
    for _ in range(samples):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], cwd=root, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as p:
            line = p.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = p.communicate(timeout=60)
        if line != b"ready\n" or p.returncode != 0:
            raise BenchError("importing bji_advisor.cli failed: "
                             + err.decode(errors="replace").strip()[-500:])
        out.append(elapsed)
    return out


def run_child(root: str, env: dict, plan_path: str, timeout: float) -> None:
    with subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), plan_path],
                          cwd=root, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as p:
        try:
            out, err = p.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            p.kill()
            p.communicate()
            raise BenchError(f"benchmark child exceeded {timeout:.0f} s")
    if p.returncode != 0:
        raise BenchError(f"benchmark child exited {p.returncode}: "
                         + (err or out).decode(errors="replace").strip()[-2000:])


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def wall_clock(result: dict) -> list[tuple[str, float, str]]:
    """Invocation figures in wall-clock time, as (name, value, unit)."""
    seconds = [t for _, t, _ in result["times"]]
    out = [("invocations_per_s", len(seconds) / sum(seconds), "1/s"),
           ("invocation_ms_p50", statistics.median(seconds) * 1000, "ms")]
    if len(seconds) >= 100:   # at least ten samples beyond the 90th percentile
        out.append(("invocation_ms_p90", statistics.quantiles(seconds, n=10)[8] * 1000, "ms"))
    return out


def end_to_end(result: dict, setup: list[float]) -> dict:
    """Invocation times in reference units (see child.reference): a ref is
    the time the fixed reference computation took next to the invocation."""
    times = result["times"]
    return {
        "invocations_per_kref": 1000 * sum(r for _, _, r in times) / sum(t for _, t, _ in times),
        "invocation_ref_p50": statistics.median(t / r for _, t, r in times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": result["peak_rss_kib"] / 1024,
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(result: dict) -> tuple[dict, float]:
    """Means per traced invocation, and the largest difference between an
    invocation's duration and the sum of its spans' self times."""
    sums = result["summaries"]

    def mean(f) -> float:
        return statistics.fmean(f(s) for s in sums)

    def ms(name):
        return mean(lambda s: s["total"].get(name, 0.0) * 1000)

    def self_ms(name):
        return mean(lambda s: s["self"].get(name, 0.0) * 1000)

    def calls(name):
        return mean(lambda s: s["calls"].get(name, 0))

    def counter(key):
        return mean(lambda s: s["counters"].get(key, 0))

    def layer_self(layer):
        return mean(lambda s: sum(v for k, v in s["self"].items()
                                  if k.split(".")[0] == layer) * 1000)

    def gap(s):
        c = s["counters"]
        return (c.get("hypergraph.get_min_transversality.bound", 0)
                - c.get("hypergraph.smallest_transversals.size", 0))

    rows = counter("workload.build_context_matrix.rows")
    edges = counter("workload.ContextMatrix.hypergraph.edges")
    found = counter("hypergraph.mmcs.found")
    kept = counter("selection.close_select.kept")
    trials = kept + counter("selection.close_select.skipped")
    m = {
        "schema.load_catalog_file.ms": ms("schema.load_catalog_file"),
        "workload.parse_workload.ms": ms("workload.parse_workload"),
        "workload.queries": counter("workload.parse_workload.queries"),
        "workload.build_context_matrix.ms": ms("workload.build_context_matrix"),
        "workload.matrix_rows": rows,
        "workload.hypergraph_edges": edges,
        "workload.hypergraph_vertices": counter("workload.ContextMatrix.hypergraph.vertices"),
        "workload.edge_share": _ratio(edges, rows),
        "workload.ContextMatrix.support.calls": calls("workload.ContextMatrix.support"),
        "workload.ContextMatrix.support.ms": ms("workload.ContextMatrix.support"),
        "hypergraph.get_min_transversality.ms": ms("hypergraph.get_min_transversality"),
        "hypergraph.greedy_bound": counter("hypergraph.get_min_transversality.bound"),
        "hypergraph.mmcs.ms": ms("hypergraph.mmcs"),
        "hypergraph.mmcs.found": found,
        "hypergraph.smallest.count": counter("hypergraph.smallest_transversals.count"),
        "hypergraph.transversality": counter("hypergraph.smallest_transversals.size"),
        "hypergraph.greedy_gap": mean(gap),
        "hypergraph.greedy_overshoot_share": mean(lambda s: float(gap(s) > 0)),
        "hypergraph.search_useful_ratio": _ratio(
            counter("hypergraph.smallest_transversals.count"), found),
        "hypergraph.berge_enumerate.ms": ms("hypergraph.berge_enumerate"),
        "hypergraph.berge_enumerate.found": counter("hypergraph.berge_enumerate.found"),
        "selection.tm_ijb.self_ms": self_ms("selection.tm_ijb"),
        "selection.candidates_scored": calls("selection.fitness_tm"),
        "selection.mine_closed_frequent_itemsets.ms": ms("selection.mine_closed_frequent_itemsets"),
        "selection.mine_closed_frequent_itemsets.calls": calls("selection.mine_closed_frequent_itemsets"),
        "selection.closed_itemsets": counter("selection.mine_closed_frequent_itemsets.closed"),
        "selection.close_select.self_ms": self_ms("selection.close_select"),
        "selection.close_trials": trials,
        "selection.close_kept_ratio": _ratio(kept, trials),
        "selection.dynaclose_select.self_ms": self_ms("selection.dynaclose_select"),
        "costmodel.workload_cost.calls": calls("costmodel.workload_cost"),
        "costmodel.workload_cost.ms": ms("costmodel.workload_cost"),
        "costmodel.query_cost.calls": calls("costmodel.query_cost"),
        "costmodel.query_cost.ms": ms("costmodel.query_cost"),
        "costmodel.query_cost_per_workload_cost": _ratio(
            calls("costmodel.query_cost"), calls("costmodel.workload_cost")),
        "costmodel.cost_report.ms": ms("costmodel.cost_report"),
        "cli.self_ms": self_ms(tracing.ROOT),
        "cli.output_bytes": statistics.fmean(result["output_bytes"]),
    }
    for layer in tracing.LAYERS:
        m[f"{layer}.self_ms"] = layer_self(layer)
    m["trace.invocation_ms"] = mean(lambda s: s["root"] * 1000)
    # each traced invocation directly follows an untraced one of the same input
    m["trace.overhead_ratio"] = statistics.median(
        t / u for (_, u, _), (_, t) in zip(result["times"], result["traced"])) - 1
    error = max(abs(sum(s["self"].values()) - s["root"]) for s in sums)
    return {name: m[name] for name, _, _ in PER_LAYER}, error


# ---------------------------------------------------------------------------
# static facts
# ---------------------------------------------------------------------------

def static_facts(root: str) -> dict:
    pkg = os.path.join(root, "src", "bji_advisor")
    lines = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                lines[name[:-3]] = sum(1 for line in fh if line.strip())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": _commit(root), "src_nonblank_lines": lines}


def _commit(root: str) -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def run_workload(root: str, workload: str, seed: int, seconds: int,
                 trace: bool, started: float) -> tuple[list[str], dict]:
    """Run one workload; return report lines and the result object."""
    base = os.path.join(root, ".bench_build", "advisor")
    work = os.path.join(base, f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        plan, instances = make_plan(root, workload, seed, work)
        env = child_env(root)
        setup = measure_setup(root, env, SETUP_SAMPLES // 2)
        remaining = TIME_LIMIT - (time.monotonic() - started)
        plan.update(seconds=seconds, trace=trace,
                    wall_limit=max(1.0, min(3 * seconds + 30, remaining - 30)),
                    result=os.path.join(work, "result.json"),
                    spans=os.path.join(base, f"spans-{workload}-seed{seed}.jsonl"))
        plan_path = os.path.join(work, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        run_child(root, env, plan_path, remaining - 10)
        setup += measure_setup(root, env, SETUP_SAMPLES // 2)
        with open(plan["result"], encoding="utf-8") as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = [f"== {workload}  seed {seed}  trace {int(trace)}  "
             f"closed loop, 1 client, {seconds} s of invocations",
             "static " + json.dumps(static_facts(root), sort_keys=True)]
    over = 0
    for inst in instances:
        shape = gen.shape_of(inst)
        exact = result["exact"].get(inst.name)
        shape.update(exact=exact, overshoot=exact is not None and shape["greedy_bound"] > exact)
        over += shape["overshoot"]
        lines.append(f"instance {inst.name} " + json.dumps(shape, sort_keys=True))
    if instances:
        lines.append(f"greedy bound overshoots the exact size on {over} of "
                     f"{len(instances)} instances")

    failed = len(result["failures"])
    correct = failed == 0
    n = len(result["times"])
    lines.append(f"invocations: {n} timed, {result['attempted']} attempted "
                 f"(probes, warm-up and traced ones included), {failed} failed, "
                 f"failed_ratio {failed / result['attempted']:.4f}")
    lines += [f"  FAILED {f}" for f in result["failures"][:10]]
    if trace:
        metrics, error = per_layer(result)
        lines.append(f"traced invocations: {len(result['traced'])}; self times sum to "
                     f"invocation time within {error * 1e6:.3f} us")
        if error > 1e-6:
            correct = False
            lines.append("  FAILED span self times do not sum to the invocation time")
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics = end_to_end(result, setup)
        units = dict(END_TO_END)
        ref_ms = statistics.median(r for _, _, r in result["times"]) * 1000
        lines.append(f"setup samples {SETUP_SAMPLES}, invocation samples {n}, "
                     f"median reference {ref_ms:.4f} ms (1 ref)")
        lines += [f"wall clock: {k} {v:.6g} {unit}" for k, v, unit in wall_clock(result)]
    for k, v in metrics.items():
        lines.append(f"{k} {v:.6g} {units[k]}")
    return lines, {"correct": correct, "attempted": result["attempted"], "failed": failed,
                   "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    started = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "bji_advisor", "cli.py")):
        print("error: run from the root of a bji-advisor checkout "
              "(src/bji_advisor/cli.py not found)", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            lines, result = run_workload(root, args.workload, args.seed, args.seconds,
                                         bool(args.trace), started)
            print("\n".join(lines))
            print(json.dumps(result))
            return 0
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            for trace in (False, True):
                lines, result = run_workload(root, workload, args.seed, args.seconds,
                                             trace, time.monotonic())
                print("\n".join(lines), flush=True)
                combined["correct"] &= result["correct"]
                combined["attempted"] += result["attempted"]
                combined["failed"] += result["failed"]
                combined["metrics"].update(
                    {f"{workload}.{k}": v for k, v in result["metrics"].items()})
        print(json.dumps(combined))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
