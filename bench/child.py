"""One benchmark run inside a fresh, single-threaded interpreter.

Usage: python3 bench/child.py PLAN.json

The plan (written by run.py) lists the invocations to cycle through.  The
child drives ``bji_advisor.cli.main(argv)`` in-process as a closed loop with
one client: each invocation starts after the previous one returns and its
outputs are checked.  Only the call to ``main`` is timed.  A fixed
reference computation is timed before, during and after each untimed-loop
invocation (see ``Speed``).  With tracing on, untraced and traced invocations
alternate, so the tracing overhead is measured on the same inputs in the same
process.  Results go to the plan's result file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback

import checks
import tracing


def _input(spec: dict) -> dict:
    """Catalog document and, for generated inputs, the referenced attribute
    sets by query id and the distinct ones (the hypergraph's edges)."""
    inp = {"catalog": _read_json(spec["catalog"]), "referenced": None, "edges": None}
    if spec["referenced"]:
        inp["referenced"] = {int(q): frozenset(a) for q, a in spec["referenced"].items()}
        inp["edges"] = list(dict.fromkeys(inp["referenced"].values()))
    return inp


class Run:
    def __init__(self, plan: dict, main) -> None:
        self.main = main
        self.attempted = 0
        self.failures: list[str] = []
        self.inputs = {name: _input(spec) for name, spec in plan["inputs"].items()}
        self.digests: dict[int, str] = {}
        self.exact: dict[str, int] = {}
        self.output_bytes: dict[int, int] = {}

    def invoke(self, argv: list[str], out: str, call=None, speed=None):
        """Run one invocation with a fresh output directory and captured
        streams; return (exit code, seconds, mean reference seconds or None,
        stdout, stderr)."""
        shutil.rmtree(out, ignore_errors=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        ref = None
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if speed is not None:
                speed.start()
            start = time.perf_counter()
            try:
                code = call(self.main, argv) if call else self.main(argv)
            except Exception:   # an advisor crash fails this invocation only
                code = None
                traceback.print_exc()
            end = time.perf_counter()
            seconds = end - start
            if speed is not None:
                inside, ref = speed.stop(start, end)
                seconds -= inside
        self.attempted += 1
        return code, seconds, ref, stdout.getvalue(), stderr.getvalue()

    def fail(self, label: str, message: str) -> None:
        self.failures.append(f"{label}: {message}")

    def probe(self, name: str, spec: dict) -> None:
        """Untimed ``advise --engine tm-ijb`` on an input, checked, to learn
        the edges and smallest transversals the timed jobs are checked with."""
        code, _, _, _, err = self.invoke(spec["argv"], spec["out"])
        inp = self.inputs[name]
        try:
            checks.require(code == 0, f"exit code {code}: {err.strip()[-300:]}")
            checks.check_files("advise", spec["out"])
            inp.update(checks.check_advise(spec["out"], inp["catalog"], inp["edges"],
                                           inp["referenced"]))
        except checks.CHECK_ERRORS as exc:
            self.fail(f"probe {name}", str(exc))

    def check_job(self, index: int, job: dict, code: int, stdout: str, err: str) -> None:
        """Full check on a job's first run; later runs must repeat its
        output byte for byte (reports are deterministic)."""
        inp = self.inputs[job["input"]]
        kind, out = job["kind"], job["out"]
        try:
            checks.require(code == 0, f"exit code {code}: {err.strip()[-300:]}")
            checks.check_files(kind, out)
            digest, size = _digest(out, stdout)
            if index in self.digests:
                checks.require(digest == self.digests[index],
                               "output differs from the first run of the same input")
                return
            if kind == "advise":
                got = checks.check_advise(out, inp["catalog"], inp["edges"], inp["referenced"])
            elif kind == "compare":
                got = checks.check_compare(out, inp["catalog"], inp["edges"])
            else:
                checks.check_enumerate_all(stdout, inp["edges"], inp["smallest"])
                got = {"smallest": inp["smallest"]}
            self.exact[job["input"]] = len(got["smallest"][0])
            self.digests[index] = digest
            self.output_bytes[index] = size
        except checks.CHECK_ERRORS as exc:
            self.fail(job["input"], str(exc))


_REF_SETS = [frozenset(random.Random(k).sample(range(64), 12)) for k in range(8)]


def reference() -> float:
    """Seconds taken by a fixed pure-Python computation of a few tenths of a
    millisecond: string and dict work, small-set unions and intersections, and float
    arithmetic, like the advisor's parsing, search and cost model.  Never
    change it: results in reference units compare only across runs of the
    same computation."""
    start = time.perf_counter()
    table: dict[str, int] = {}
    for i in range(150):
        key = f"k{i % 61}"
        table[key] = table.get(key, 0) + len(frozenset((i & 15, i & 7, i % 5)))
    kept = [a | b for a in _REF_SETS for b in _REF_SETS
            if len((a | b) & _REF_SETS[len(a | b) % 8]) > 3]
    kept.sort(key=len)
    x = 0.0
    for i in range(300):
        x += (i % 7) * 1.5 / (1 + (i & 3))
    return time.perf_counter() - start


class Speed:
    """Samples the machine's speed around one invocation.

    The machine's speed changes by tens of percent within a second, so an
    invocation is timed in units of the reference computation as well as in
    seconds.  The reference is timed once before the invocation, every
    ``PERIOD`` seconds during it (from a SIGALRM handler, which runs between
    the advisor's bytecodes) and once after; the time the samples taken
    inside the invocation spent is subtracted from the invocation's.
    """

    PERIOD = 0.02

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []   # (seconds, end time)
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        self.samples.append((reference(), time.perf_counter()))

    def start(self) -> None:
        self.samples = [(reference(), 0.0)]
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)

    def stop(self, start: float, end: float) -> tuple[float, float]:
        """Stop sampling; return the seconds spent in samples between
        ``start`` and ``end``, and the mean sample."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        inside = sum(d for d, t in self.samples if start < t <= end)
        self.samples.append((reference(), 0.0))
        return inside, statistics.fmean(d for d, _ in self.samples)


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _digest(out: str, stdout: str) -> tuple[str, int]:
    """Digest and byte count of stdout and every output file except the
    timestamped metadata.json."""
    h = hashlib.sha256(stdout.encode())
    size = len(stdout.encode())
    for name in sorted(os.listdir(out)) if os.path.isdir(out) else ():
        with open(os.path.join(out, name), "rb") as fh:
            data = fh.read()
        size += len(data)
        if name != "metadata.json":
            h.update(name.encode() + b"\0" + data)
    return h.hexdigest(), size


def main() -> int:
    plan = _read_json(sys.argv[1])
    from bji_advisor import cli

    run = Run(plan, cli.main)
    for name, spec in plan["probes"].items():
        run.probe(name, spec)
    jobs = plan["jobs"]
    tracer = tracing.Tracer() if plan["trace"] else None

    speed = Speed()

    # warm-up: the first job once, untimed but checked
    code, _, _, out, err = run.invoke(jobs[0]["argv"], jobs[0]["out"], speed=speed)
    run.check_job(0, jobs[0], code, out, err)

    times: list[tuple[int, float, float]] = []   # job, seconds, reference
    traced: list[tuple[int, float]] = []
    measured, i = 0.0, 0
    deadline = time.monotonic() + plan["wall_limit"]
    while measured < plan["seconds"] and time.monotonic() < deadline:
        index = i % len(jobs)
        job = jobs[index]
        code, seconds, ref, out, err = run.invoke(job["argv"], job["out"], speed=speed)
        run.check_job(index, job, code, out, err)
        times.append((index, seconds, ref))
        measured += seconds
        if tracer is not None:
            tracer.install()
            try:
                code, seconds, _, out, err = run.invoke(job["argv"], job["out"], tracer.invoke)
            finally:
                tracer.uninstall()
            run.check_job(index, job, code, out, err)
            traced.append((index, seconds))
            measured += seconds
        i += 1

    result = {
        "times": times,
        "traced": traced,
        "attempted": run.attempted,
        "failures": run.failures,
        "exact": run.exact,
        "output_bytes": [run.output_bytes.get(k, 0) for k, *_ in traced or times],
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["summaries"] = tracing.summarize(tracer.spans)
        tracer.write(plan["spans"])
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
