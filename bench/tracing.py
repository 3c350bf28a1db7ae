"""Spans around calls into the advisor's layers, recorded from outside.

The tracer patches module attributes of ``bji_advisor`` with wrappers that
record a span per call: name, start, end, parent span and the invocation it
belongs to.  Names a module imported directly from another (``cli`` imports
``parse_workload``, ``selection`` imports ``smallest_transversals``) are
patched where they are looked up, so every call path is seen.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict


def _smallest(result) -> dict:
    return {"count": len(result), "size": len(result[0]) if result else 0}


# (owner module or class path, attribute, span name, counter on the result)
TARGETS = (
    ("cli", "load_catalog_file", "schema.load_catalog_file", None),
    ("cli", "parse_workload", "workload.parse_workload",
     lambda r: {"queries": len(r)}),
    ("cli", "build_context_matrix", "workload.build_context_matrix",
     lambda r: {"rows": len(r.rows)}),
    ("workload.ContextMatrix", "hypergraph", "workload.ContextMatrix.hypergraph",
     lambda r: {"edges": len(r.edges), "vertices": len(r.vertices)}),
    ("workload.ContextMatrix", "support", "workload.ContextMatrix.support", None),
    ("cli", "smallest_transversals", "hypergraph.smallest_transversals", _smallest),
    ("selection", "smallest_transversals", "hypergraph.smallest_transversals", _smallest),
    ("hypergraph", "get_min_transversality", "hypergraph.get_min_transversality",
     lambda r: {"bound": r[0]}),
    ("hypergraph", "mmcs", "hypergraph.mmcs", lambda r: {"found": len(r)}),
    ("cli", "berge_enumerate", "hypergraph.berge_enumerate",
     lambda r: {"found": len(r)}),
    ("selection", "tm_ijb", "selection.tm_ijb", None),
    ("selection", "fitness_tm", "selection.fitness_tm", None),
    ("selection", "mine_closed_frequent_itemsets",
     "selection.mine_closed_frequent_itemsets", lambda r: {"closed": len(r)}),
    ("selection", "close_select", "selection.close_select",
     lambda r: {"kept": len(r.attrs),
                "skipped": sum(1 for n in r.notes if "skipped" in n)}),
    ("selection", "dynaclose_select", "selection.dynaclose_select", None),
    ("costmodel", "workload_cost", "costmodel.workload_cost", None),
    ("costmodel", "query_cost", "costmodel.query_cost", None),
    ("costmodel", "cost_report", "costmodel.cost_report", None),
)

ROOT = "cli.main"   # the invocation; its self time is the cli layer's
LAYERS = ("schema", "workload", "hypergraph", "selection", "costmodel")


def _resolve(path: str):
    module, _, cls = path.partition(".")
    owner = importlib.import_module(f"bji_advisor.{module}")
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Records spans of wrapped calls; one instance per benchmark run."""

    def __init__(self) -> None:
        # (invocation, span id, parent id, name, start, end, counters)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._invocation = 0
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (self._invocation, sid, parent, name, start, end, None)
            if counter is not None:
                spans[sid] = spans[sid][:6] + (counter(result),)
            return result

        return wrapper

    def install(self) -> None:
        for path, attr, name, counter in TARGETS:
            owner = _resolve(path)
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, counter))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def invoke(self, fn, *args):
        """Run ``fn(*args)`` as the root span of a new invocation."""
        self._invocation += 1
        return self._wrap(ROOT, fn, None)(*args)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"invocation": s[0], "id": s[1],
                                     "parent": s[2], "name": s[3],
                                     "start": s[4], "end": s[5],
                                     "counters": s[6]}) + "\n")


def summarize(spans: list[tuple]) -> list[dict]:
    """Per invocation: inclusive and self seconds and calls per span name,
    summed counters, and the root span's duration."""
    by_inv: dict[int, list[tuple]] = defaultdict(list)
    for s in spans:
        by_inv[s[0]].append(s)
    out = []
    for inv in sorted(by_inv):
        group = by_inv[inv]
        children: dict[int, list[tuple]] = defaultdict(list)
        for s in group:
            children[s[2]].append(s)
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        counters: dict[str, float] = defaultdict(float)
        root = 0.0
        for s in group:
            covered, last = 0.0, s[4]
            for c in sorted(children[s[1]], key=lambda c: c[4]):
                lo, hi = max(c[4], last), min(c[5], s[5])
                if hi > lo:
                    covered += hi - lo
                    last = hi
            name = s[3]
            total[name] += s[5] - s[4]
            own[name] += (s[5] - s[4]) - covered
            calls[name] += 1
            for k, v in (s[6] or {}).items():
                counters[f"{name}.{k}"] += v
            if name == ROOT:
                root = s[5] - s[4]
        out.append({"root": root, "total": dict(total), "self": dict(own),
                    "calls": dict(calls), "counters": dict(counters)})
    return out
