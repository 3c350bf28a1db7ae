"""Output checks that hold for any correct advisor.

They read only the advisor's output files and stdout, the catalog document
and, for synthetic inputs, the generator's record of referenced attributes.
None of them compares against a digest of earlier output, so a correctness
fix that changes what the advisor prints still passes.
"""

from __future__ import annotations

import json
import math
import os
import re

EXPECTED_FILES = {
    "advise": ("trace.json", "tm-ijb.sql", "report.txt", "metadata.json"),
    "compare": ("compare.csv", "compare.json", "metadata.json"),
    "enumerate": (),
}


class CheckFailed(Exception):
    pass


# what a check may raise on output that is wrong or malformed
CHECK_ERRORS = (CheckFailed, OSError, ValueError, KeyError, IndexError,
                TypeError, ArithmeticError)


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _load(out: str, name: str):
    with open(os.path.join(out, name), encoding="utf-8") as fh:
        return json.load(fh)


def check_files(kind: str, out: str) -> None:
    missing = [f for f in EXPECTED_FILES[kind]
               if not os.path.isfile(os.path.join(out, f))]
    require(not missing, f"missing output files {missing}")


def check_minimal_transversals(candidates: list[frozenset], edges: list[frozenset],
                               what: str) -> None:
    """Every candidate hits every edge and each member has a private edge
    (one the candidate hits only through that member); no duplicates."""
    require(len(set(candidates)) == len(candidates), f"{what}: duplicates")
    for t in candidates:
        private = set()
        for e in edges:
            hit = t & e
            require(bool(hit), f"{what}: {sorted(t)} misses edge {sorted(e)}")
            if len(hit) == 1:
                private |= hit
        require(private == t, f"{what}: {sorted(t)} is not minimal, "
                f"{sorted(t - private)} have no private edge")


def matrix_rows(trace: dict) -> dict[int, frozenset[str]]:
    """Referenced attribute names by query id, from ``trace.json``."""
    names = {c["id"]: c["attr"] for c in trace["matrix"]["columns"]}
    return {r["query"]: frozenset(names[i] for i in r["attrs"])
            for r in trace["matrix"]["rows"]}


def check_rows(rows: dict[int, frozenset[str]],
               referenced: dict[int, frozenset[str]]) -> None:
    require(set(rows) == set(referenced),
            f"matrix has queries {sorted(set(rows) ^ set(referenced))[:5]} "
            "that the generator does not, or lacks some it does")
    wrong = [q for q in referenced if rows[q] != referenced[q]]
    require(not wrong, f"matrix rows differ from the generated queries at {wrong[:5]}")


def storage_bytes(catalog: dict, config: list[str]) -> int:
    """Sum of ceil((rowid_bits + cardinality) * fact_rows / 8) over the
    configuration."""
    fact_rows = next(t["rows"] for t in catalog["tables"] if t["role"] == "fact")
    rowid_bits = catalog.get("rowid_bits", 80)
    card = {f"{a['table']}.{a['name']}".lower(): a["cardinality"]
            for a in catalog["attributes"]}
    return sum(math.ceil((rowid_bits + card[a.lower()]) * fact_rows / 8)
               for a in set(config))


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def check_cost_rows(rows: list[dict], configs: dict[str, list[str]],
                    catalog: dict) -> None:
    """compare rows: storage formula, reduction rate formula, no engine
    costlier than the no-index baseline."""
    base = rows[0]
    require(base["engine"] == "baseline", "first compare row is not the baseline")
    b = base["total_cost"]
    for r in rows[1:]:
        e = r["engine"]
        want = storage_bytes(catalog, configs[e])
        require(r["storage_bytes"] == want,
                f"{e}: storage {r['storage_bytes']} != {want}")
        require(_close(r["reduction_rate"], (b - r["total_cost"]) / b, 1e-8),
                f"{e}: reduction_rate {r['reduction_rate']} != (baseline - total) / baseline")
        require(r["total_cost"] <= b + 1e-6, f"{e}: costs {r['total_cost']} > baseline {b}")


def check_config_doc(doc: dict, catalog: dict) -> None:
    """One engine's entry in trace.json or compare.json."""
    e = doc["engine"]
    cost = doc["cost"]
    want = storage_bytes(catalog, doc["configuration"])
    require(doc["storage_bytes"] == want, f"{e}: storage {doc['storage_bytes']} != {want}")
    b, t = cost["baseline_total"], cost["total"]
    require(_close(t, sum(q["cost"] for q in cost["per_query"]), 1e-9),
            f"{e}: total cost is not the sum of its per-query costs")
    require(_close(cost["reduction"], (b - t) / b, 1e-12),
            f"{e}: reduction {cost['reduction']} != (baseline - total) / baseline")
    require(t <= b * (1 + 1e-12), f"{e}: costs {t} > baseline {b}")


def tm_candidates(doc: dict) -> list[frozenset[str]]:
    """The tm-ijb engine's scored smallest transversals; all one size."""
    cands = [frozenset(m["attrs"]) for m in doc["trace"]]
    require(bool(cands), "tm-ijb lists no candidate")
    require(len({len(c) for c in cands}) == 1,
            f"tm-ijb candidates have sizes {sorted({len(c) for c in cands})}")
    return cands


def check_advise(out: str, catalog: dict, edges: list[frozenset[str]] | None,
                 referenced: dict[int, frozenset[str]] | None) -> dict:
    """``advise --engine tm-ijb``.  Edges default to the matrix rows of the
    output itself.  Returns the edges and smallest candidates for later
    checks."""
    trace = _load(out, "trace.json")
    rows = matrix_rows(trace)
    if referenced is not None:
        check_rows(rows, referenced)
    if edges is None:
        edges = list(dict.fromkeys(rows.values()))
    doc = trace["engines"]["tm-ijb"]
    cands = tm_candidates(doc)
    check_minimal_transversals(cands, edges, "tm-ijb candidate")
    check_config_doc(doc, catalog)
    return {"edges": edges, "smallest": cands}


def check_compare(out: str, catalog: dict, edges: list[frozenset[str]]) -> dict:
    doc = _load(out, "compare.json")
    engines = doc["engines"]
    check_cost_rows(doc["rows"], {e: d["configuration"] for e, d in engines.items()},
                    catalog)
    for d in engines.values():
        check_config_doc(d, catalog)
    cands = tm_candidates(engines["tm-ijb"])
    check_minimal_transversals(cands, edges, "tm-ijb candidate")
    return {"smallest": cands}


_TUPLE_RE = re.compile(r"^  \(([\d, ]*)\) ")
_COLUMN_RE = re.compile(r"^  (\d+): (\S+)$")
_COUNT_RE = re.compile(r"^all minimal transversals: (\d+)$")


def check_enumerate_all(stdout: str, edges: list[frozenset[str]],
                        smallest: list[frozenset[str]]) -> None:
    """``enumerate --all``: every line a minimal transversal, the count
    header matches, and the minimum-size ones are exactly the smallest
    transversals that ``advise`` reported for the same input."""
    names, found, count = {}, [], None
    for line in stdout.splitlines():
        m = _TUPLE_RE.match(line)
        if m:
            found.append(frozenset(names[int(i)] for i in m.group(1).split(",") if i.strip()))
            continue
        m = _COLUMN_RE.match(line)
        if m:
            names[int(m.group(1))] = m.group(2)
            continue
        m = _COUNT_RE.match(line)
        if m:
            count = int(m.group(1))
    require(count is not None and count == len(found),
            f"header says {count} transversals, {len(found)} listed")
    check_minimal_transversals(found, edges, "enumerated transversal")
    k = min(len(t) for t in found)
    require({t for t in found if len(t) == k} == set(smallest),
            "minimum-size enumerated transversals differ from advise's smallest")
