"""The benchmark tracer patches advisor names by module attribute; every name
it targets must still be defined where it looks for it."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    tracing = load_tracing()
    missing = [(path, attr) for path, attr, _, _ in tracing.TARGETS
               if attr not in tracing._resolve(path).__dict__]
    assert missing == []
