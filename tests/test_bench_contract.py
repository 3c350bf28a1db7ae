"""The benchmark tracer patches advisor names by module attribute and computes
counters from their results; every name it targets must still be defined
where it looks for it, and a traced run must finish."""

import importlib.util
from pathlib import Path

from bji_advisor import cli, data_path

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


# library entry points that no command calls
NOT_REACHED = {"costmodel.query_cost", "costmodel.workload_cost"}


def test_traced_runs_complete(tmp_path):
    """``advise`` with every engine and ``enumerate --all`` finish under the
    tracer and, between them, pass through every target that the program
    calls."""
    inputs = ["--catalog", str(data_path("example_star.json")),
              "--workload", str(data_path("example_star.sql"))]
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        advise = tracer.invoke(cli.main, ["advise", *inputs, "--engine",
                                          "tm-ijb,close,dynaclose",
                                          "--out", str(tmp_path)])
        enumerate_all = tracer.invoke(cli.main, ["enumerate", "--all", *inputs])
    finally:
        tracer.uninstall()
    assert (advise, enumerate_all) == (0, 0)
    reached = {span[3] for span in tracer.spans}
    wanted = {name for _, _, name, _ in tracing.TARGETS} - NOT_REACHED
    assert wanted - reached == set()
