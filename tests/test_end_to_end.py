"""The whole pipeline on random small stars, checked by the benchmark's
output checks: ``advise`` with the three engines, ``compare`` and
``enumerate --all`` through ``cli.main``."""

import contextlib
import io
import os
import tempfile

from hypothesis import given, settings, strategies as st

from bji_advisor import cli


def run(argv) -> tuple[int, str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, stdout.getvalue()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_pipeline_passes_the_benchmark_checks(checks, random_stars, data):
    star = data.draw(random_stars)
    catalog, referenced = star.catalog, star.referenced
    edges = list(dict.fromkeys(referenced.values()))
    with tempfile.TemporaryDirectory() as tmp:
        cat, wl = star.write(tmp)
        inputs = ["--catalog", cat, "--workload", wl]
        out = os.path.join(tmp, "advise")
        assert run(["advise", "--engine", "tm-ijb,close,dynaclose",
                    "--out", out] + inputs)[0] == 0
        checks.check_files("advise", out)
        smallest = checks.check_advise(out, catalog, edges,
                                       referenced)["smallest"]
        out = os.path.join(tmp, "compare")
        assert run(["compare", "--out", out] + inputs)[0] == 0
        checks.check_files("compare", out)
        assert checks.check_compare(out, catalog, edges)["smallest"] \
            == smallest
        code, listing = run(["enumerate", "--all"] + inputs)
        assert code == 0
        checks.check_enumerate_all(listing, edges, smallest)
