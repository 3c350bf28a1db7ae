"""The whole pipeline on random small stars, checked by the benchmark's
output checks: ``advise`` with the three engines, ``compare`` and
``enumerate --all`` through ``cli.main``."""

import contextlib
import io
import os
import random
import tempfile

from hypothesis import given, settings, strategies as st

from bji_advisor import cli


@st.composite
def star_shapes(draw, gen):
    """Sizes of a star and its queries, each referencing some attribute."""
    dims, attrs, fact_cols = (draw(st.integers(1, 4)), draw(st.integers(1, 4)),
                              draw(st.integers(1, 5)))

    @st.composite
    def shape(draw):
        joins = draw(st.lists(st.integers(1, dims), unique=True))
        # one column may carry several filters
        dim_filters = draw(st.lists(
            st.tuples(st.sampled_from(joins), st.integers(1, attrs),
                      st.sampled_from(gen.OPERATORS)))) if joins else []
        fact_filters = draw(st.lists(
            st.tuples(st.integers(1, fact_cols),
                      st.sampled_from(gen.OPERATORS)),
            min_size=0 if joins else 1))
        return gen.QueryShape(tuple(joins), tuple(dim_filters),
                              tuple(fact_filters))

    return dims, attrs, fact_cols, draw(st.lists(shape(), min_size=1,
                                                 max_size=12))


def run(argv) -> tuple[int, str]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, stdout.getvalue()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_pipeline_passes_the_benchmark_checks(gen, checks, data):
    dims, attrs, fact_cols, shapes = data.draw(star_shapes(gen))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    catalog = gen.star_catalog(rng, dims, attrs, fact_cols)
    sql = "\n".join(gen.render_query(rng, qid, shape)
                    for qid, shape in enumerate(shapes, start=1))
    referenced = {qid: shape.referenced()
                  for qid, shape in enumerate(shapes, start=1)}
    edges = list(dict.fromkeys(referenced.values()))
    with tempfile.TemporaryDirectory() as tmp:
        cat, wl = gen.Instance("star", catalog, sql, referenced).write(tmp)
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
