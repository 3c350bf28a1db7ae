"""Fixtures shared by the test modules."""

import importlib.util
import random
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(name: str):
    """``bench/<name>.py`` read as it is, under the module name
    ``bench_<name>``."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def gen():
    """The benchmark's seeded input generator, ``bench/gen.py``: its
    instances come with their own record of what each query references,
    made without the advisor."""
    return load_bench_module("gen")


@pytest.fixture(scope="session")
def checks():
    """The benchmark's output checks, ``bench/checks.py``: they hold for any
    correct advisor and read only its outputs, the catalog and the
    generator's record."""
    return load_bench_module("checks")


@st.composite
def _stars(draw, gen):
    """A small star and 1-12 queries over it, each referencing some
    attribute, as a ``gen.Instance`` written by the benchmark's generator."""
    dims, attrs, fact_cols = (draw(st.integers(1, 4)), draw(st.integers(1, 4)),
                              draw(st.integers(1, 5)))

    @st.composite
    def query_shape(draw):
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

    shapes = draw(st.lists(query_shape(), min_size=1, max_size=12))
    rng = random.Random(draw(st.integers(0, 2**32)))
    catalog = gen.star_catalog(rng, dims, attrs, fact_cols)
    sql = "\n".join(gen.render_query(rng, qid, shape)
                    for qid, shape in enumerate(shapes, start=1))
    referenced = {qid: shape.referenced()
                  for qid, shape in enumerate(shapes, start=1)}
    return gen.Instance("star", catalog, sql, referenced)


@pytest.fixture(scope="session")
def random_stars(gen):
    """A hypothesis strategy of random small stars with their workloads."""
    return _stars(gen)
