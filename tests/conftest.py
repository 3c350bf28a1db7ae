"""Fixtures shared by the test modules."""

import importlib.util
import sys
from pathlib import Path

import pytest

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
