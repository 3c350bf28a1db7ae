"""Fixtures shared by the test modules."""

import importlib.util
import sys
from pathlib import Path

import pytest

GEN = Path(__file__).resolve().parent.parent / "bench" / "gen.py"


@pytest.fixture(scope="session")
def gen():
    """The benchmark's seeded input generator, ``bench/gen.py``, read as it
    is: its instances come with their own record of what each query
    references, made without the advisor."""
    spec = importlib.util.spec_from_file_location("bench_gen", GEN)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up
    spec.loader.exec_module(module)
    return module
