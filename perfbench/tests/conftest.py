import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]


@pytest.fixture(scope="session")
def hc():
    modules = ("linalg", "poly", "groebner", "cdga", "catalog", "obstruct", "cli")
    return SimpleNamespace(**{m: importlib.import_module(f"homcoh.{m}") for m in modules})
