"""The benchmark's trace wraps perturba functions by name; every name must resolve."""

import importlib
import runpy
from pathlib import Path

import pytest

# run_path compiles the file without importing it as a module, so nothing
# is written next to it
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
TRACED = runpy.run_path(str(SPANS))["TRACED"]


@pytest.mark.parametrize("module, name", TRACED, ids=[f"{m}.{n}" for m, n in TRACED])
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))
