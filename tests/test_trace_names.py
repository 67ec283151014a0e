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


@pytest.mark.parametrize(
    "problem, dim, builder",
    [("linear", 12, "build_linear_synthetic"), ("osc2d", 4, "build_2d_synthetic")],
)
def test_trace_sees_the_builders_and_their_tables(problem, dim, builder):
    # the trace wraps module attributes, so a builder or table reached any
    # other way would drop out of the per-layer metrics
    from perturba import experiments

    tracer = runpy.run_path(str(SPANS))["Tracer"]()
    instance = experiments.ProblemInstance(
        problem=problem, beta=0.4, dim=dim, method="iter", transform=0.2
    )
    with tracer.patched():
        experiments.run_instance(instance)
    spans = tracer.spans
    (build,) = [i for i, s in enumerate(spans) if s["name"] == builder]
    assert spans[build]["layer"] == "hamiltonians"
    tables = [s for s in spans if s["name"] == "cached_element_table"]
    assert tables and all(s["layer"] == "oscillator" for s in tables)
    assert all(s["parent"] == build for s in tables)
