"""In-memory spans around the public functions at perturba's module boundaries.

Tracer.patched() swaps each traced function, wherever a perturba module (or
the package namespace) holds a reference to it, for a wrapper that records a
span; leaving the block restores the originals.  Nothing under src/ changes.
The benchmark's own root spans ("setup", one per repetition) belong to the
"bench" layer, so the self times of all layers add up to the traced wall time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import statistics
import sys
import time

# (module, function) pairs wrapped in a traced run.
TRACED = (
    ("perturba.oscillator", "cached_element_table"),
    ("perturba.oscillator", "build_element_table"),
    ("perturba.hamiltonians", "build_linear_true"),
    ("perturba.hamiltonians", "build_linear_synthetic"),
    ("perturba.hamiltonians", "build_quartic_true"),
    ("perturba.hamiltonians", "build_quartic_synthetic"),
    ("perturba.hamiltonians", "build_2d_true"),
    ("perturba.hamiltonians", "build_2d_synthetic"),
    ("perturba.hamiltonians", "build_synthetic"),
    ("perturba.experiments", "build_instance_matrix"),
    ("perturba.iterative", "iterate_solve"),
    ("perturba.iterative", "iterate_solve_all"),
    ("perturba.rspt", "rspt_solve"),
    ("perturba.rspt", "rspt_solve_all"),
    ("perturba.linalg", "jacobi_diagonalize"),
    ("perturba.linalg", "residual_norm"),
    ("perturba.experiments", "run_instance"),
    ("perturba.experiments", "write_results_csv"),
    ("perturba.cli", "main"),
)

SOLVERS = ("iterate_solve", "rspt_solve")


class Tracer:
    """Collects spans: name, layer, start, end, parent index and pass id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.pass_id: str | int | None = None

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        idx = len(self.spans)
        self.spans.append({
            "name": name,
            "layer": layer,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "pass": self.pass_id,
        })
        self._stack.append(idx)
        try:
            yield self.spans[idx]
        finally:
            self._stack.pop()
            self.spans[idx]["end"] = time.perf_counter()

    def _wrap(self, fn, name: str, layer: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, layer) as record:
                result = fn(*args, **kwargs)
            if name in SOLVERS:
                record.update(
                    state=result.state,
                    iterations=result.iterations,
                    status=result.status.value,
                )
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Route every perturba reference to a traced function through a span."""
        replaced = []
        for module_name, attr in TRACED:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(original, attr, module_name.rsplit(".", 1)[-1])
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "")
                if name != "perturba" and not name.startswith("perturba."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        replaced.append((module, key, original))
        try:
            yield
        finally:
            for module, key, original in reversed(replaced):
                setattr(module, key, original)


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [_duration(s) for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= _duration(s)
    return own


def layer_metrics(spans: list[dict], rep_ids: list[int]) -> dict[str, float]:
    """Per-layer metrics for one traced pass: the setup plus one repetition.

    Setup spans count once; repetition spans are averaged over rep_ids.
    """
    own = self_times(spans)
    passes: dict = {}

    def add(key: str, value: float, span: dict) -> None:
        totals = passes.setdefault(span["pass"], {})
        totals[key] = totals.get(key, 0.0) + value

    def get(key: str) -> float:
        setup = passes.get("setup", {}).get(key, 0.0)
        return setup + statistics.fmean(passes.get(r, {}).get(key, 0.0) for r in rep_ids)

    state_ms = []
    for i, s in enumerate(spans):
        layer, name = s["layer"], s["name"]
        add(f"{layer}.self_s", own[i], s)
        if name == "build_element_table":
            add("oscillator.tables", 1, s)
        elif layer == "hamiltonians":
            parent = s["parent"]
            if parent is None or spans[parent]["layer"] != "hamiltonians":
                add("hamiltonians.builds", 1, s)
        elif name in ("jacobi_diagonalize", "residual_norm"):
            short = "jacobi" if name == "jacobi_diagonalize" else "residual"
            add(f"linalg.{short}_s", own[i], s)
            add(f"linalg.{short}_calls", 1, s)
        elif name == "write_results_csv":
            add("experiments.csv_s", own[i], s)
        elif name in SOLVERS:
            add(f"{layer}.states", 1, s)
            add(f"{layer}.iterations", s["iterations"], s)
            if s["status"] == "converged":
                add(f"{layer}.converged", 1, s)
            else:
                add(f"{layer}.capped_iterations", s["iterations"], s)
            if name == "iterate_solve":
                state_ms.append(1.0e3 * _duration(s))

    sweeps, orders = get("iterative.iterations"), get("rspt.iterations")
    for s in spans:
        if s["parent"] is None:
            add("trace.wall_s", _duration(s), s)
    return {
        "oscillator.table_s": get("oscillator.self_s"),
        "oscillator.tables": get("oscillator.tables"),
        "hamiltonians.build_s": get("hamiltonians.self_s"),
        "hamiltonians.builds": get("hamiltonians.builds"),
        "iterative.solve_s": get("iterative.self_s"),
        "iterative.sweeps": sweeps,
        "iterative.sweep_us": 1.0e6 * get("iterative.self_s") / sweeps if sweeps else 0.0,
        "iterative.capped_sweep_share": get("iterative.capped_iterations") / sweeps if sweeps else 0.0,
        "iterative.converged_share": (
            get("iterative.converged") / get("iterative.states") if get("iterative.states") else 0.0
        ),
        "iterative.state_ms_p50": _quantile(state_ms, 0.5),
        "iterative.state_ms_p90": _quantile(state_ms, 0.9),
        "iterative.state_samples": float(len(state_ms)),
        "rspt.solve_s": get("rspt.self_s"),
        "rspt.orders": orders,
        "rspt.order_us": 1.0e6 * get("rspt.self_s") / orders if orders else 0.0,
        "linalg.jacobi_s": get("linalg.jacobi_s"),
        "linalg.jacobi_calls": get("linalg.jacobi_calls"),
        "linalg.residual_s": get("linalg.residual_s"),
        "linalg.residual_calls": get("linalg.residual_calls"),
        "experiments.csv_s": get("experiments.csv_s"),
        "experiments.run_self_s": get("experiments.self_s") - get("experiments.csv_s"),
        "cli.self_s": get("cli.self_s"),
        "bench.self_s": get("bench.self_s"),
        "trace.wall_s": get("trace.wall_s"),
    }


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
