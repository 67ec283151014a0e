"""The four workloads, driven through perturba's public entry points.

Each workload has three phases:

* setup() builds, through the program's own builders, the matrices the
  workload solves.  Cold import plus this phase is what setup_s measures.
* run(ctx, rng, out_dir) is one repetition of the solve phase, the part
  wall_s measures.  rng shuffles the order of the calls.  It returns one
  (call key, seconds, output) triple per call into the program.
* collect(ctx, raw) turns a repetition's raw output into StateResults for
  the classifier, after the clock has stopped.

Calls go through module attributes (iterative.iterate_solve, cli.main), so
a traced run's wrappers see them.  Every workload uses the default configs.
"""

from __future__ import annotations

import csv
import math
import os
import time

import numpy as np

from perturba import cli, hamiltonians, iterative
from perturba.experiments import QUARTIC_BENCHMARK

import classify
from classify import MalformedOutput, StateResult


class ApiSweep:
    """iterate_solve over (beta, state) pairs of prebuilt matrices."""

    def __init__(self, name: str, betas, states: int, build, levels, golden=False):
        self.name = name
        self.golden = golden
        self.betas = tuple(betas)
        self.states = states
        self._build = build
        self._levels = levels
        self.attempted = len(self.betas) * states

    def setup(self) -> dict:
        return {beta: self._build(beta) for beta in self.betas}

    def references(self, ctx: dict) -> dict[str, classify.Reference]:
        return {
            f"beta={beta}": classify.reference(h, beta, self._levels(h, beta, self.states))
            for beta, h in ctx.items()
        }

    def run(self, ctx: dict, rng, out_dir: str) -> list:
        order = [(beta, k) for beta in self.betas for k in range(self.states)]
        rng.shuffle(order)
        raw = []
        for beta, k in order:
            t0 = time.perf_counter()
            sol = iterative.iterate_solve(ctx[beta], k)
            raw.append(((beta, k), time.perf_counter() - t0, sol))
        return raw

    def collect(self, ctx: dict, raw: list) -> tuple[list[StateResult], int]:
        results = []
        for (beta, k), seconds, sol in raw:
            if sol.state != k:
                raise MalformedOutput(f"asked for state {k}, got {sol.state}")
            results.append(StateResult(
                case=f"beta={beta}",
                beta=beta,
                state=k,
                status=sol.status.value,
                energy=sol.energy,
                iterations=sol.iterations,
                residual=classify.residual(ctx[beta], sol.energy, sol.coefficients),
                wall_ms=1.0e3 * seconds,
            ))
        classify.check_rows(results, {f"beta={b}": self.states for b in self.betas})
        return results, 0


class CliRuns:
    """perturba CLI invocations, each writing its CSV to a file."""

    def __init__(self, name, argv, methods, beta: float, dim: int, build, golden=False):
        self.name = name
        self.golden = golden
        self.argv = argv
        self.methods = tuple(methods)
        self.beta = beta
        self.dim = dim
        self._build = build
        self.attempted = len(self.methods) * dim

    def setup(self) -> np.ndarray:
        return self._build()

    def references(self, h: np.ndarray) -> dict[str, classify.Reference]:
        ref = classify.reference(h, self.beta, classify.levels_by_real_part(h))
        return {f"method={m}": ref for m in self.methods}

    def run(self, h: np.ndarray, rng, out_dir: str) -> list:
        methods = list(self.methods)
        rng.shuffle(methods)
        raw = []
        for method in methods:
            path = os.path.join(out_dir, f"{self.name}-{method}.csv")
            t0 = time.perf_counter()
            code = cli.main(self.argv + ["--method", method, "--out", path])
            raw.append((method, time.perf_counter() - t0, (code, path)))
        return raw

    def collect(self, h: np.ndarray, raw: list) -> tuple[list[StateResult], int]:
        results = []
        csv_bytes = 0
        for method, _, (code, path) in raw:
            if code not in (0, 2):
                raise MalformedOutput(f"method {method}: perturba exited with {code}")
            csv_bytes += os.path.getsize(path)
            with open(path, newline="") as stream:
                for row in csv.DictReader(stream):
                    try:
                        results.append(StateResult(
                            case=f"method={row['method']}",
                            beta=float(row["beta"]),
                            state=int(row["state"]),
                            status=row["status"],
                            energy=float(row["energy"]),
                            iterations=int(row["iterations"]),
                            residual=float(row["residual"]),
                            wall_ms=None,
                        ))
                    except (KeyError, TypeError, ValueError) as exc:
                        raise MalformedOutput(f"method {method}: bad row {row}") from exc
        classify.check_rows(results, {f"method={m}": self.dim for m in self.methods})
        return results, csv_bytes


def _quartic_grid_matrix(beta: float) -> np.ndarray:
    return hamiltonians.build_quartic_synthetic(
        beta, hamiltonians.default_quartic_a2(beta), 100
    )


def _osc2d_pairs(count: int) -> list[tuple[int, int]]:
    """Basis pairs in triangular order: by total quanta, then by n1."""
    pairs = [(n1, total - n1) for total in range(count) for n1 in range(total + 1)]
    return pairs[:count]


def _osc2d_levels(h: np.ndarray, beta: float, states: int) -> np.ndarray:
    """Eigenvalue nearest the closed-form normal-mode energy of each pair."""
    exact = [
        math.sqrt(1.0 + beta) * (n1 + 0.5) + math.sqrt(1.0 - beta) * (n2 + 0.5)
        for n1, n2 in _osc2d_pairs(states)
    ]
    return classify.nearest_levels(h, exact)


WORKLOADS = {
    w.name: w
    for w in (
        ApiSweep(
            "quartic-grid", (0.1, 0.5, 1.0), 8, _quartic_grid_matrix,
            lambda h, beta, states: classify.levels_by_real_part(h), golden=True,
        ),
        CliRuns(
            "linear-frontier", ["linear", "--beta", "0.5", "--dim", "30"],
            ("rspt", "iter", "oracle"), 0.5, 30,
            lambda: hamiltonians.build_linear_true(0.5, 30),
        ),
        CliRuns(
            "quartic-oracle", ["quartic", "--beta", "0.5", "--dim", "200"],
            ("oracle",), 0.5, 200,
            lambda: hamiltonians.build_quartic_true(0.5, 200), golden=True,
        ),
        ApiSweep(
            "osc2d-levels", (0.4,), 6,
            lambda beta: hamiltonians.build_2d_synthetic(beta, beta / 2.0, 39),
            _osc2d_levels,
        ),
    )
}


def golden_problems(refs: dict, oks: list[StateResult]) -> list[str]:
    """Tabulated quartic levels must match QUARTIC_BENCHMARK to 5 digits.

    Checks the LAPACK reference levels and every "ok" energy that has a
    tabulated value.
    """
    problems = []
    for case, ref in refs.items():
        for k, value in enumerate(QUARTIC_BENCHMARK[ref.beta]):
            if value is not None and not classify.matches_golden(ref.levels[k].real, value):
                problems.append(f"{case} level {k} = {ref.levels[k]}, golden {value}")
    for r in oks:
        row = QUARTIC_BENCHMARK[r.beta]
        value = row[r.state] if r.state < len(row) else None
        if value is not None and not classify.matches_golden(r.energy, value):
            problems.append(f"{r.case} state {r.state} = {r.energy}, golden {value}")
    return problems
