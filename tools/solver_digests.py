"""Print a digest of the results of a fixed list of solver calls.

The solver-level twin of tools/cli_digests.py: a CSV holds no
coefficients, and the benchmark's iterate_solve workloads never go through
the CLI.  One line per case gives the first 16 hex digits of a sha256 over
every solution's status, iterations, detail, energy bytes and coefficient
bytes, then the number of solutions and the case's label.  Run it on two
commits and diff the outputs to check that a change keeps every result to
the bit:

    PYTHONPATH=src python3 tools/solver_digests.py > solver-digests.txt
"""

from __future__ import annotations

import hashlib

import numpy as np

from perturba.hamiltonians import (
    build_2d_synthetic,
    build_2d_true,
    build_linear_true,
    build_quartic_synthetic,
    build_quartic_true,
    default_quartic_a2,
)
from perturba.iterative import iterate_solve, iterate_solve_all
from perturba.rspt import rspt_solve_all


def digest(solutions) -> str:
    """The first 16 hex digits of the sha256 over every field that a solve decides."""
    sha = hashlib.sha256()
    for sol in solutions:
        sha.update(f"{sol.status.value} {sol.iterations} {sol.detail}".encode())
        sha.update(np.float64(sol.energy).tobytes())
        sha.update(sol.coefficients.tobytes())
    return sha.hexdigest()[:16]


def cases():
    """(label, solutions) for each case, built and solved one at a time."""
    grid = [build_quartic_synthetic(b, default_quartic_a2(b), 100) for b in (0.1, 0.5, 1.0)]
    yield "quartic-grid: iterate_solve states 0-7, beta 0.1/0.5/1.0", [
        iterate_solve(h, k) for h in grid for k in range(8)
    ]
    yield "quartic-grid matrices: rspt_solve_all", [sol for h in grid for sol in rspt_solve_all(h)]
    osc2d = build_2d_synthetic(0.4, 0.2, 39)
    yield "osc2d-levels: iterate_solve states 0-5", [iterate_solve(osc2d, k) for k in range(6)]
    yield "iterate_solve_all build_2d_synthetic(0.4, 0.2, 39)", iterate_solve_all(osc2d)
    true2d = build_2d_true(0.4, 12)
    yield "iterate_solve_all build_2d_true(0.4, 12)", iterate_solve_all(true2d)
    yield "rspt_solve_all build_2d_true(0.4, 12)", rspt_solve_all(true2d)
    linear, quartic = build_linear_true(0.5, 30), build_quartic_true(1.0, 60)
    yield "iterate_solve_all build_linear_true(0.5, 30)", iterate_solve_all(linear)
    yield "rspt_solve_all build_linear_true(0.5, 30)", rspt_solve_all(linear)
    yield "rspt_solve_all build_quartic_true(1.0, 60)", rspt_solve_all(quartic)


def main() -> None:
    for label, solutions in cases():
        print(f"{digest(solutions)} {len(solutions):4} {label}", flush=True)


if __name__ == "__main__":
    main()
