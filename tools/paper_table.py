"""Print the paper's comparison: frontier and ok count of each solver on each problem.

For each of the three problems, on its true matrix and on its transformed
(synthetic) one at the sizes the README runs, every state is solved through
perturba.experiments.run_instance, the path of the CLI, and judged by the
benchmark's classifier, perfbench/classify.py: a state is ok when it
converged, its residual on the solved matrix is within 1e-9 of the
matrix's Frobenius norm and its energy is within 1e-8 of its level.  The
levels are LAPACK's eigenvalues in order of their real part, and for the
2-D oscillator the eigenvalue nearest each basis pair's normal-mode
energy, as in the benchmark's workloads.  The frontier is the last state
before the first one that did not converge, -1 if none.  The 2-D problem
runs the iteration only: its diagonal is degenerate, and the expansion
stops at that.  One line per run:

    PYTHONPATH=src python3 tools/paper_table.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from perturba.experiments import ProblemInstance, build_instance_matrix, exact_2d_energy
from perturba.experiments import run_instance
from perturba.hamiltonians import default_quartic_a2, triangular_pairs

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import classify  # noqa: E402

BOTH = ("rspt", "iter")

# (problem, beta, size, transform, methods); transform None is the true matrix
RUNS = [
    *(("linear", 0.5, 30, a, BOTH) for a in (None, 0.25, 0.5)),
    *(("quartic", b, 100, a2, BOTH) for b in (0.5, 1.0) for a2 in (None, default_quartic_a2(b))),
    *(("osc2d", 0.4, 39, a, ("iter",)) for a in (None, 0.2)),
]


def levels(problem: str, beta: float, size: int, h: np.ndarray) -> np.ndarray:
    """The level of each state: its normal-mode eigenvalue on osc2d, else by real part."""
    if problem != "osc2d":
        return classify.levels_by_real_part(h)
    exact = [exact_2d_energy(n1, n2, beta) for n1, n2 in zip(*triangular_pairs(size))]
    return classify.nearest_levels(h, exact)


def main() -> None:
    print("problem  beta  size  matrix       method  frontier   ok  false  states")
    for problem, beta, size, transform, methods in RUNS:
        h = build_instance_matrix(ProblemInstance(problem, beta, size, "iter", transform))
        ref = classify.reference(h, beta, levels(problem, beta, size, h))
        name = "a2" if problem == "quartic" else "a"
        matrix = "true" if transform is None else f"{name}={transform:g}"
        for method in methods:
            result = run_instance(ProblemInstance(problem, beta, size, method, transform))
            verdicts = [
                classify.verdict(classify.StateResult(
                    case=method, beta=beta, state=row.state, status=row.status.value,
                    energy=row.energy, iterations=row.iterations, residual=row.residual,
                    wall_ms=None,
                ), ref)
                for row in result.rows
            ]
            print(f"{problem:8} {beta:4g} {size:5} {matrix:12} {method:6} {result.frontier:8} "
                  f"{verdicts.count('ok'):4} {verdicts.count('false'):6} {len(verdicts):7}",
                  flush=True)


if __name__ == "__main__":
    main()
