"""Benchmark harness: exact references, run driver, result serialization.

The three benchmark problems have independent reference routes:

* linear: closed-form energies n + 1/2 - beta^2 / 2,
* quartic: a table of golden benchmark energies on a fixed beta grid,
* osc2d: closed-form energies of the decoupled normal modes.

run_instance builds the requested matrix, dispatches to a solver and
returns a RunResult: the ProblemInstance plus one StateRow per state, with
the eigenpair residuals measured against the very matrix that was solved,
by one linalg.residual_norm call on the run's stack of coefficient rows.
Method "oracle" diagonalizes the untransformed matrix with
linalg.jacobi_diagonalize, its only caller, and reports each eigenpair as a
state converged in 0 iterations; the tests take their exact references
from LAPACK instead.  The three reference energies refuse a bool or
non-finite beta by the rule ProblemInstance applies to it.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .hamiltonians import (
    build_2d_true,
    build_linear_true,
    build_quartic_true,
    build_synthetic,
    quartic_a3,
    triangular_pairs,
)
from .iterative import iterate_solve_all
from .linalg import (
    DimensionMismatchError,
    SolveStatus,
    check_count,
    jacobi_diagonalize,
    residual_norm,
)
from .oscillator import wavefunction_rows
from .rspt import rspt_solve_all

PROBLEMS = ("linear", "quartic", "osc2d")
METHODS = ("rspt", "iter", "oracle")


class BetaOutOfRangeError(ValueError):
    pass


class NotTabulatedError(KeyError):
    pass


class UnsupportedProblemError(ValueError):
    pass


def _check_finite(name: str, value) -> None:
    """Raise ValueError unless value is a finite real number other than a bool."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ValueError(f"{name} {value!r} is not a real number")
    # inf or nan would only surface as invalid products in the builders
    if not math.isfinite(value):
        raise ValueError(f"{name} {value} is not finite")


def exact_linear_energy(n: int, beta: float) -> float:
    """Exact level of the linearly displaced oscillator."""
    check_count("quantum number", n, 0)
    _check_finite("beta", beta)
    return (n + 0.5) - 0.5 * beta * beta


def exact_2d_energy(n1: int, n2: int, beta: float) -> float:
    """Exact level of two bilinearly coupled unit oscillators.

    The coupling rotates into normal modes with frequencies sqrt(1 + beta)
    and sqrt(1 - beta); beta above 1 has no bound spectrum.
    """
    check_count("quantum number", n1, 0)
    check_count("quantum number", n2, 0)
    _check_finite("beta", beta)
    if not 0.0 <= beta <= 1.0:
        raise BetaOutOfRangeError(f"beta {beta} outside [0, 1]")
    return math.sqrt(1.0 + beta) * (n1 + 0.5) + math.sqrt(1.0 - beta) * (n2 + 0.5)


# Golden benchmark energies for the quartic perturbation, five significant
# digits, lowest states by row; None marks levels without a converged entry.
QUARTIC_BENCHMARK: dict[float, tuple[float | None, ...]] = {
    0.00: (0.50000, 1.5000, 2.5000, 3.5000, 4.5000, 5.5000, 6.5000, 7.5000),
    0.05: (0.53264, 1.6534, 2.8740, 4.1763, 5.5493, 6.9850, 8.4774, 10.022),
    0.10: (0.55915, 1.7695, 3.1386, 4.6289, 6.2203, 7.8998, 9.6578, 11.487),
    0.15: (0.58202, 1.8662, 3.3529, 4.9877, 6.7444, 8.6065, 10.562, 12.602),
    0.20: (0.60240, 1.9505, 3.5363, 5.2913, 7.1845, 9.1963, 11.313, 13.525),
    0.25: (0.62093, 2.0260, 3.6985, 5.5576, 7.5684, 9.7091, 11.965, 14.323),
    0.30: (0.63799, 2.0946, 3.8448, 5.7966, 7.9118, 10.166, 12.544, 15.033),
    0.40: (0.66877, 2.2169, 4.1028, 6.2156, 8.5114, 10.963, 13.552, None),
    0.50: (0.69617, 2.3244, 4.3275, 6.5784, 9.0288, 11.649, 14.418, None),
    0.60: (0.72104, 2.4210, 4.5281, 6.9011, 9.4877, 12.256, None, None),
    0.70: (0.74390, 2.5092, 4.7103, 7.1933, 9.9026, None, None, None),
    0.80: (0.76514, 2.5907, 4.8779, 7.4614, 10.283, None, None, None),
    0.90: (0.78503, 2.6666, 5.0336, 7.7101, 10.635, None, None, None),
    1.00: (0.80377, 2.7379, 5.1793, 7.9424, None, None, None, None),
    1.20: (0.83840, 2.8690, 5.4464, 8.3675, None, None, None, None),
    1.40: (0.86996, 2.9878, 5.6876, 8.7508, None, None, None, None),
    1.60: (0.89907, 3.0969, 5.9085, None, None, None, None, None),
}


def quartic_reference_energy(n: int, beta: float) -> float:
    """Golden benchmark energy of quartic level n at coupling beta.

    Raises NotTabulatedError off the beta grid or where no entry exists.
    """
    check_count("quantum number", n, 0)
    _check_finite("beta", beta)
    for key, row in QUARTIC_BENCHMARK.items():
        if abs(key - beta) <= 1.0e-9:
            if n < len(row) and row[n] is not None:
                return row[n]
            raise NotTabulatedError(f"no benchmark entry for state {n} at beta {key}")
    raise NotTabulatedError(f"beta {beta} not on the benchmark grid")


@dataclass(frozen=True)
class ProblemInstance:
    """One benchmark run request.

    dim counts basis states for the 1-D problems, at least 1; for osc2d it
    is the triangular cut n_max, at least 0.  transform is the coefficient
    of the transform generator, a for linear and osc2d and a2 for quartic
    (whose a3 is fixed by beta); None solves the untransformed matrix.
    """

    problem: str
    beta: float
    dim: int
    method: str
    transform: float | None = None

    def __post_init__(self) -> None:
        if self.problem not in PROBLEMS:
            raise UnsupportedProblemError(f"unknown problem {self.problem!r}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        check_count(f"{self.problem} dim", self.dim, 0 if self.problem == "osc2d" else 1)
        _check_finite("beta", self.beta)
        if self.transform is not None:
            _check_finite("transform", self.transform)
            if self.problem == "quartic" and self.beta < 0.0:  # a3 = sqrt(2 beta) / 3
                raise ValueError("beta must be non-negative")
        if self.method == "oracle" and self.transform is not None:
            raise ValueError("the oracle diagonalizes the true matrix only")


@dataclass(frozen=True)
class StateRow:
    state: int
    energy: float
    status: SolveStatus
    iterations: int
    residual: float


@dataclass(frozen=True)
class RunResult:
    """Per-state outcomes of one run of instance, in state order."""

    instance: ProblemInstance
    rows: tuple[StateRow, ...]

    @property
    def all_converged(self) -> bool:
        return all(r.status is SolveStatus.CONVERGED for r in self.rows)

    @property
    def frontier(self) -> int:
        """Largest state f such that states 0..f all converged; -1 if none."""
        frontier = -1
        for row in self.rows:
            if row.status is not SolveStatus.CONVERGED:
                break
            frontier = row.state
        return frontier


def build_instance_matrix(instance: ProblemInstance) -> np.ndarray:
    """Materialize the matrix a ProblemInstance asks for."""
    if instance.transform is not None:
        return build_synthetic(instance.problem, instance.beta, instance.transform, instance.dim)
    if instance.problem == "linear":
        return build_linear_true(instance.beta, instance.dim)
    if instance.problem == "quartic":
        return build_quartic_true(instance.beta, instance.dim)
    return build_2d_true(instance.beta, instance.dim)


def run_instance(instance: ProblemInstance) -> RunResult:
    """Build, solve and package one benchmark run."""
    h = build_instance_matrix(instance)
    if instance.method == "oracle":
        energies, vectors = jacobi_diagonalize(h)
        coefficients = vectors.T  # one eigenvector per row
        outcomes = [(SolveStatus.CONVERGED, 0)] * energies.size
    else:
        solve_all = rspt_solve_all if instance.method == "rspt" else iterate_solve_all
        solutions = solve_all(h)
        energies = np.array([s.energy for s in solutions])
        coefficients = np.array([s.coefficients for s in solutions])
        outcomes = [(s.status, s.iterations) for s in solutions]
    residuals = residual_norm(h, energies, coefficients)
    rows = tuple(
        StateRow(state, float(e), status, iterations, float(r))
        for state, (e, (status, iterations), r) in enumerate(zip(energies, outcomes, residuals))
    )
    return RunResult(instance=instance, rows=rows)


def transform_label(instance: ProblemInstance) -> str:
    """The CSV transform column: none, a=<a> or, for quartic, a2=<a2>."""
    if instance.transform is None:
        return "none"
    name = "a2" if instance.problem == "quartic" else "a"
    return f"{name}={instance.transform:.17g}"


def write_results_csv(results, stream) -> None:
    """Serialize RunResults as CSV, one row per state.

    The dim column counts a run's rows, the size of the solved matrix, not
    osc2d's cut n_max.  When every run is osc2d, each row also gets its
    basis labels n1, n2 and the closed-form energy, matching states to basis
    pairs by index; osc2d runs mixed with runs of another problem raise
    UnsupportedProblemError, as those have no such columns.  A row whose
    status is not converged has energy nan: its last iterate is no level.
    Its residual is still that of the last iterate.
    """
    problems = {result.instance.problem for result in results}
    include_exact_2d = "osc2d" in problems
    if include_exact_2d and len(problems) > 1:
        raise UnsupportedProblemError(
            "osc2d runs carry the exact column: do not mix them with other problems"
        )
    writer = csv.writer(stream, lineterminator="\n")
    header = [
        "problem", "beta", "dim", "method", "transform",
        "state", "energy", "status", "iterations", "residual",
    ]
    if include_exact_2d:
        header += ["n1", "n2", "exact"]
    writer.writerow(header)
    for result in results:
        inst = result.instance
        label = transform_label(inst)
        if include_exact_2d:
            n1, n2 = triangular_pairs(inst.dim)
        for row in result.rows:
            energy = row.energy if row.status is SolveStatus.CONVERGED else math.nan
            record = [
                inst.problem,
                f"{inst.beta:.17g}",
                len(result.rows),
                inst.method,
                label,
                row.state,
                f"{energy:.17g}",
                row.status.value,
                row.iterations,
                f"{row.residual:.17g}",
            ]
            if include_exact_2d:
                pair = int(n1[row.state]), int(n2[row.state])
                record += [*pair, f"{exact_2d_energy(*pair, inst.beta):.17g}"]
            writer.writerow(record)


def backtransform_wavefunction(instance: ProblemInstance, solution, grid) -> np.ndarray:
    """Coordinate-space wavefunction from a solved coefficient column of instance.

    Applies exp(-S) to the basis expansion and normalizes to unit trapezoid
    norm on the grid; an untransformed instance needs no reweighting.  Only
    the 1-D problems have a coordinate representation here: osc2d raises
    UnsupportedProblemError, transformed or not.  A complex grid or
    solution, or a grid that is not 1-D, finite and strictly increasing with
    at least 2 points, raises ValueError, and a solution with other than
    instance.dim coefficients DimensionMismatchError, before anything is
    computed.
    """
    if instance.problem == "osc2d":
        raise UnsupportedProblemError("osc2d has no single-coordinate wavefunction")
    if np.iscomplexobj(grid) or np.iscomplexobj(solution.coefficients):
        raise ValueError("grid and coefficients must be real, not complex")
    x = np.asarray(grid, dtype=float)
    # isfinite first: a diff across inf would warn before the check fails
    if x.ndim != 1 or x.size < 2 or not np.all(np.isfinite(x)) or not np.all(np.diff(x) > 0):
        raise ValueError("grid must be a finite, strictly increasing 1-D array of 2+ points")
    c = np.asarray(solution.coefficients, dtype=float)
    if c.shape != (instance.dim,):
        raise DimensionMismatchError(f"solution of shape {c.shape} does not fit dim {instance.dim}")
    psi = wavefunction_rows(c.size - 1, x)
    wave = c @ psi
    a = instance.transform
    if a is not None:
        if instance.problem == "linear":
            s = a * x
        else:
            s = a * x * x + quartic_a3(instance.beta) * np.abs(x) ** 3
        wave = wave * np.exp(-s)
    norm = math.sqrt(np.trapezoid(wave * wave, x))
    if norm == 0.0:
        raise ValueError("wavefunction vanished on the grid")
    return wave / norm
