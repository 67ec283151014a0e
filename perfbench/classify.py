"""Correctness classifier for solver outputs, independent of perturba.linalg.

A state is "ok" only when all three hold: the program reports it
converged; its residual ||Hc - Ec|| / ||c|| on the matrix that was solved is
small against ||H||_F; and its energy sits on the level asked for, taken from
numpy's LAPACK eigenvalue routines.  A converged state failing either check
is "false" (a converged status that is not an eigenpair of the right level).
Anything else the program reports is "unconverged".  A converged state with a
non-finite energy is malformed output and makes the run incorrect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Converged states on the seed sit at 1e-13 or below relative to ||H||_F;
# osc2d state 3's false fixed point sits at 6e-6.
RESIDUAL_TOL = 1.0e-9
# Seed energies match their levels to 3e-11 relative; neighbouring levels
# are at least 1e-1 apart.
ENERGY_TOL = 1.0e-8

# The golden quartic table carries five significant digits; the seed's worst
# tabulated level is 2.7e-5 off.
GOLDEN_TOL = 5.0e-5

STATUSES = ("converged", "max_iterations_exceeded", "algorithm_failure")


class MalformedOutput(ValueError):
    """The program's output is missing rows or carries impossible values."""


@dataclass(frozen=True)
class StateResult:
    """One solved state as the benchmark saw it.

    case groups the states of one matrix and solver, e.g. "beta=0.5" or
    "method=iter".  residual is ||Hc - Ec|| / ||c||; iterations counts sweeps
    or orders; wall_ms is None where the program solves all states at once.
    """

    case: str
    beta: float
    state: int
    status: str
    energy: float
    iterations: int
    residual: float
    wall_ms: float | None


@dataclass(frozen=True)
class Reference:
    """LAPACK levels of one matrix solved at beta: levels[k] is state k's."""

    beta: float
    levels: np.ndarray
    h_norm: float


def residual(h: np.ndarray, energy: float, coefficients: np.ndarray) -> float:
    """||H c - E c|| / ||c||, computed here rather than by the program."""
    c = np.asarray(coefficients, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.linalg.norm(h @ c - energy * c) / np.linalg.norm(c))


def levels_by_real_part(h: np.ndarray) -> np.ndarray:
    """All eigenvalues of h, the k-th smallest by real part at index k."""
    if np.array_equal(h, h.T):
        return np.linalg.eigvalsh(h).astype(complex)
    ev = np.linalg.eigvals(h)
    return ev[np.argsort(ev.real, kind="stable")]


def nearest_levels(h: np.ndarray, targets) -> np.ndarray:
    """For each target energy, the eigenvalue of h nearest to it."""
    ev = np.linalg.eigvals(h)
    return np.array([ev[np.argmin(np.abs(ev - t))] for t in targets])


def reference(h: np.ndarray, beta: float, levels: np.ndarray) -> Reference:
    return Reference(beta=beta, levels=np.asarray(levels), h_norm=float(np.linalg.norm(h)))


def energy_error(energy: float, level: complex) -> float:
    """Relative distance of an energy from its reference level."""
    return abs(energy - level) / max(abs(level), 1.0)


def verdict(result: StateResult, ref: Reference) -> str:
    """"ok", "false" or "unconverged"; raises MalformedOutput."""
    if result.status not in STATUSES:
        raise MalformedOutput(f"{result.case} state {result.state}: status {result.status!r}")
    if result.status != "converged":
        return "unconverged"
    if not math.isfinite(result.energy):
        raise MalformedOutput(
            f"{result.case} state {result.state}: converged with energy {result.energy}"
        )
    if not result.residual <= RESIDUAL_TOL * ref.h_norm:
        return "false"
    if not energy_error(result.energy, ref.levels[result.state]) <= ENERGY_TOL:
        return "false"
    return "ok"


def matches_golden(value: float, tabulated: float) -> bool:
    """True when value agrees with a five-significant-digit entry (5e-5 relative)."""
    return abs(value - tabulated) <= GOLDEN_TOL * abs(tabulated)


def check_rows(results: list[StateResult], expected: dict[str, int]) -> None:
    """Each case must report states 0..n-1 exactly once."""
    for case, n in expected.items():
        states = sorted(r.state for r in results if r.case == case)
        if states != list(range(n)):
            raise MalformedOutput(f"{case}: expected states 0..{n - 1}, got {len(states)} rows")
    extra = {r.case for r in results} - set(expected)
    if extra:
        raise MalformedOutput(f"unexpected cases {sorted(extra)}")
