"""Dense symmetric eigensolver and matrix utilities.

The Jacobi diagonalizer here is the backend of `perturba ... --method
oracle` and nothing else.  It returns (eigenvalues, eigenvectors) in the
shape np.linalg.eigh does; its own tests cross-check it against an inertia
bisection that shares no code with it, and against eigh.  Each rotation
turns two contiguous rows of one array that holds the matrix beside its
eigenvector rows, sets the two new diagonal entries by their closed forms
and mirrors the two rows into their columns, so the matrix stays exactly
symmetric.  Its thresholds are relative: the symmetry defect is measured
against the largest entry, the stop target against the matrix norm, and
the rotations run on the matrix scaled by a power of two that brings its
largest entry near 1, so tiny and huge matrices alike are diagonalized to
rounding.  The tests that need exact eigenvalues as a reference for the
perturbation solvers read LAPACK (np.linalg.eigvalsh) instead.
write_matrix_text is the writer of the plain-text matrix dump of
`perturba matrix`.

The rules that both perturbation solvers and the harness share live here
and nowhere else: the relative tolerance RELATIVE_TOL of both solvers'
convergence tests; the divergence guard DIVERGENCE_GUARD on their
coefficients, which only within_guard and beyond_guard compare with data;
check_count, the one rule for every size, solver cap and quantum number in
the package; and the residual ||H c - E c|| / ||c||, computed only by
residual_rows.  residual_norm validates a whole run and measures it
through residual_rows, one defect per coefficient row, each rounded as when
its row is measured alone; the iteration's residual gate calls residual_rows
on its block.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

# Relative convergence tolerance of both solvers' energy and coefficient tests.
RELATIVE_TOL = 1.0e-10
# Both solvers stop a state whose coefficient correction, or coefficient, is
# non-finite or larger than this in magnitude.
DIVERGENCE_GUARD = 1.0e12


class SolveStatus(enum.Enum):
    """Outcome of a single-state perturbation solve."""

    CONVERGED = "converged"
    MAX_ITERATIONS_EXCEEDED = "max_iterations_exceeded"
    ALGORITHM_FAILURE = "algorithm_failure"


class DimensionMismatchError(ValueError):
    pass


class NonSymmetricError(ValueError):
    pass


class NoConvergenceError(RuntimeError):
    pass


@dataclass(frozen=True)
class PerturbationSolution:
    """Single-state result from either perturbation solver.

    coefficients is the mixing vector, normally with coefficients[state]
    fixed at 1.  When iterate_solve rotated the state's tied diagonal group
    (see iterative), the vector is scaled so that the rotated target vector
    has weight 1 and coefficients[state] can be anything, even near 0.
    detail carries a short failure reason when status is not CONVERGED.
    """

    state: int
    energy: float
    coefficients: np.ndarray
    iterations: int
    status: SolveStatus
    detail: str | None = None
    history: "object | None" = field(default=None, repr=False, compare=False)

    @property
    def converged(self) -> bool:
        return self.status is SolveStatus.CONVERGED


def as_square_matrix(h) -> np.ndarray:
    """Validate and return h as a square float64 array.

    A complex h is rejected: converting it would drop its imaginary part.
    So is an h whose squared Frobenius norm is not finite: an inf or nan
    entry, or entries so large (about 1e154) that the norm overflows,
    which would leave every tolerance scaled by it infinite.
    """
    if np.iscomplexobj(h):
        raise ValueError("matrix must be real, not complex")
    a = np.asarray(h, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(np.einsum("ij,ij->", a, a)):
        if not np.isfinite(a).all():
            raise ValueError("matrix contains non-finite entries")
        raise ValueError("matrix Frobenius norm overflows")
    return a


def is_count(value) -> bool:
    """Whether value is an integer, Python or numpy, other than a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_state(state, n: int) -> None:
    """Raise IndexError unless state is an integer in 0..n - 1."""
    if not (is_count(state) and 0 <= state < n):
        raise IndexError(f"state {state} outside 0..{n - 1}")


def check_count(name: str, value, least: int) -> None:
    """Raise ValueError unless value is an integer, other than a bool, and value >= least.

    The one rule for every size, solver cap and quantum number: a float or
    a bool would only fail, or count as 1, inside a solver loop, a matrix
    builder or a table.
    """
    if not is_count(value):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, not {value!r}")


def residual_norm(h, energies, coefficients):
    """Relative eigenpair defects ||H c - E c|| / ||c||, one per coefficient row.

    coefficients is one vector, with one energy, or a stack of rows, with
    one energy per row.  Returns a float for one vector and an array of one
    defect per row for a stack.  The inputs are validated here and
    measured by residual_rows.
    """
    a = as_square_matrix(h)
    if np.iscomplexobj(coefficients):
        raise ValueError("coefficient vector must be real, not complex")
    c = np.asarray(coefficients, dtype=float)
    e = np.asarray(energies, dtype=float)
    if c.ndim not in (1, 2) or c.shape[-1:] != a.shape[:1] or e.shape != c.shape[:-1]:
        raise DimensionMismatchError(
            f"coefficients {c.shape} with energies {e.shape} do not fit matrix of dim {a.shape[0]}"
        )
    # Coefficients from a diverged solve can overflow, in their own norm as
    # well; the caller only needs a finite-or-inf defect number, not
    # per-entry arithmetic warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        if (np.vecdot(c, c) == 0.0).any():
            raise ValueError("coefficient vector is zero")
        defects = residual_rows(a, e, c)
    return float(defects) if c.ndim == 1 else defects


def residual_rows(a: np.ndarray, energies, coefficients: np.ndarray):
    """||a c - E c|| / ||c|| for each row c of coefficients, without validation.

    a is a square float array, coefficients one vector or a stack of rows
    of its dimension, and energies one value per row.  Each row is one BLAS
    gemv and two ddot calls, so its defect has the bits it has when passed
    alone.
    """
    r = np.matvec(a, coefficients) - np.expand_dims(energies, -1) * coefficients
    return np.sqrt(np.vecdot(r, r)) / np.sqrt(np.vecdot(coefficients, coefficients))


def within_guard(x: np.ndarray) -> bool:
    """Whether every entry of x is finite and at most DIVERGENCE_GUARD in magnitude.

    It reads only the smallest and the largest entry of x, through the ufunc
    reductions themselves, which skips the Python wrappers behind x.min()
    and x.max().  A nan entry makes both nan, and the test false.
    """
    return bool(
        -DIVERGENCE_GUARD <= np.minimum.reduce(x, None)
        and np.maximum.reduce(x, None) <= DIVERGENCE_GUARD
    )


def beyond_guard(x: np.ndarray) -> np.ndarray:
    """Whether a row of x (its last axis) holds a non-finite or a too large entry.

    An entry is too large above DIVERGENCE_GUARD in magnitude.  The per-row
    maxima are taken only when within_guard(x) fails; otherwise the result
    is all False, of shape x.shape[:-1].
    """
    if within_guard(x):
        return np.zeros(x.shape[:-1], dtype=bool)
    return ~(np.abs(x).max(axis=-1) <= DIVERGENCE_GUARD)  # nan-safe


_JACOBI_TOL = 1.0e-12
_MAX_SWEEPS = 50
_SYMMETRY_TOL = 1.0e-12


def jacobi_diagonalize(h) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues, eigenvectors) as np.linalg.eigh does: the
    eigenvalues ascending, and eigenvectors[:, i], orthonormal columns,
    belonging to eigenvalues[i].

    Sweeps run over all (p, q) pairs in row order.  The eigenvectors are
    kept as rows, beside the matrix a in one (n, 2n) array, so one rotation
    of rows p and q (a copy, two scales and two axpys) turns both.  Then
    a[p, p] and a[q, q] are set by their closed forms a_pp - t a_pq and
    a_qq + t a_pq, a[p, q] is zeroed, and rows p and q are copied into
    columns p and q: the matrix stays exactly symmetric, and no strided
    column is rotated.  A rotation is skipped when its entry is too small
    to move the off-diagonal norm.  Iteration stops once the Frobenius
    norm of the off-diagonal part drops below _JACOBI_TOL times the
    Frobenius norm of the matrix, with no absolute floor.

    The symmetry test is relative as well, to the largest entry
    peak = max|h[i, j]|.  The rotations run on h times 2**-e, the power of
    two that brings peak into [0.5, 1), and the eigenvalues are scaled back
    by 2**e.  A power of two scales exactly, and the squares inside the
    norms of the scaled matrix can no longer all underflow, so a matrix of
    any finite norm is diagonalized to the same relative accuracy.

    Raises NonSymmetricError when max|h[i, j] - h[j, i]| exceeds
    _SYMMETRY_TOL times peak (the message gives the unscaled defect), and
    NoConvergenceError if _MAX_SWEEPS sweeps do not reach the target.
    """
    a = as_square_matrix(h)
    n = a.shape[0]
    if n < 2:
        return np.diag(a).copy(), np.eye(n)
    peak = float(np.max(np.abs(a)))
    defect = float(np.max(np.abs(a - a.T)))
    if defect > _SYMMETRY_TOL * peak:
        raise NonSymmetricError(
            f"symmetry defect {defect:.3e} exceeds {_SYMMETRY_TOL:.1e} times the largest entry"
        )
    e = math.frexp(peak)[1]

    av = np.hstack([np.ldexp(a, -e), np.eye(n)])
    a = av[:, :n]
    target = _JACOBI_TOL * float(np.linalg.norm(a))
    # entries at or below this cannot move the off-norm; exact zeros included
    skip = 0.5 * target / n

    def offnorm() -> float:
        return float(np.linalg.norm(a - np.diag(np.diag(a))))

    for _ in range(_MAX_SWEEPS):
        if offnorm() <= target:
            break
        for p in range(n - 1):
            rp = av[p]
            for q in range(p + 1, n):
                apq = rp.item(q)
                if abs(apq) <= skip:
                    continue
                rq = av[q]
                app = rp.item(p)
                aqq = rq.item(q)
                theta = (aqq - app) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                old = rp.copy()
                rp *= c
                rp -= s * rq
                rq *= c
                rq += s * old
                rp[p] = app - t * apq
                rq[q] = aqq + t * apq
                rp[q] = 0.0
                a[:, p] = a[p]
                a[:, q] = a[q]
    if offnorm() > target:
        off = math.ldexp(offnorm(), e)
        raise NoConvergenceError(f"off-diagonal norm {off:.3e} after {_MAX_SWEEPS} sweeps")
    order = np.argsort(np.diag(a), kind="stable")
    return np.ldexp(np.diag(a)[order], e), av[order, n:].T


def write_matrix_text(h, stream) -> None:
    """Write a matrix in the plain text exchange format.

    First line is the dimension; each following line holds one row of
    space-separated values at 17 significant digits.
    """
    a = as_square_matrix(h)
    np.savetxt(stream, a, fmt="%.17g", header=str(a.shape[0]), comments="")
