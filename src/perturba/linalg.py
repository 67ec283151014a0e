"""Dense symmetric eigensolver and matrix utilities.

The Jacobi diagonalizer here is the backend of `perturba ... --method
oracle` and nothing else.  It returns (eigenvalues, eigenvectors) in the
shape np.linalg.eigh does; its own tests cross-check it against an inertia
bisection that shares no code with it, and against eigh.  The tests that
need exact eigenvalues as a reference for the perturbation solvers read
LAPACK (np.linalg.eigvalsh) instead.  write_matrix_text is the writer of
the plain-text matrix dump of `perturba matrix`.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass, field

import numpy as np


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
    """
    if np.iscomplexobj(h):
        raise ValueError("matrix must be real, not complex")
    a = np.asarray(h, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    return a


def is_count(value) -> bool:
    """Whether value is an integer, Python or numpy, other than a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_state(state, n: int) -> None:
    """Raise IndexError unless state is an integer in 0..n - 1."""
    if not (is_count(state) and 0 <= state < n):
        raise IndexError(f"state {state} outside 0..{n - 1}")


def check_cap(name: str, value) -> None:
    """Raise ValueError unless the solver cap value is an integer of at least 1.

    A float or a bool would only fail, or count as 1, inside a solver loop.
    """
    if not is_count(value):
        raise ValueError(f"{name} must be an integer")
    if value < 1:
        raise ValueError(f"{name} must be at least 1")


def symmetry_defect(h) -> float:
    """Largest absolute difference |h[i,j] - h[j,i]| over all entries."""
    a = as_square_matrix(h)
    if a.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(a - a.T)))


def residual_norm(h, energy: float, coefficients) -> float:
    """Relative eigenpair defect ||H c - E c|| / ||c||."""
    a = as_square_matrix(h)
    if np.iscomplexobj(coefficients):
        raise ValueError("coefficient vector must be real, not complex")
    c = np.asarray(coefficients, dtype=float)
    if c.shape != (a.shape[0],):
        raise DimensionMismatchError(
            f"coefficient vector of length {c.shape} does not fit matrix of dim {a.shape[0]}"
        )
    # Coefficients from a diverged solve can overflow, in their own norm as
    # well; the caller only needs a finite-or-inf defect number, not
    # per-entry arithmetic warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        nrm = float(np.linalg.norm(c))
        if nrm == 0.0:
            raise ValueError("coefficient vector is zero")
        return float(np.linalg.norm(a @ c - energy * c) / nrm)


_JACOBI_TOL = 1.0e-12
_MAX_SWEEPS = 50
_SYMMETRY_TOL = 1.0e-12


def jacobi_diagonalize(h) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues, eigenvectors) as np.linalg.eigh does: the
    eigenvalues ascending, and eigenvectors[:, i], orthonormal columns,
    belonging to eigenvalues[i].

    Sweeps run over all (p, q) pairs in row order; a rotation is skipped when
    the target entry is already negligible against the diagonal. Iteration
    stops once the Frobenius norm of the off-diagonal part drops below
    _JACOBI_TOL (scaled by the matrix norm).

    Raises NonSymmetricError for input with symmetry defect above
    _SYMMETRY_TOL and NoConvergenceError if _MAX_SWEEPS sweeps do not reach
    the target.
    """
    a = as_square_matrix(h).copy()
    n = a.shape[0]
    if symmetry_defect(a) > _SYMMETRY_TOL:
        raise NonSymmetricError(
            f"symmetry defect {symmetry_defect(a):.3e} exceeds {_SYMMETRY_TOL:.1e}"
        )
    v = np.eye(n)
    if n < 2:
        return np.diag(a).copy(), v

    target = _JACOBI_TOL * max(float(np.linalg.norm(a)), 1.0)

    def offnorm() -> float:
        off = a - np.diag(np.diag(a))
        return float(np.linalg.norm(off))

    for _ in range(_MAX_SWEEPS):
        if offnorm() <= target:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1.0e-300:
                    continue
                # skip entries that can no longer move the off-norm
                if abs(apq) <= 0.5 * target / n:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.hypot(theta, 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rp = a[p, :].copy()
                rq = a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp = a[:, p].copy()
                cq = a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
                a[p, q] = 0.0
                a[q, p] = 0.0
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    if offnorm() > target:
        raise NoConvergenceError(
            f"off-diagonal norm {offnorm():.3e} after {_MAX_SWEEPS} sweeps"
        )

    eigenvalues = np.diag(a).copy()
    order = np.argsort(eigenvalues, kind="stable")
    return eigenvalues[order], v[:, order]


def write_matrix_text(h, stream) -> None:
    """Write a matrix in the plain text exchange format.

    First line is the dimension; each following line holds one row of
    space-separated values at 17 significant digits.
    """
    a = as_square_matrix(h)
    np.savetxt(stream, a, fmt="%.17g", header=str(a.shape[0]), comments="")
