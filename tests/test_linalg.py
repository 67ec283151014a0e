"""Core matrix utilities: Jacobi diagonalizer, defect measures, text format.

The Jacobi diagonalizer backs --method oracle; these tests check it against
closed forms, its own invariants and an inertia bisection that shares no
code with it.
"""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perturba import linalg
from perturba.linalg import (
    DimensionMismatchError,
    NoConvergenceError,
    NonSymmetricError,
    as_square_matrix,
    jacobi_diagonalize,
    read_matrix_text,
    residual_norm,
    symmetry_defect,
    write_matrix_text,
)


def random_symmetric(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) * scale
    return (a + a.T) / 2.0


def _ldl_inertia(a: np.ndarray, t: float, pivot_min: float) -> tuple[int, bool]:
    """Negative-pivot count of a - t*I; ok=False on a near-breakdown pivot."""
    m = (a - t * np.eye(a.shape[0])).astype(float).copy()
    n = m.shape[0]
    negatives = 0
    ok = True
    for i in range(n):
        pivot = m[i, i]
        if abs(pivot) < pivot_min:
            ok = False
            pivot = pivot_min if pivot >= 0.0 else -pivot_min
        if pivot < 0.0:
            negatives += 1
        row = m[i, i + 1 :].copy()
        if row.size:
            m[i + 1 :, i + 1 :] -= np.outer(row, row) / pivot
    return negatives, ok


def eigenvalues_below(a: np.ndarray, t: float) -> int:
    """Count eigenvalues of symmetric a strictly below t.

    Uses the inertia of a - t*I from an unpivoted LDL^T elimination.  A probe
    that lands on a (near-)singular leading minor is retried at a slightly
    nudged t, as an elimination without pivoting miscounts there; the nudge
    is far below the comparison tolerances of the tests that use this.
    Independent of the Jacobi code path under test.
    """
    scale = max(1.0, float(np.max(np.abs(a))))
    count = 0
    for bump in (0.0, 1e-10, -1e-10, 4e-10, -4e-10, 1.6e-9):
        count, ok = _ldl_inertia(a, t + bump * (1.0 + abs(t)), 1.0e-12 * scale)
        if ok:
            return count
    return count


def bisection_eigenvalue(a: np.ndarray, index: int, lo: float, hi: float) -> float:
    """index-th ascending eigenvalue via inertia bisection on [lo, hi]."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if eigenvalues_below(a, mid) <= index:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestJacobiClosedForms:
    def test_two_by_two(self):
        h = np.array([[1.0, 0.5], [0.5, 2.0]])
        sol = jacobi_diagonalize(h)
        expected = np.array([(3.0 - math.sqrt(2.0)) / 2.0, (3.0 + math.sqrt(2.0)) / 2.0])
        assert np.allclose(sol.eigenvalues, expected, rtol=0, atol=1e-14)

    def test_degenerate_two_by_two(self):
        h = np.array([[1.0, 0.3], [0.3, 1.0]])
        sol = jacobi_diagonalize(h)
        assert np.allclose(sol.eigenvalues, [0.7, 1.3], atol=1e-14)

    def test_diagonal_passthrough(self):
        h = np.diag([3.0, 1.0, 2.0])
        sol = jacobi_diagonalize(h)
        assert np.allclose(sol.eigenvalues, [1.0, 2.0, 3.0], atol=0.0)

    def test_eigenvalues_ascending(self):
        rng = np.random.default_rng(7)
        h = random_symmetric(rng, 9)
        sol = jacobi_diagonalize(h)
        assert np.all(np.diff(sol.eigenvalues) >= -1e-14)


class TestJacobiAgainstBisectionOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_matrices(self, seed):
        rng = np.random.default_rng(100 + seed)
        dim = int(rng.integers(2, 13))
        h = random_symmetric(rng, dim, scale=2.0)
        sol = jacobi_diagonalize(h)
        # Gershgorin bound brackets every eigenvalue for the bisection oracle.
        radius = np.sum(np.abs(h), axis=1)
        lo = float(np.min(np.diag(h) - radius)) - 1.0
        hi = float(np.max(np.diag(h) + radius)) + 1.0
        for i, lam in enumerate(sol.eigenvalues):
            ref = bisection_eigenvalue(h, i, lo, hi)
            assert lam == pytest.approx(ref, abs=1e-8)


class TestJacobiInvariants:
    @pytest.mark.parametrize("seed", range(4))
    def test_residuals_trace_orthonormality(self, seed):
        rng = np.random.default_rng(40 + seed)
        dim = int(rng.integers(2, 12))
        h = random_symmetric(rng, dim)
        sol = jacobi_diagonalize(h)
        v = sol.eigenvectors
        scale = max(1.0, float(np.max(np.abs(h))))
        for i, lam in enumerate(sol.eigenvalues):
            defect = np.linalg.norm(h @ v[:, i] - lam * v[:, i])
            assert defect < 1e-10 * scale
        assert np.trace(h) == pytest.approx(float(np.sum(sol.eigenvalues)), abs=1e-10)
        assert np.allclose(v.T @ v, np.eye(dim), atol=1e-10)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_property_random_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 8))
        h = random_symmetric(rng, dim)
        sol = jacobi_diagonalize(h)
        scale = max(1.0, float(np.max(np.abs(h))))
        recon = sol.eigenvectors @ np.diag(sol.eigenvalues) @ sol.eigenvectors.T
        assert np.allclose(recon, h, atol=1e-9 * scale)

    def test_rejects_non_symmetric(self):
        h = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(NonSymmetricError):
            jacobi_diagonalize(h)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            jacobi_diagonalize(np.ones((2, 3)))

    def test_sweep_budget_exhausted(self, monkeypatch):
        h = random_symmetric(np.random.default_rng(5), 6)
        jacobi_diagonalize(h)  # converges within the real budget
        monkeypatch.setattr(linalg, "_MAX_SWEEPS", 1)
        with pytest.raises(NoConvergenceError, match="after 1 sweeps"):
            jacobi_diagonalize(h)


class TestDefectMeasures:
    def test_symmetry_defect_value(self):
        h = np.array([[0.0, 1.0], [4.0, 0.0]])
        assert symmetry_defect(h) == pytest.approx(3.0, abs=0.0)

    def test_symmetry_defect_zero_for_symmetric(self):
        rng = np.random.default_rng(3)
        h = random_symmetric(rng, 5)
        assert symmetry_defect(h) == 0.0

    def test_residual_norm_exact_pair(self):
        h = np.diag([1.0, 2.0, 3.0])
        assert residual_norm(h, 2.0, [0.0, 1.0, 0.0]) == 0.0

    def test_residual_norm_scale_invariance(self):
        h = np.array([[1.0, 0.5], [0.5, 2.0]])
        r1 = residual_norm(h, 1.0, [1.0, 0.1])
        r2 = residual_norm(h, 1.0, [10.0, 1.0])
        assert r1 == pytest.approx(r2, rel=1e-12)

    def test_residual_norm_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            residual_norm(np.eye(2), 1.0, [0.0, 0.0])

    def test_residual_norm_rejects_bad_shape(self):
        with pytest.raises(DimensionMismatchError):
            residual_norm(np.eye(3), 1.0, [1.0, 2.0])


class TestMatrixText:
    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(11)
        h = random_symmetric(rng, 6, scale=3.0)
        buf = io.StringIO()
        write_matrix_text(h, buf)
        back = read_matrix_text(io.StringIO(buf.getvalue()))
        assert np.array_equal(back, h)

    def test_format_shape(self):
        h = np.array([[1.0, 0.25], [0.25, 2.0]])
        buf = io.StringIO()
        write_matrix_text(h, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0].strip() == "2"
        assert len(lines) == 3
        assert len(lines[1].split()) == 2

    def test_read_rejects_ragged(self):
        with pytest.raises(ValueError):
            read_matrix_text(io.StringIO("2\n1.0 2.0\n3.0\n"))


class TestAsSquareMatrix:
    def test_accepts_lists(self):
        a = as_square_matrix([[1.0, 0.0], [0.0, 1.0]])
        assert a.shape == (2, 2)

    def test_rejects_vector(self):
        with pytest.raises(DimensionMismatchError):
            as_square_matrix([1.0, 2.0])
