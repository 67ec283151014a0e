"""Core matrix utilities: Jacobi diagonalizer, residual norm, text format.

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
from perturba.hamiltonians import (
    build_2d_synthetic,
    build_2d_true,
    build_linear_true,
    build_quartic_synthetic,
    build_quartic_true,
)
from perturba.iterative import iterate_solve, iterate_solve_all
from perturba.linalg import (
    DimensionMismatchError,
    NoConvergenceError,
    NonSymmetricError,
    as_square_matrix,
    beyond_guard,
    jacobi_diagonalize,
    residual_norm,
    residual_rows,
    write_matrix_text,
)
from perturba.rspt import rspt_solve, rspt_solve_all


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
        eigenvalues, _ = jacobi_diagonalize(h)
        expected = np.array([(3.0 - math.sqrt(2.0)) / 2.0, (3.0 + math.sqrt(2.0)) / 2.0])
        assert np.allclose(eigenvalues, expected, rtol=0, atol=1e-14)

    def test_degenerate_two_by_two(self):
        h = np.array([[1.0, 0.3], [0.3, 1.0]])
        eigenvalues, _ = jacobi_diagonalize(h)
        assert np.allclose(eigenvalues, [0.7, 1.3], atol=1e-14)

    def test_diagonal_passthrough(self):
        h = np.diag([3.0, 1.0, 2.0])
        eigenvalues, _ = jacobi_diagonalize(h)
        assert np.allclose(eigenvalues, [1.0, 2.0, 3.0], atol=0.0)

    def test_eigenvalues_ascending(self):
        rng = np.random.default_rng(7)
        h = random_symmetric(rng, 9)
        eigenvalues, _ = jacobi_diagonalize(h)
        assert np.all(np.diff(eigenvalues) >= -1e-14)


class TestJacobiHasTheLapackShape:
    @pytest.mark.parametrize(
        "build, dim", [(build_linear_true, 30), (build_quartic_true, 40)]
    )
    def test_matches_eigh_on_the_oracle_matrices(self, build, dim):
        h = build(0.5, dim)
        w, v = jacobi_diagonalize(h)
        w_ref, v_ref = np.linalg.eigh(h)
        assert w.shape == w_ref.shape and v.shape == v_ref.shape
        assert np.all(np.diff(w) >= 0.0)
        assert np.max(np.abs(w - w_ref)) <= 1e-10 * np.max(np.abs(h))
        for i in range(dim):
            sign = 1.0 if v[:, i] @ v_ref[:, i] >= 0.0 else -1.0
            assert np.max(np.abs(sign * v[:, i] - v_ref[:, i])) <= 1e-8

    @pytest.mark.parametrize(
        "h",
        [
            1e-13 * np.array([[1.0, 1.0], [1.0, 2.0]]),
            1e-8 * random_symmetric(np.random.default_rng(5), 20),
        ],
        ids=["2x2", "20x20"],
    )
    def test_small_norm_matrices_are_diagonalized(self, h):
        # the stop target is relative to the norm, so a matrix of norm far
        # below 1 is still diagonalized to rounding
        w, _ = jacobi_diagonalize(h)
        assert np.max(np.abs(w - np.linalg.eigvalsh(h))) <= 1e-13 * np.linalg.norm(h)

    @pytest.mark.parametrize("h", [np.zeros((0, 0)), np.array([[2.5]])], ids=["0x0", "1x1"])
    def test_small_inputs_give_eigh_shapes(self, h):
        w, v = jacobi_diagonalize(h)
        w_ref, v_ref = np.linalg.eigh(h)
        assert w.shape == w_ref.shape and v.shape == v_ref.shape
        assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)


class TestJacobiAgainstBisectionOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_matrices(self, seed):
        rng = np.random.default_rng(100 + seed)
        dim = int(rng.integers(2, 13))
        h = random_symmetric(rng, dim, scale=2.0)
        eigenvalues, _ = jacobi_diagonalize(h)
        # Gershgorin bound brackets every eigenvalue for the bisection oracle.
        radius = np.sum(np.abs(h), axis=1)
        lo = float(np.min(np.diag(h) - radius)) - 1.0
        hi = float(np.max(np.diag(h) + radius)) + 1.0
        for i, lam in enumerate(eigenvalues):
            ref = bisection_eigenvalue(h, i, lo, hi)
            assert lam == pytest.approx(ref, abs=1e-8)


class TestJacobiInvariants:
    @pytest.mark.parametrize("seed", range(4))
    def test_residuals_trace_orthonormality(self, seed):
        rng = np.random.default_rng(40 + seed)
        dim = int(rng.integers(2, 12))
        h = random_symmetric(rng, dim)
        eigenvalues, v = jacobi_diagonalize(h)
        scale = max(1.0, float(np.max(np.abs(h))))
        for i, lam in enumerate(eigenvalues):
            defect = np.linalg.norm(h @ v[:, i] - lam * v[:, i])
            assert defect < 1e-10 * scale
        assert np.trace(h) == pytest.approx(float(np.sum(eigenvalues)), abs=1e-10)
        assert np.allclose(v.T @ v, np.eye(dim), atol=1e-10)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_property_random_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 8))
        h = random_symmetric(rng, dim)
        eigenvalues, v = jacobi_diagonalize(h)
        scale = max(1.0, float(np.max(np.abs(h))))
        recon = v @ np.diag(eigenvalues) @ v.T
        assert np.allclose(recon, h, atol=1e-9 * scale)

    def test_rejects_non_symmetric(self):
        h = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(NonSymmetricError):
            jacobi_diagonalize(h)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            jacobi_diagonalize(np.ones((2, 3)))

    def test_symmetry_defect_in_message(self):
        h = np.array([[0.0, 1.0], [4.0, 0.0]])
        with pytest.raises(NonSymmetricError, match="symmetry defect 3.000e[+]00"):
            jacobi_diagonalize(h)

    def test_tiny_matrix_is_rotated(self):
        # the squares in the norms underflow below about 1e-154: unscaled,
        # the diagonal (1e-165, 2e-165) came back as the eigenvalues
        eigenvalues, v = jacobi_diagonalize(1e-165 * np.array([[1.0, 1.0], [1.0, 2.0]]))
        exact = 1e-165 * np.array([(3.0 - math.sqrt(5.0)) / 2.0, (3.0 + math.sqrt(5.0)) / 2.0])
        assert np.allclose(eigenvalues, exact, rtol=1e-14, atol=0.0)
        assert np.allclose(v.T @ v, np.eye(2), atol=1e-14)

    def test_tiny_non_symmetric_matrix_is_refused(self):
        # a defect of 3e-165 passes an absolute 1e-12; it is 0.75 of the largest entry
        with pytest.raises(NonSymmetricError, match="symmetry defect 3.000e-165"):
            jacobi_diagonalize(1e-165 * np.array([[0.0, 1.0], [4.0, 0.0]]))

    def test_large_matrix_symmetric_to_rounding(self):
        # the defect is one ulp of 1e10, 1.907e-06, above an absolute 1e-12
        h = 1e10 * np.array([[1.0, 1.0], [1.0 + 2.0**-52, 2.0]])
        eigenvalues, _ = jacobi_diagonalize(h)
        exact = 1e10 * np.array([(3.0 - math.sqrt(5.0)) / 2.0, (3.0 + math.sqrt(5.0)) / 2.0])
        assert np.allclose(eigenvalues, exact, rtol=1e-14, atol=0.0)

    def test_sweep_budget_exhausted(self, monkeypatch):
        h = random_symmetric(np.random.default_rng(5), 6)
        jacobi_diagonalize(h)  # converges within the real budget
        monkeypatch.setattr(linalg, "_MAX_SWEEPS", 1)
        with pytest.raises(NoConvergenceError, match="after 1 sweeps"):
            jacobi_diagonalize(h)


class TestDefectMeasures:
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
        with pytest.raises(DimensionMismatchError):
            residual_norm(np.eye(2), [1.0, 2.0], np.eye(2)[:1])
        with pytest.raises(DimensionMismatchError):
            residual_norm(np.eye(2), 1.0, np.ones((1, 1, 2)))

    @pytest.mark.parametrize("n", [30, 200, 820])
    def test_stacked_rows_have_the_bits_of_single_rows(self, n):
        rng = np.random.default_rng(n)
        h, energies, rows = rng.normal(size=(n, n)), rng.normal(size=n), rng.normal(size=(n, n))
        stacked = residual_norm(h, energies, rows)
        assert stacked.shape == (n,)
        alone = [residual_norm(h, e, c) for e, c in zip(energies, rows)]
        assert stacked.tobytes() == np.array(alone).tobytes()

    def test_a_zero_row_in_a_stack_is_refused(self):
        with pytest.raises(ValueError, match="zero"):
            residual_norm(np.eye(2), [1.0, 1.0], [[1.0, 0.0], [0.0, 0.0]])

    def test_residual_rows_is_the_rule_of_residual_norm(self):
        # the iteration's gate passes one row with a numpy scalar energy
        rng = np.random.default_rng(7)
        h, rows = rng.normal(size=(40, 40)), rng.normal(size=(3, 40))
        energies = rng.normal(size=3)
        for e, c in zip(energies, rows):
            assert residual_rows(h, e, c) == residual_norm(h, e, c)
        stacked = residual_norm(h, energies, rows)
        assert residual_rows(h, energies, rows).tobytes() == stacked.tobytes()


class TestDivergenceGuard:
    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf, np.nextafter(1e12, np.inf), -np.nextafter(1e12, np.inf)]
    )
    def test_trips_on_its_row_only(self, bad):
        x = np.zeros((2, 3, 4))
        x[1, 2, 3] = bad
        expected = np.zeros((2, 3), dtype=bool)
        expected[1, 2] = True
        np.testing.assert_array_equal(beyond_guard(x), expected)

    def test_the_bound_itself_passes(self):
        x = np.array([[1e12, -1e12], [0.0, 1.0]])
        np.testing.assert_array_equal(beyond_guard(x), [False, False])

    def test_in_bounds_batch_is_all_false(self):
        blown = beyond_guard(np.random.default_rng(0).normal(size=(16, 5, 30)))
        assert blown.shape == (16, 5) and blown.dtype == bool and not blown.any()


def _solve_key(sol):
    return sol.status, sol.iterations, sol.detail, sol.coefficients.tobytes()


_SCALED_MATRICES = {
    "linear": lambda: build_linear_true(0.5, 30),
    "quartic": lambda: build_quartic_synthetic(0.5, -0.35, 40),
    "osc2d": lambda: build_2d_synthetic(0.4, 0.2, 8),
}


class TestPowerOfTwoScaling:
    """Every method gives h times 2**e the results of h, energies times 2**e.

    All their thresholds are relative, so a power of two, which scales
    exactly, moves no rule: e = 20 tests the expansion's guard, which once
    bounded |E(a)| by 1e12, and e = -900, entries near 1e-270, the sweep's
    squares, which once underflowed.
    """

    @pytest.mark.parametrize("solve", [rspt_solve_all, iterate_solve_all])
    @pytest.mark.parametrize("problem", sorted(_SCALED_MATRICES))
    def test_solvers(self, solve, problem):
        h = _SCALED_MATRICES[problem]()
        base = solve(h)
        for e in (-900, 20, 400):
            scaled = solve(np.ldexp(h, e))
            assert [_solve_key(s) for s in scaled] == [_solve_key(s) for s in base]
            assert [s.energy for s in scaled] == [np.ldexp(s.energy, e) for s in base]

    @pytest.mark.parametrize(
        "h",
        [build_linear_true(0.5, 30), build_quartic_true(0.5, 40), build_2d_true(0.4, 8)],
        ids=["linear", "quartic", "osc2d"],
    )
    def test_jacobi(self, h):
        values, vectors = jacobi_diagonalize(h)
        for e in (-900, 20, 400):
            scaled_values, scaled_vectors = jacobi_diagonalize(np.ldexp(h, e))
            assert scaled_values.tobytes() == np.ldexp(values, e).tobytes()
            assert scaled_vectors.tobytes() == vectors.tobytes()


class TestMatrixText:
    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(11)
        h = random_symmetric(rng, 6, scale=3.0)
        buf = io.StringIO()
        write_matrix_text(h, buf)
        back = np.loadtxt(io.StringIO(buf.getvalue()), skiprows=1, ndmin=2)
        assert np.array_equal(back, h)

    def test_format_shape(self):
        h = np.array([[1.0, 0.25], [0.25, 2.0]])
        buf = io.StringIO()
        write_matrix_text(h, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0].strip() == "2"
        assert len(lines) == 3
        assert len(lines[1].split()) == 2


class TestAsSquareMatrix:
    def test_accepts_lists(self):
        a = as_square_matrix([[1.0, 0.0], [0.0, 1.0]])
        assert a.shape == (2, 2)

    def test_rejects_vector(self):
        with pytest.raises(DimensionMismatchError):
            as_square_matrix([1.0, 2.0])

    def test_rejects_complex_input(self):
        # a float conversion keeps only the real part: iterate_solve took
        # this matrix as [[1, .1], [.1, 2]] and returned 0.990098...
        h = np.array([[1.0 + 1e-3j, 0.1], [0.1, 2.0]])
        for call in (
            lambda: iterate_solve(h, 0),
            lambda: iterate_solve_all(h),
            lambda: rspt_solve(h, 0),
            lambda: rspt_solve_all(h),
            lambda: jacobi_diagonalize(h),
            lambda: residual_norm(h, 1.0, [1.0, 0.0]),
            lambda: as_square_matrix(h.tolist()),
        ):
            with pytest.raises(ValueError, match="matrix must be real, not complex"):
                call()
        with pytest.raises(ValueError, match="coefficient vector must be real, not complex"):
            residual_norm(h.real, 1.0, np.array([1.0, 1e-3j]))

    @pytest.mark.parametrize(
        "h, message",
        [
            # the levels are about +-1e200, but a tolerance scaled by the
            # overflowing norm is inf: iterate_solve called this converged
            # at energy 1.0, and the Jacobi oracle returned (1, 2)
            (np.array([[1.0, 1e200], [1e200, 2.0]]), "matrix Frobenius norm overflows"),
            (np.array([[1.0, np.inf], [0.0, 2.0]]), "matrix contains non-finite entries"),
            (np.array([[1.0, 0.0], [np.nan, 2.0]]), "matrix contains non-finite entries"),
        ],
        ids=["overflow", "inf", "nan"],
    )
    def test_rejects_non_finite_norm(self, h, message):
        for call in (
            lambda: iterate_solve(h, 0),
            lambda: iterate_solve_all(h),
            lambda: rspt_solve(h, 0),
            lambda: rspt_solve_all(h),
            lambda: jacobi_diagonalize(h),
            lambda: residual_norm(h, 1.0, [1.0, 0.0]),
            lambda: as_square_matrix(h.tolist()),
        ):
            with pytest.raises(ValueError, match=message):
                call()
