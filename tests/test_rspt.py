"""Order-by-order expansion solver: recursion, stopping rules, failure modes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_rspt
from perturba import rspt
from perturba.hamiltonians import build_linear_true, build_quartic_true
from perturba.linalg import SolveStatus
from perturba.rspt import DIVERGENCE_GUARD, RsptConfig, rspt_solve, rspt_solve_all


def second_order_closed_form(h: np.ndarray, k: int) -> float:
    """H_kk plus the textbook second-order sum over off-diagonal couplings."""
    total = h[k, k]
    for l in range(h.shape[0]):
        if l != k:
            total += h[k, l] * h[l, k] / (h[k, k] - h[l, l])
    return float(total)


def random_dominant(rng: np.random.Generator, dim: int) -> np.ndarray:
    diag = np.sort(rng.uniform(0.0, 10.0, size=dim))
    diag += np.arange(dim)  # enforce gaps of at least ~1
    off = rng.uniform(-1.0, 1.0, size=(dim, dim))
    off = (off + off.T) / 2.0
    np.fill_diagonal(off, 0.0)
    min_gap = float(np.min(np.diff(diag)))
    return np.diag(diag) + 0.05 * min_gap * off


class TestLowOrders:
    def test_diagonal_converges_first_order(self):
        sol = rspt_solve(np.diag([1.0, 2.0, 3.0]), 1)
        assert sol.status is SolveStatus.CONVERGED
        assert sol.iterations == 1
        assert sol.energy == 2.0
        assert np.array_equal(sol.coefficients, [0.0, 1.0, 0.0])

    def test_order_two_truncation_value(self):
        h = np.array([[1.0, 0.1], [0.1, 2.0]])
        sol = rspt_solve(h, 0, RsptConfig(max_order=2))
        assert sol.energy == pytest.approx(0.99, abs=1e-15)
        assert sol.status is SolveStatus.MAX_ITERATIONS_EXCEEDED
        assert sol.iterations == 2

    @pytest.mark.parametrize("seed", range(5))
    def test_order_two_equals_closed_form(self, seed):
        rng = np.random.default_rng(200 + seed)
        dim = int(rng.integers(2, 9))
        h = random_dominant(rng, dim)
        for k in range(dim):
            sol = rspt_solve(h, k, RsptConfig(max_order=2))
            assert sol.energy == pytest.approx(
                second_order_closed_form(h, k), rel=1e-13
            )

    def test_first_order_energy_correction_is_zero(self):
        rng = np.random.default_rng(17)
        h = random_dominant(rng, 6)
        sol = rspt_solve(h, 2, keep_history=True)
        assert sol.history is not None
        assert sol.history.energy_corrections[0] == 0.0

    def test_history_shapes(self):
        h = np.array([[1.0, 0.1], [0.1, 2.0]])
        sol = rspt_solve(h, 0, RsptConfig(max_order=5), keep_history=True)
        hist = sol.history
        assert hist.energy_corrections.shape == (sol.iterations,)
        assert hist.coefficient_corrections.shape == (sol.iterations, 2)
        assert sol.energy == pytest.approx(
            1.0 + float(np.sum(hist.energy_corrections)), rel=1e-15
        )

    def test_history_omitted_by_default(self):
        sol = rspt_solve(np.diag([1.0, 2.0]), 0)
        assert sol.history is None


class TestLinearProblemOrderTwo:
    @pytest.mark.parametrize("beta", [0.25, 0.5])
    def test_order_two_is_exact_below_edge(self, beta):
        dim = 12
        h = build_linear_true(beta, dim)
        for n in range(dim - 1):
            sol = rspt_solve(h, n, RsptConfig(max_order=2))
            exact = (n + 0.5) - 0.5 * beta * beta
            assert sol.energy == pytest.approx(exact, abs=1e-12), n

    def test_edge_state_is_not_exact(self):
        beta = 0.5
        dim = 12
        h = build_linear_true(beta, dim)
        sol = rspt_solve(h, dim - 1, RsptConfig(max_order=2))
        exact = (dim - 1 + 0.5) - 0.5 * beta * beta
        assert abs(sol.energy - exact) > 1e-6


class TestFailureModes:
    def test_degenerate_diagonal_with_coupling_fails(self):
        h = np.array([[1.0, 0.3], [0.3, 1.0]])
        sol = rspt_solve(h, 0)
        assert sol.status is SolveStatus.ALGORITHM_FAILURE
        assert "degenerate" in sol.detail

    def test_degenerate_diagonal_with_zero_coupling_converges(self):
        h = np.array([[1.0, 0.0, 0.2], [0.0, 1.0, 0.0], [0.2, 0.0, 2.0]])
        sol = rspt_solve(h, 0)
        assert sol.status is SolveStatus.CONVERGED
        expected = (3.0 - math.sqrt(1.16)) / 2.0
        assert sol.energy == pytest.approx(expected, abs=1e-10)
        assert sol.coefficients[1] == 0.0

    def test_divergence_guard_trips(self):
        h = np.array([[1.0, 100.0], [100.0, 2.0]])
        sol = rspt_solve(h, 0)
        assert sol.status is SolveStatus.ALGORITHM_FAILURE
        assert f"{DIVERGENCE_GUARD:.1e}" in sol.detail

    def test_max_order_cap(self):
        h = np.array([[1.0, 0.4], [0.4, 2.0]])
        sol = rspt_solve(h, 0, RsptConfig(max_order=3))
        assert sol.status is SolveStatus.MAX_ITERATIONS_EXCEEDED
        assert sol.iterations == 3

    def test_state_out_of_range(self):
        with pytest.raises(IndexError):
            rspt_solve(np.eye(3), 3)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RsptConfig(max_order=0)
        # a float or a bool would only fail, or count as 1, inside the loop
        for bad in (2.5, 2.0, True, np.float64(3.0), "3"):
            with pytest.raises(ValueError, match="max_order must be an integer"):
                RsptConfig(max_order=bad)
        sol = rspt_solve(build_linear_true(0.5, 30), 20, RsptConfig(max_order=np.int64(3)))
        assert (sol.status, sol.iterations) == (SolveStatus.MAX_ITERATIONS_EXCEEDED, 3)
        assert type(sol.iterations) is int


class TestAgainstJacobi:
    """Every state of a dominant matrix converges onto an eigenvalue from LAPACK."""

    @pytest.mark.parametrize("seed", range(4))
    def test_dominant_matrices(self, seed):
        rng = np.random.default_rng(300 + seed)
        dim = int(rng.integers(2, 11))
        h = random_dominant(rng, dim)
        reference = np.linalg.eigvalsh(h)
        for sol in rspt_solve_all(h):
            assert sol.status is SolveStatus.CONVERGED
            assert float(np.min(np.abs(reference - sol.energy))) < 1e-9

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=25, deadline=None)
    def test_property_dominant_matrices(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 9))
        h = random_dominant(rng, dim)
        reference = np.linalg.eigvalsh(h)
        for sol in rspt_solve_all(h):
            assert sol.status is SolveStatus.CONVERGED
            assert float(np.min(np.abs(reference - sol.energy))) < 1e-9


class TestSolveAll:
    def test_returns_all_states_in_order(self):
        h = np.diag([1.0, 2.0, 3.0, 4.0])
        sols = rspt_solve_all(h)
        assert [s.state for s in sols] == [0, 1, 2, 3]
        assert all(s.converged for s in sols)

    def test_failures_stay_per_state(self):
        # states 0 and 1 are degenerate-coupled; state 2 is clean
        h = np.array([[1.0, 0.3, 0.0], [0.3, 1.0, 0.0], [0.0, 0.0, 5.0]])
        sols = rspt_solve_all(h)
        assert sols[0].status is SolveStatus.ALGORITHM_FAILURE
        assert sols[1].status is SolveStatus.ALGORITHM_FAILURE
        assert sols[2].status is SolveStatus.CONVERGED


# The interior tie of TestConvergenceFrontier.test_contrast_on_degenerate_ladder
DEGENERATE_LADDER = np.diag([0.0, 1.0, 2.0, 2.0, 4.0]) + 0.01 * (np.ones((5, 5)) - np.eye(5))


class TestAgainstReference:
    """The stacked expansion against the one-state reference of tests/helpers.

    rspt_solve_all expands all states as one stack whose columns leave at
    their own stopping order; the reference runs one state and tests the
    stop rules after every order.
    """

    @staticmethod
    def assert_matches(sol, ref):
        status, orders, detail, energy, coefficients = ref[:5]
        assert type(sol.iterations) is int
        assert (sol.status.value, sol.iterations, sol.detail) == (status, orders, detail)
        assert sol.energy == pytest.approx(energy, rel=1e-12, abs=0.0)
        np.testing.assert_allclose(sol.coefficients, coefficients, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("cap", [1, 2, 444, 1000])
    def test_linear_caps(self, cap):
        # state 10 converges at order 444 and state 11 runs to the 1000 cap;
        # states 12-29 end at the guard, state 12 at order 721
        h = build_linear_true(0.5, 30)
        sols = rspt_solve_all(h, RsptConfig(max_order=cap))
        for k, sol in enumerate(sols):
            self.assert_matches(sol, reference_rspt(h, k, cap))
        assert all(s.history is None for s in sols)
        statuses = {s.status for s in sols}
        assert SolveStatus.MAX_ITERATIONS_EXCEEDED in statuses
        if cap >= 444:
            assert statuses == set(SolveStatus)

    def test_true_quartic(self):
        # every state ends at the guard, after 10 to 77 orders
        h = build_quartic_true(1.0, 60)
        for k, sol in enumerate(rspt_solve_all(h)):
            self.assert_matches(sol, reference_rspt(h, k, 1000))

    def test_degenerate_ladder(self):
        for k, sol in enumerate(rspt_solve_all(DEGENERATE_LADDER)):
            self.assert_matches(sol, reference_rspt(DEGENERATE_LADDER, k, 1000))

    @pytest.mark.parametrize(
        "h",
        [build_linear_true(0.5, 30), build_quartic_true(1.0, 60), DEGENERATE_LADDER],
        ids=["linear", "quartic", "ladder"],
    )
    def test_single_state_is_the_stack_column(self, h):
        stacked = rspt_solve_all(h)
        for k, s in enumerate(stacked):
            one = rspt_solve(h, k, keep_history=True)
            assert (one.status, one.iterations, one.detail) == (s.status, s.iterations, s.detail)
            assert np.float64(one.energy).tobytes() == np.float64(s.energy).tobytes()
            assert one.coefficients.tobytes() == s.coefficients.tobytes()
            ref = reference_rspt(h, k, 1000)
            np.testing.assert_array_equal(one.history.energy_corrections, ref[5])
            np.testing.assert_array_equal(one.history.coefficient_corrections, ref[6])

    def test_split_stacks_give_the_same_bits(self, monkeypatch):
        # a bound of one state's full history splits the linear run into 30 stacks
        h = build_linear_true(0.5, 30)
        whole = rspt_solve_all(h)
        monkeypatch.setattr(rspt, "_STACK_ENTRIES", 30 * 1001)
        for a, b in zip(whole, rspt_solve_all(h), strict=True):
            assert (a.status, a.iterations, a.detail) == (b.status, b.iterations, b.detail)
            assert a.coefficients.tobytes() == b.coefficients.tobytes()
            assert np.float64(a.energy).tobytes() == np.float64(b.energy).tobytes()

    def test_empty_matrix(self):
        assert rspt_solve_all(np.zeros((0, 0))) == []
