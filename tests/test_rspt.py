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
from perturba.rspt import DIVERGENCE_GUARD, rspt_solve, rspt_solve_all


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
        sol = rspt_solve(h, 0, max_order=2)
        assert sol.energy == pytest.approx(0.99, abs=1e-15)
        assert sol.status is SolveStatus.MAX_ITERATIONS_EXCEEDED
        assert sol.iterations == 2

    @pytest.mark.parametrize("seed", range(5))
    def test_order_two_equals_closed_form(self, seed):
        rng = np.random.default_rng(200 + seed)
        dim = int(rng.integers(2, 9))
        h = random_dominant(rng, dim)
        for k in range(dim):
            sol = rspt_solve(h, k, max_order=2)
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
        sol = rspt_solve(h, 0, max_order=5, keep_history=True)
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
            sol = rspt_solve(h, n, max_order=2)
            exact = (n + 0.5) - 0.5 * beta * beta
            assert sol.energy == pytest.approx(exact, abs=1e-12), n

    def test_edge_state_is_not_exact(self):
        beta = 0.5
        dim = 12
        h = build_linear_true(beta, dim)
        sol = rspt_solve(h, dim - 1, max_order=2)
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

    def test_no_absolute_bound_on_the_energy(self):
        # a bound of 1e12 on |E(a)| stopped the scaled matrix at order 2
        h = np.array([[1.0, 0.1], [0.1, 2.0]])
        for scale in (1.0, 1e100):
            sol = rspt_solve(scale * h, 0)
            assert (sol.status, sol.iterations) == (SolveStatus.CONVERGED, 12)

    def test_max_order_cap(self):
        h = np.array([[1.0, 0.4], [0.4, 2.0]])
        sol = rspt_solve(h, 0, max_order=3)
        assert sol.status is SolveStatus.MAX_ITERATIONS_EXCEEDED
        assert sol.iterations == 3

    def test_state_out_of_range(self):
        with pytest.raises(IndexError):
            rspt_solve(np.eye(3), 3)
        # True would pass for state 1, and 2.0 would index as 2
        h = build_linear_true(0.5, 8)
        for bad in (True, 2.0):
            with pytest.raises(IndexError, match=f"state {bad} outside 0..7"):
                rspt_solve(h, bad)

    def test_config_validation(self):
        h = np.eye(2)
        for solve in (
            lambda cap: rspt_solve(h, 0, max_order=cap),
            lambda cap: rspt_solve_all(h, max_order=cap),
        ):
            with pytest.raises(ValueError, match="max_order must be at least 1"):
                solve(0)
            # a float or a bool would only fail, or count as 1, inside the loop
            for bad in (2.5, 2.0, True, np.float64(3.0), "3"):
                with pytest.raises(ValueError, match="max_order must be an integer"):
                    solve(bad)
        sol = rspt_solve(build_linear_true(0.5, 30), 20, max_order=np.int64(3))
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


def batch_edge_blocks() -> tuple[np.ndarray, list[int]]:
    """Uncoupled blocks whose first states stop on the edges of the 16-order batches.

    Blocks 0 and 4-5 are [[0, g], [g, 1]]: their state 0 converges at order
    17, 8 and 16 for g = 0.126, 0.053 and 0.213.  Blocks 1-3 are paths
    [[0, g, 0], [g, 1, g], [0, g, 2]]: their state 0 passes the guard at
    order 8, 16 and 17 for g = 32.16, 5.06 and 4.6.  A 2 x 2 block could not
    do that at order 8 or 16: its coefficient corrections vanish at every
    even order, and the guard reads the coefficients only.  Blocks 6-8 are
    paths of 8, 16 and 17 couplings 0.5 whose two ends tie, degenerate at
    the order of their length.  Block j sits on the diagonal offset 100 j,
    so no two blocks tie; the energy test is relative, so the offsets of the
    converging blocks count.  Returns the matrix and the first state of
    each block.
    """
    def pair(g):
        return np.array([[0.0, g], [g, 1.0]])

    def path(g):
        return np.array([[0.0, g, 0.0], [g, 1.0, g], [0.0, g, 2.0]])

    blocks = [pair(0.126), path(32.16), path(5.06), path(4.6), pair(0.053), pair(0.213)]
    for length in (8, 16, 17):
        path = np.diag(np.r_[0.0, np.arange(1.0, length), 0.0])
        i = np.arange(length)
        path[i, i + 1] = path[i + 1, i] = 0.5
        blocks.append(path)
    n = sum(b.shape[0] for b in blocks)
    h = np.zeros((n, n))
    firsts = []
    at = 0
    for j, b in enumerate(blocks):
        m = b.shape[0]
        h[at : at + m, at : at + m] = b + 100.0 * j * np.eye(m)
        firsts.append(at)
        at += m
    return h, firsts


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

    @staticmethod
    def assert_same_bits(one, stacked):
        assert (one.status, one.iterations, one.detail) == (
            stacked.status, stacked.iterations, stacked.detail
        )
        assert np.float64(one.energy).tobytes() == np.float64(stacked.energy).tobytes()
        assert one.coefficients.tobytes() == stacked.coefficients.tobytes()

    BATCH = rspt._BATCH
    ROWS = rspt._FIRST_ROWS

    @pytest.mark.parametrize(
        "cap", [1, 2, BATCH - 1, BATCH, BATCH + 1, ROWS - 1, ROWS, ROWS + 1, 444, 1000]
    )
    def test_linear_caps(self, cap):
        # state 10 converges at order 444 and state 11 runs to the 1000 cap;
        # states 12-29 end at the guard, state 12 at order 721.  The rules
        # are tested once per batch of _BATCH orders, and a batch also ends
        # at the last history row, 63.  Every state is capped at 15-17; by
        # cap 63, states converge at order 49, the first of a batch, and at
        # 63, its last
        h = build_linear_true(0.5, 30)
        sols = rspt_solve_all(h, max_order=cap)
        for k, sol in enumerate(sols):
            self.assert_matches(sol, reference_rspt(h, k, cap))
            self.assert_same_bits(rspt_solve(h, k, max_order=cap), sol)
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
            self.assert_same_bits(one, s)
            ref = reference_rspt(h, k, 1000)
            np.testing.assert_array_equal(one.history.energy_corrections, ref[5])
            np.testing.assert_array_equal(one.history.coefficient_corrections, ref[6])

    def test_energy_corrections_are_row_k_of_the_product(self):
        # E(a) is entry k of the order's product W c(a-1), to the bit; a dot
        # product of row k with c(a-1) rounds some of them otherwise.  A
        # failed order is not accepted and reads zero
        h = build_linear_true(0.5, 30)
        w = h - np.diag(np.diag(h))
        for k in range(30):
            sol = rspt_solve(h, k, keep_history=True)
            accepted = sol.iterations - (sol.status is SolveStatus.ALGORITHM_FAILURE)
            start = np.zeros(30)
            start[k] = 1.0
            previous = [start, *sol.history.coefficient_corrections[: accepted - 1]]
            products = np.array([(w @ c)[k] for c in previous])
            assert sol.history.energy_corrections[:accepted].tobytes() == products.tobytes(), k

    def test_rules_on_the_batch_edges(self):
        # each rule fires on the first (17), a middle (8) and the last (16)
        # order of a batch, while the stack's other columns run on
        h, firsts = batch_edge_blocks()
        stacked = rspt_solve_all(h, max_order=100)
        stops = [(s.status.value, s.detail, s.iterations) for s in (stacked[k] for k in firsts)]
        converged = ("converged", None)
        guard = ("algorithm_failure", f"correction magnitude exceeded {DIVERGENCE_GUARD:.1e}")
        degenerate = ("algorithm_failure", "degenerate diagonal with nonzero coupling")
        assert stops == [
            (*converged, 17), (*guard, 8), (*guard, 16), (*guard, 17), (*converged, 8),
            (*converged, 16), (*degenerate, 8), (*degenerate, 16), (*degenerate, 17),
        ]
        for k, sol in enumerate(stacked):
            ref = reference_rspt(h, k, 100)
            self.assert_matches(sol, ref)
            one = rspt_solve(h, k, max_order=100, keep_history=True)
            self.assert_same_bits(one, sol)
            np.testing.assert_array_equal(one.history.energy_corrections, ref[5])
            np.testing.assert_array_equal(one.history.coefficient_corrections, ref[6])

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
    def test_guard_on_a_coefficient_alone(self, sign):
        # state 0 couples weakly to a divergent pair, so at order 48, the
        # last of a batch, one of its corrections passes the guard while
        # |E(48)| stays inside; the sign of the weak coupling is its sign
        w = sign * 1e-3
        h = np.array([[0.0, w, 0.0], [w, 1.0, 2.98], [0.0, 2.98, 2.0]])
        stacked = rspt_solve_all(h)
        assert (stacked[0].iterations, stacked[0].detail) == (
            48, f"correction magnitude exceeded {DIVERGENCE_GUARD:.1e}"
        )
        for k, sol in enumerate(stacked):
            self.assert_matches(sol, reference_rspt(h, k, 1000))
            self.assert_same_bits(rspt_solve(h, k), sol)

    def test_overflow_past_the_guard_is_silent(self):
        # both states pass the guard at order 1, and their batch goes on to
        # orders 2-16, whose corrections overflow to inf and then nan; the
        # suite turns a RuntimeWarning into an error
        h = np.array([[0.0, 1e100], [1e100, 1.0]])
        guard = f"correction magnitude exceeded {DIVERGENCE_GUARD:.1e}"
        for k, sol in enumerate(rspt_solve_all(h)):
            assert (sol.iterations, sol.detail) == (1, guard)
            self.assert_matches(sol, reference_rspt(h, k, 1000))
            self.assert_same_bits(rspt_solve(h, k), sol)

    def test_split_stacks_give_the_same_bits(self, monkeypatch):
        # a bound of one state's full history splits the linear run into 30 stacks
        h = build_linear_true(0.5, 30)
        whole = rspt_solve_all(h)
        monkeypatch.setattr(rspt, "_STACK_ENTRIES", 30 * 1001)
        for a, b in zip(whole, rspt_solve_all(h), strict=True):
            self.assert_same_bits(a, b)

    def test_empty_matrix(self):
        assert rspt_solve_all(np.zeros((0, 0))) == []
