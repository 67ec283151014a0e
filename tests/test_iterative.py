"""Fixed-point quadratic-update solver: exactness, branches, stopping rules."""

import math
import sys
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import reference_iterate
from perturba import iterative
from perturba.experiments import exact_2d_energy
from perturba.hamiltonians import (
    build_2d_synthetic,
    build_2d_true,
    build_linear_true,
    build_quartic_synthetic,
    build_quartic_true,
    default_quartic_a2,
    triangular_pairs,
)
from perturba.iterative import (
    _coupling_blocks,
    _rotate_tied_groups,
    iterate_solve,
    iterate_solve_all,
)
from perturba.linalg import DIVERGENCE_GUARD, SolveStatus, residual_norm


def random_dominant(rng: np.random.Generator, dim: int) -> np.ndarray:
    diag = np.sort(rng.uniform(0.0, 10.0, size=dim))
    diag += np.arange(dim)
    off = rng.uniform(-1.0, 1.0, size=(dim, dim))
    off = (off + off.T) / 2.0
    np.fill_diagonal(off, 0.0)
    min_gap = float(np.min(np.diff(diag)))
    return np.diag(diag) + 0.05 * min_gap * off


# Sweeps of perfbench's quartic-grid, states 0-7 of the dim-100 transformed
# quartic per beta.  The states in QUARTIC_GRID_CYCLES end in a period-2
# cycle, the one in QUARTIC_GRID_CAPPED runs to the 10,000-sweep cap, the
# others converge.
QUARTIC_GRID_SWEEPS = {
    0.1: (81, 82, 85, 89, 95, 101, 123, 169),
    0.5: (206, 214, 263, 346, 579, 1448, 3580, 255),
    1.0: (291, 300, 479, 859, 10000, 385, 292, 182),
}
QUARTIC_GRID_CYCLES = [(0.5, 7), (1.0, 5), (1.0, 6), (1.0, 7)]
QUARTIC_GRID_CAPPED = [(1.0, 4)]

# Sweeps of perfbench's linear-frontier, iterate_solve_all on
# build_linear_true(0.5, 30): states 0-10 converge, states 11-21 run to the
# 10,000-sweep cap and states 22-29 stop at the divergence guard.
LINEAR_FRONTIER_SWEEPS = (
    (37, 41, 51, 69, 93, 129, 185, 279, 466, 940, 3041)
    + (10000,) * 11
    + (154, 127, 85, 71, 81, 778, 56, 26)
)


@lru_cache(maxsize=None)
def quartic_grid(beta: float) -> np.ndarray:
    return build_quartic_synthetic(beta, default_quartic_a2(beta), 100)


@lru_cache(maxsize=None)
def linear_frontier() -> tuple:
    return tuple(iterate_solve_all(build_linear_true(0.5, 30)))


def random_symmetric(seed: int) -> np.ndarray:
    """A random symmetric matrix of dimension 3 to 6 with a sorted diagonal."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(3, 7))
    h = rng.normal(size=(dim, dim)) * rng.choice([0.3, 1.0, 3.0])
    h += np.diag(np.sort(rng.normal(size=dim) * 2))
    return (h + h.T) / 2


def eig2(a: float, b: float, w: float) -> tuple[float, float]:
    mean = (a + b) / 2.0
    r = math.hypot((a - b) / 2.0, w)
    return mean - r, mean + r


def local_roots(h: np.ndarray, k: int, c: np.ndarray):
    """Both roots of every local quadratic at column c, from the module formulas.

    Written out term by term from the iterative module's docstring, sharing
    no code with the solver.  Returns arrays (root1, root2) indexed by l, the
    entries at l = k unused; root1 is the root the sign rule selects,
    root2 = (-d - s sqrt(q)) / (2 H[k, l]) the other one (nan where
    H[k, l] = 0 and the quadratic is linear).
    """
    n = h.shape[0]
    root1 = np.full(n, np.nan)
    root2 = np.full(n, np.nan)
    for l in range(n):
        if l == k:
            continue
        y = h[l, k] + sum(
            (h[l, j] - c[l] * h[k, j]) * c[j] for j in range(n) if j not in (k, l)
        )
        d = h[k, k] - h[l, l]
        s = math.copysign(1.0, d)
        q = d * d + 4.0 * h[k, l] * y
        assert d != 0.0 and q >= 0.0
        root1[l] = s * y / ((math.sqrt(q) + abs(d)) / 2.0)
        if h[k, l] != 0.0:
            root2[l] = (-d - s * math.sqrt(q)) / (2.0 * h[k, l])
    return root1, root2


class TestTwoByTwo:
    def test_exact_roots(self):
        h = np.array([[1.0, 0.5], [0.5, 2.0]])
        lo = iterate_solve(h, 0)
        hi = iterate_solve(h, 1)
        assert lo.status is SolveStatus.CONVERGED
        assert hi.status is SolveStatus.CONVERGED
        assert lo.energy == pytest.approx((3.0 - math.sqrt(2.0)) / 2.0, abs=1e-14)
        assert hi.energy == pytest.approx((3.0 + math.sqrt(2.0)) / 2.0, abs=1e-14)
        assert lo.iterations == 2  # second sweep only confirms the fixed point

    def test_degenerate_diagonal_splits_by_index(self):
        h = np.array([[1.0, 0.3], [0.3, 1.0]])
        assert iterate_solve(h, 0).energy == pytest.approx(0.7, abs=1e-14)
        assert iterate_solve(h, 1).energy == pytest.approx(1.3, abs=1e-14)

    @given(
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=-2.0, max_value=2.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_energy_is_an_eigenvalue(self, a, b, w):
        h = np.array([[a, w], [w, b]])
        for k in (0, 1):
            sol = iterate_solve(h, k)
            if sol.status is not SolveStatus.CONVERGED:
                continue
            scale = 1.0 + max(abs(a), abs(b), abs(w))
            gap = min(abs(sol.energy - lam) for lam in eig2(a, b, w))
            assert gap <= 1e-10 * scale

    def test_weak_coupling_tracks_adjacent_eigenvalue(self):
        h = np.array([[1.0, 0.05], [0.05, 3.0]])
        lo, hi = eig2(1.0, 3.0, 0.05)
        assert iterate_solve(h, 0).energy == pytest.approx(lo, abs=1e-12)
        assert iterate_solve(h, 1).energy == pytest.approx(hi, abs=1e-12)


class TestPerturbativeLimit:
    def test_single_sweep_matches_second_order(self):
        rng = np.random.default_rng(42)
        dim = 6
        diag = np.sort(rng.uniform(0.0, 10.0, size=dim)) + np.arange(dim)
        off = rng.uniform(-1.0, 1.0, size=(dim, dim))
        off = (off + off.T) / 2.0
        np.fill_diagonal(off, 0.0)
        h = np.diag(diag) + 1.0e-4 * off
        for k in range(dim):
            sol = iterate_solve(h, k, max_iterations=1)
            second = h[k, k] + sum(
                h[k, l] ** 2 / (h[k, k] - h[l, l]) for l in range(dim) if l != k
            )
            assert sol.energy == pytest.approx(second, rel=1e-6)


class TestBasicBehaviour:
    def test_diagonal_converges_immediately(self):
        sol = iterate_solve(np.diag([1.0, 2.0, 3.0]), 1)
        assert sol.status is SolveStatus.CONVERGED
        assert sol.iterations == 1
        assert sol.energy == 2.0
        assert np.array_equal(sol.coefficients, [0.0, 1.0, 0.0])

    def test_strong_coupling_negative_discriminant_path(self):
        # couplings larger than the gaps push the quadratic discriminant
        # negative for some columns; the vertex fallback must keep the
        # iteration finite and any converged answer must be a true eigenvalue
        h = np.array([[1.0, 1.0, 0.5], [1.0, 1.1, 5.0], [0.5, 5.0, 1.2]])
        reference = np.linalg.eigvalsh(h)
        for k in range(3):
            sol = iterate_solve(h, k, max_iterations=2000)
            assert sol.status in (
                SolveStatus.CONVERGED,
                SolveStatus.MAX_ITERATIONS_EXCEEDED,
                SolveStatus.ALGORITHM_FAILURE,
            )
            if sol.status is SolveStatus.CONVERGED:
                assert float(np.min(np.abs(reference - sol.energy))) < 1e-8

    def test_diverged_state_is_labelled_without_warnings(self):
        # the ground state of the untransformed quartic matrix diverges at
        # dim 12; the guard stops it with the last column inside the bound,
        # so its normalisation and residual stay finite
        h = build_quartic_true(1.0, 12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = iterate_solve(h, 0)
            residual = residual_norm(h, sol.energy, sol.coefficients)
        assert sol.status is SolveStatus.ALGORITHM_FAILURE
        assert f"{DIVERGENCE_GUARD:.1e}" in sol.detail
        assert sol.iterations < 1000
        c = sol.coefficients / np.linalg.norm(sol.coefficients)
        assert np.all(np.isfinite(c))
        assert float(np.linalg.norm(c)) == pytest.approx(
            1.0, abs=1e-14
        )
        assert math.isfinite(residual)

    def test_guard_on_the_first_sweep_keeps_the_diagonal_energy(self):
        # the first sweep puts the vertex root 5e19 in c[1]; the reported
        # energy is that of the start column, H[0, 0], down to its sign
        sol = iterate_solve(np.array([[-0.0, 1e-20], [-1e30, 1.0]]), 0)
        assert (sol.status, sol.iterations) == (SolveStatus.ALGORITHM_FAILURE, 1)
        assert sol.energy == 0.0 and math.copysign(1.0, sol.energy) == -1.0

    def test_period_two_cycle_stops_early(self):
        # beta 0.5 state 7 of the transformed quartic falls into an exact
        # two-cycle with energies near -1e5 instead of running to the cap
        h = build_quartic_synthetic(0.5, default_quartic_a2(0.5), 100)
        sol = iterate_solve(h, 7)
        assert sol.status is SolveStatus.ALGORITHM_FAILURE
        assert sol.detail == f"period-2 cycle at sweep {sol.iterations}"
        assert sol.iterations < 1000

    def test_iteration_cap_reported(self):
        h = np.array([[1.0, 1.0, 0.5], [1.0, 1.1, 5.0], [0.5, 5.0, 1.2]])
        sol = iterate_solve(h, 0, max_iterations=3)
        if sol.status is SolveStatus.MAX_ITERATIONS_EXCEEDED:
            assert sol.iterations == 3

    def test_converged_solution_has_no_detail(self):
        sol = iterate_solve(np.array([[1.0, 0.1], [0.1, 2.0]]), 0)
        assert sol.detail is None

    def test_state_out_of_range(self):
        with pytest.raises(IndexError):
            iterate_solve(np.eye(2), 2)
        # True would pass for state 1, and 2.0 would index as 2
        h = build_quartic_true(0.5, 8)
        for bad in (True, 2.0):
            with pytest.raises(IndexError, match=f"state {bad} outside 0..7"):
                iterate_solve(h, bad)

    def test_config_validation(self):
        h = np.eye(2)
        for solve in (
            lambda cap: iterate_solve(h, 0, max_iterations=cap),
            lambda cap: iterate_solve_all(h, max_iterations=cap),
        ):
            with pytest.raises(ValueError, match="max_iterations must be at least 1"):
                solve(0)
            # a float or a bool would only fail, or count as 1, inside the loop
            for bad in (2.5, 2.0, True, np.float64(3.0), "3"):
                with pytest.raises(ValueError, match="max_iterations must be an integer"):
                    solve(bad)
        sol = iterate_solve(build_linear_true(0.5, 30), 20, max_iterations=np.int64(3))
        assert (sol.status, sol.iterations) == (SolveStatus.MAX_ITERATIONS_EXCEEDED, 3)
        assert type(sol.iterations) is int

    def test_normalized_coefficients_unit_norm(self):
        h = np.array([[1.0, 0.5], [0.5, 2.0]])
        sol = iterate_solve(h, 0)
        c = sol.coefficients / np.linalg.norm(sol.coefficients)
        assert float(np.linalg.norm(c)) == pytest.approx(
            1.0, abs=1e-14
        )
        assert sol.coefficients[0] == 1.0


class TestAgainstJacobi:
    """Every state of a dominant matrix converges onto an eigenvalue from LAPACK."""

    @pytest.mark.parametrize("seed", range(4))
    def test_dominant_matrices(self, seed):
        rng = np.random.default_rng(400 + seed)
        dim = int(rng.integers(2, 11))
        h = random_dominant(rng, dim)
        reference = np.linalg.eigvalsh(h)
        for sol in iterate_solve_all(h):
            assert sol.status is SolveStatus.CONVERGED
            assert float(np.min(np.abs(reference - sol.energy))) < 1e-9

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=25, deadline=None)
    def test_property_dominant_matrices(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 9))
        h = random_dominant(rng, dim)
        reference = np.linalg.eigvalsh(h)
        for sol in iterate_solve_all(h):
            assert sol.status is SolveStatus.CONVERGED
            assert float(np.min(np.abs(reference - sol.energy))) < 1e-9


class TestLinearProblem:
    def test_low_states_reach_exact_energies(self):
        beta = 0.5
        h = build_linear_true(beta, 40)
        for n in range(11):
            sol = iterate_solve(h, n)
            assert sol.status is SolveStatus.CONVERGED
            assert sol.energy == pytest.approx(n + 0.5 - beta * beta / 2.0, abs=1e-9)

    def test_exact_eigenvectors_sit_on_the_selected_root_below_the_frontier(self):
        # intermediate normalisation c[k] = 1 of the exact eigenvectors.  An
        # eigh column is accurate to about eps in absolute terms, so the far
        # tail, many orders below 1e-12, needs an absolute floor scaled by
        # the column norm; the worst measured defect is 4e-15 of the norm
        h = build_linear_true(0.5, 30)
        vectors = np.linalg.eigh(h)[1]
        for k in range(11):
            c = vectors[:, k] / vectors[k, k]
            root1, _ = local_roots(h, k, c)
            others = np.arange(30) != k
            np.testing.assert_allclose(
                c[others],
                root1[others],
                rtol=1e-12,
                atol=1e-13 * float(np.linalg.norm(c)),
                err_msg=f"state {k}",
            )

    def test_exact_eigenvectors_need_the_second_root_past_the_frontier(self):
        # from state 12 the neighbours k±1 of the exact eigenvector sit on
        # the root the sign rule s = sign(d) never selects, which is why the
        # iteration's frontier stops at state 11
        h = build_linear_true(0.5, 30)
        vectors = np.linalg.eigh(h)[1]
        for k in range(12, 21):
            c = vectors[:, k] / vectors[k, k]
            root1, root2 = local_roots(h, k, c)
            for l in (k - 1, k + 1):
                assert c[l] == pytest.approx(root2[l], rel=1e-12), (k, l)
                assert abs(c[l] - root1[l]) > 0.5, (k, l)

    def test_agrees_with_expansion_solver(self):
        from perturba.rspt import rspt_solve

        h = build_linear_true(0.25, 30)
        for n in (0, 3, 7):
            a = iterate_solve(h, n)
            b = rspt_solve(h, n)
            assert a.status is SolveStatus.CONVERGED
            assert b.status is SolveStatus.CONVERGED
            assert a.energy == pytest.approx(b.energy, abs=1e-9)


class TestSolveAll:
    def test_returns_all_states_in_order(self):
        h = np.diag([1.0, 2.0, 3.0])
        sols = iterate_solve_all(h)
        assert [s.state for s in sols] == [0, 1, 2]
        assert all(s.converged for s in sols)

    def test_solutions_do_not_share_the_sweep_buffers(self):
        # the sweeps reuse their buffers from batch to batch; a returned
        # solution must own its numbers.  At cap 200 these states stop by
        # every rule: converged, stalled (quartic state 22, residual 0.04 |H|_F),
        # cycle, guard and cap
        first = iterate_solve_all(build_linear_true(0.5, 30), 200)
        first += iterate_solve_all(build_quartic_synthetic(0.3, default_quartic_a2(0.3), 30), 200)
        kept = [(s.coefficients.tobytes(), s.energy, s.iterations) for s in first]
        iterate_solve_all(build_quartic_synthetic(1.0, default_quartic_a2(1.0), 60), 200)
        iterate_solve(build_linear_true(0.3, 30), 5, 200)
        details = {(s.detail or "")[:14] for s in first}
        assert details == {"", "coefficient ma", "period-2 cycle", "stalled: resid"}
        assert {s.status for s in first} == set(SolveStatus)
        for s, (coefficients, energy, iterations) in zip(first, kept):
            assert s.coefficients.tobytes() == coefficients
            assert type(s.iterations) is int and s.iterations == iterations
            assert type(s.energy) is float and s.energy == energy

    @pytest.mark.parametrize(
        "h",
        [
            build_linear_true(0.5, 30),
            np.ldexp(build_linear_true(0.5, 30), -900),
            build_2d_synthetic(0.4, 0.2, 6),
        ],
        ids=["one-block", "tiny-norm", "rotated-ties"],
    )
    def test_caller_matrix_is_left_alone(self, h):
        # the sweeps zero the diagonal of the block they read, in place: the
        # scaled block on the tiny-norm path, the rotated one where tied
        # groups are rotated.  The caller's matrix must keep its bytes, and
        # a second call must give the same bits
        kept = h.tobytes()

        def solve():
            sols = [iterate_solve(h, k, max_iterations=200) for k in range(h.shape[0])]
            return sols + iterate_solve_all(h, max_iterations=200)

        first = solve()
        assert h.tobytes() == kept
        for a, b in zip(first, solve(), strict=True):
            assert (a.status, a.iterations, a.detail) == (b.status, b.iterations, b.detail)
            assert np.float64(a.energy).tobytes() == np.float64(b.energy).tobytes()
            assert a.coefficients.tobytes() == b.coefficients.tobytes()
        assert h.tobytes() == kept

    def test_sweeps_run_no_python_code(self, monkeypatch):
        # every call of a sweep is a ufunc, a gufunc or a C method: none goes
        # through an __array_function__ dispatcher, which runs a Python
        # function to find its relevant arguments.  States 0 and 1 tie
        # without coupling, so the tie-break's masking runs as well, in the
        # three-column stack of the block and in a one-column one
        called = []
        run = iterative._Stack.run

        def record(frame, event, arg):
            if event == "call":
                called.append(frame.f_code)

        def profiled(stack, steps):
            sys.setprofile(record)
            try:
                run(stack, steps)
            finally:
                sys.setprofile(None)

        monkeypatch.setattr(iterative._Stack, "run", profiled)
        h = np.array([[1.0, 0.0, 0.3], [0.0, 1.0, 0.2], [0.3, 0.2, 3.0]])
        iterate_solve_all(h)
        iterate_solve(h, 0)
        assert called and set(called) == {run.__code__}

    def test_one_product_per_sweep(self):
        # a one-column solve multiplies the start column by the block once
        # and every column it computes once: a batch hands the product of
        # its last column to the next.  State 4 of quartic-grid's beta 1.0
        # runs to the cap of 300 in 16 batches of 16 sweeps and one of 44.
        # A guard stop on the first sweep reports the start energy, here
        # H[0, 0] = -0.0, with its sign, where row 0 of the start column's
        # product is +0.0
        products = []

        def record(frame, event, arg):
            if event == "c_call" and arg.__name__ == "dot":
                products.append(arg.__self__.shape)

        h = quartic_grid(1.0)
        guarded = np.array([[-0.0, 1e-20], [-1e30, 1.0]])
        sys.setprofile(record)
        try:
            capped = iterate_solve(h, 4, max_iterations=300)
            diverged = iterate_solve(guarded, 0)
        finally:
            sys.setprofile(None)
        assert (capped.status, capped.iterations) == (SolveStatus.MAX_ITERATIONS_EXCEEDED, 300)
        assert (diverged.status, diverged.iterations) == (SolveStatus.ALGORITHM_FAILURE, 1)
        # the guard's column is swept to the end of its first batch of 16
        assert products == [(50, 50)] * 301 + [(2, 2)] * 17
        assert diverged.energy == 0.0 and math.copysign(1.0, diverged.energy) == -1.0

    def test_cycle_on_the_first_sweep_after_a_column_stops(self):
        # States 4 and 2 converge at sweeps 17 and 23, so the other columns
        # move to a new stack after sweep 32.  State 1 repeats its sweep-31
        # column at sweep 33: only the column carried over from two sweeps
        # back shows it.
        h = random_symmetric(2076)
        sols = iterate_solve_all(h, max_iterations=100)
        assert sols[4].converged and sols[4].iterations == 17
        assert sols[2].converged and sols[2].iterations == 23
        assert sols[1].detail == "period-2 cycle at sweep 33"
        for sol in sols[1:3]:
            alone = iterate_solve(h, sol.state, max_iterations=100)
            assert (alone.iterations, alone.status, alone.energy) == (
                sol.iterations, sol.status, sol.energy
            )

    @pytest.mark.parametrize(
        "problem, cap, failure",
        [
            # converged states 0-9, capped 10-21, guard-stopped 22-29
            ("linear", 1000, f"coefficient magnitude exceeded {DIVERGENCE_GUARD:.1e}"),
            # converged states 0-2, period-2 cycles at 5-17 and 96-99, the rest capped
            ("quartic", 500, "period-2 cycle at sweep "),
            # two coupling blocks; converged (65 of 136 with the shell rotation,
            # 11 without), capped and guard-stopped states in each
            ("osc2d", 1000, f"coefficient magnitude exceeded {DIVERGENCE_GUARD:.1e}"),
        ],
        ids=["linear", "quartic", "osc2d"],
    )
    def test_block_matches_single_state_solves(self, problem, cap, failure):
        # the caps keep the single-state loop short while convergence, the
        # cap and the case's failure rule all still fire.  Both paths sweep
        # the same coupling-block submatrix, so every result is bit-identical
        if problem == "linear":
            h = build_linear_true(0.5, 30)
        elif problem == "quartic":
            h = build_quartic_synthetic(1.0, default_quartic_a2(1.0), 100)
        else:
            h = build_2d_synthetic(0.4, 0.2, 15)
        block = iterate_solve_all(h, max_iterations=cap)
        for k, b in enumerate(block):
            s = iterate_solve(h, k, max_iterations=cap)
            assert b.state == k
            assert (b.status, b.iterations, b.detail) == (s.status, s.iterations, s.detail)
            assert b.energy == s.energy
            assert np.array_equal(b.coefficients, s.coefficients)
        statuses = {b.status for b in block}
        assert SolveStatus.CONVERGED in statuses
        assert SolveStatus.MAX_ITERATIONS_EXCEEDED in statuses
        assert any(b.detail and b.detail.startswith(failure) for b in block)


class TestAgainstReference:
    """Bitwise agreement with the one-sweep-at-a-time reference of tests/helpers.

    The solver tests its stop rules once per batch of up to 16 sweeps, or
    of up to _LONG_BATCH once a stack has run _LONG_AFTER sweeps without a
    stop, and drops the sweeps after a column's first stop; the reference
    tests them after every sweep.
    """

    @staticmethod
    def assert_same(sol, ref):
        status, iterations, detail, energy, coefficients = ref
        assert type(sol.iterations) is int
        assert (sol.status.value, sol.iterations, sol.detail) == (status, iterations, detail)
        assert np.float64(sol.energy).tobytes() == np.float64(energy).tobytes()
        assert sol.coefficients.tobytes() == coefficients.tobytes()

    SWITCH = iterative._LONG_AFTER
    LONG = SWITCH + iterative._LONG_BATCH

    @pytest.mark.parametrize(
        "cap",
        [1, 2, 15, 16, 17, 33, SWITCH - 1, SWITCH, SWITCH + 1, LONG - 1, LONG, LONG + 1, 1000],
    )
    def test_linear_caps_around_the_batch(self, cap):
        # the cap must land exactly on and beside batch edges: the first
        # short ones, the switch to long batches of the single-state solves
        # after _LONG_AFTER sweeps, and the first long batch's end.  The
        # guard first stops state 29, at sweep 26, in the middle of a batch
        # of the 30-column stack, and at 1000 ten states converge
        h = build_linear_true(0.5, 30)
        block = iterate_solve_all(h, max_iterations=cap)
        for k in range(30):
            ref = reference_iterate(h, k, cap)
            self.assert_same(iterate_solve(h, k, max_iterations=cap), ref)
            self.assert_same(block[k], ref)

    @pytest.mark.parametrize("state", [13, 14, 15])
    def test_linear_energies_that_settle_before_the_cap(self, state):
        # states 13, 14 and 15 pass the energy test on every sweep from
        # sweeps 1,553, 7,995 and 9,589 on, while their coefficients still
        # move by 0.1-0.25 a sweep, up to the cap
        h = build_linear_true(0.5, 30)
        ref = reference_iterate(h, state, 10000)
        assert ref[:3] == ("max_iterations_exceeded", 10000, None)
        self.assert_same(iterate_solve(h, state), ref)
        self.assert_same(linear_frontier()[state], ref)

    def test_witness_that_settles_before_its_column(self, monkeypatch):
        # Row 0 has no off-diagonal entry, so the energy of state 0 never
        # moves and passes its test on every sweep, while its column is
        # pulled by the fast pair 1-2 and the slow pair 3-4.  The column's
        # witness is first an entry of the fast pair, which settles long
        # before the slow one: the column must then be tested whole, and
        # refuted by the slow pair, up to its stop at sweep 233.
        named = []

        class Recording(iterative._Stack):
            def refute(self, columns, entries):
                named.extend(int(e) for j, e in zip(columns, entries) if self.ks[j] == 0)
                super().refute(columns, entries)

        monkeypatch.setattr(iterative, "_Stack", Recording)
        h = np.diag([0.0, 1.0, 2.0, 3.0, 4.0])
        h[1:, 0] = 1.0
        h[1, 2] = h[2, 1] = 0.3
        h[3, 4] = h[4, 3] = 3.0
        block = iterate_solve_all(h, max_iterations=1000)
        assert block[0].converged and block[0].iterations == 233
        assert named[0] in (1, 2) and named[-1] in (3, 4)
        for k in range(5):
            ref = reference_iterate(h, k, 1000)
            self.assert_same(block[k], ref)
            self.assert_same(iterate_solve(h, k, max_iterations=1000), ref)

    # the quartic-grid states that do not converge: the cycles and the cap
    @pytest.mark.parametrize("beta, state", QUARTIC_GRID_CYCLES + QUARTIC_GRID_CAPPED)
    def test_quartic_grid_cycles(self, beta, state):
        h = quartic_grid(beta)
        self.assert_same(iterate_solve(h, state), reference_iterate(h, state, 10000))

    def test_cycle_on_the_first_sweep_of_a_batch(self):
        # sweep 129 = 8 * 16 + 1 compares with a column carried over from the
        # previous batch
        h = build_quartic_synthetic(0.4, default_quartic_a2(0.4), 30)
        ref = reference_iterate(h, 11, 10000)
        assert ref[:3] == ("algorithm_failure", 129, "period-2 cycle at sweep 129")
        self.assert_same(iterate_solve(h, 11), ref)

    @pytest.mark.parametrize(
        "h, state, stop",
        [
            (build_quartic_synthetic(0.6, default_quartic_a2(0.6), 50), 16,
             f"period-2 cycle at sweep {SWITCH + 1}"),
            (build_quartic_true(0.4, 13), 2,
             f"coefficient magnitude exceeded {DIVERGENCE_GUARD:.1e}"),
        ],
        ids=["cycle", "guard"],
    )
    def test_stop_on_the_first_long_sweep(self, h, state, stop):
        # sweep 257 is the first of the first long batch: the cycle compares
        # with, and the guard reports, a column carried over
        ref = reference_iterate(h, state, 10000)
        assert ref[:3] == ("algorithm_failure", self.SWITCH + 1, stop)
        self.assert_same(iterate_solve(h, state), ref)

    @pytest.mark.parametrize(
        "h",
        [
            # states 0 and 1 tie and couple only through state 2: q = 0 and
            # the denominator vanishes, so the partner takes c[l] = s
            [[1.0, 0.0, 0.3], [0.0, 1.0, 0.2], [0.3, 0.2, 3.0]],
            # a non-symmetric tie, coupled in-group but not rotated
            [[1.0, 0.2, 0.0], [0.1, 1.0, 0.0], [0.0, 0.0, 3.0]],
            # H[0, 1] H[1, 0] < 0 makes q < 0 at the zero gap: the vertex root
            [[1.0, 0.2, 0.3], [-0.1, 1.0, 0.2], [0.3, 0.2, 3.0]],
            # states 0 and 2 tie; for state 0, q = 1 + 4 (0.5)(-0.5) = 0 at
            # the gap 1 to state 1, where the root, not s, is taken
            [[1.0, 0.5, 0.0], [-0.5, 0.0, 0.2], [0.0, 0.2, 1.0]],
        ],
        ids=["uncoupled", "non-symmetric", "vertex", "zero-q-at-a-gap"],
    )
    def test_unrotated_ties(self, h):
        h = np.array(h)
        block = iterate_solve_all(h)
        for k in range(3):
            ref = reference_iterate(h, k, 10000)
            self.assert_same(iterate_solve(h, k), ref)
            self.assert_same(block[k], ref)

    @pytest.mark.parametrize(
        "seed, widths, alone, stop",
        [
            # state 5 converges at sweep 13, states 0 and 4 at 17, and states
            # 1 and 2 stall at 19 and 31; state 3 runs alone from sweep 33
            # and cycles there, against the column of sweep 31 carried into
            # its new stack
            (368, [6, 5, 1], 3, "period-2 cycle at sweep 33"),
            # states 0 and 4 converge at sweeps 34 and 42, state 3 stalls at
            # 57, and states 2 and 1 converge at 78 and 84; state 5 runs alone
            # from sweep 97, in long batches of the same stack from sweep
            # 353, up to the cap at 10,000
            (13, [6, 4, 3, 2, 1], 5, None),
        ],
        ids=["cycle", "cap"],
    )
    def test_block_narrowed_to_one_column(self, monkeypatch, seed, widths, alone, stop):
        # a block's stack binds 1-D views once one column is left running
        built = []

        class Recording(iterative._Stack):
            def __init__(self, a, diag, ks, *rest):
                built.append(ks.size)
                super().__init__(a, diag, ks, *rest)

        monkeypatch.setattr(iterative, "_Stack", Recording)
        h = random_symmetric(seed)
        block = iterate_solve_all(h)
        assert built == widths
        assert not block[alone].converged and block[alone].detail == stop
        for k in range(h.shape[0]):
            ref = reference_iterate(h, k, 10000)
            self.assert_same(block[k], ref)
            self.assert_same(iterate_solve(h, k), ref)

    @pytest.mark.parametrize(
        "w, stop",
        [
            (2.0, "period-2 cycle at sweep 70"),
            (3.0, "period-2 cycle at sweep 248"),
            (3.3, "period-2 cycle at sweep 708"),
            (3.4, None),
        ],
        ids=["cycle-70", "cycle-248", "cycle-708", "cap"],
    )
    def test_energy_sum_that_never_moves(self, w, stop):
        # Row 0 has no off-diagonal entry and column 0 has three: the energy
        # sum of state 0 is 0 on every sweep while its column moves, so the
        # cycle test compares the whole column on every sweep.  The pair 1-2
        # repeats every two sweeps once state 3, pulled by the slow pair 3-4,
        # has settled.  States 1-4 converge or pass the guard.
        h = np.diag([0.0, 1.0, 2.0, 3.0, 4.0])
        h[1, 0] = h[2, 0] = h[3, 0] = 1.0
        h[1, 2], h[2, 1] = 2.0, 1.0
        h[1, 3] = h[2, 3] = 0.5
        h[3, 4] = h[4, 3] = w
        block = iterate_solve_all(h, max_iterations=1000)
        assert not block[0].converged and block[0].detail == stop
        for k in range(5):
            ref = reference_iterate(h, k, 1000)
            self.assert_same(block[k], ref)
            self.assert_same(iterate_solve(h, k, max_iterations=1000), ref)

    @pytest.mark.parametrize("seed", [1033, 2451])
    def test_one_sweep_batches(self, monkeypatch, seed):
        # a history bound below one column makes every batch one sweep, so
        # each cycle test reads sums carried over from earlier batches
        monkeypatch.setattr(iterative, "_BATCH_ENTRIES", 1)
        h = random_symmetric(seed)
        block = iterate_solve_all(h, max_iterations=200)
        assert any(s.detail and s.detail.startswith("period-2 cycle") for s in block)
        for k in range(h.shape[0]):
            ref = reference_iterate(h, k, 200)
            self.assert_same(block[k], ref)
            self.assert_same(iterate_solve(h, k, max_iterations=200), ref)

    def test_zero_diagonal_entry_of_the_target(self):
        # H[k, k] = 0 makes q = 0 and the denominator 0 on the state's own
        # entry, which is not a tie: it must stay 0, not become 0 / 0
        h = np.array([[0.0, 0.1], [0.1, 1.0]])
        for k in range(2):
            ref = reference_iterate(h, k, 10000)
            assert ref[0] == "converged"
            self.assert_same(iterate_solve(h, k), ref)
            self.assert_same(iterate_solve_all(h)[k], ref)

    def test_guard(self):
        # stops at sweep 68 and reports the column of sweep 67
        h = build_quartic_true(1.0, 12)
        ref = reference_iterate(h, 0, 10000)
        guard = f"coefficient magnitude exceeded {DIVERGENCE_GUARD:.1e}"
        assert ref[:3] == ("algorithm_failure", 68, guard)
        self.assert_same(iterate_solve(h, 0), ref)

    def test_energy_is_row_k_of_the_sweep_product(self):
        # E = H[k, k] + sum_l H[k, l] c[l] with the sum read off row k of the
        # zero-diagonal mat-vec B c, to the bit, in a stack of one column and
        # in the 40-column one; a dot product of row k with c rounds some of
        # these sums otherwise.  States converge, stall and cap here
        rng = np.random.default_rng(7)
        h = np.diag(np.arange(40.0)) + 0.3 * rng.normal(size=(40, 40))
        b = h - np.diag(np.diag(h))
        block = iterate_solve_all(h, max_iterations=500)
        for k in range(40):
            for sol in (iterate_solve(h, k, max_iterations=500), block[k]):
                energy = h[k, k] + (b @ sol.coefficients)[k]
                assert np.float64(sol.energy).tobytes() == energy.tobytes(), k
        assert {s.status for s in block} == set(SolveStatus)

    @given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=1, max_value=400))
    @settings(max_examples=40, deadline=None)
    def test_property_random_caps(self, seed, cap):
        # caps 1-400 put a stop on every position of the 16-sweep batches and
        # of the first 64-sweep ones, reached through the quick test of a
        # batch and through its full pass alike
        h = random_symmetric(seed)
        block = iterate_solve_all(h, max_iterations=cap)
        for k in range(h.shape[0]):
            ref = reference_iterate(h, k, cap)
            self.assert_same(block[k], ref)
            self.assert_same(iterate_solve(h, k, max_iterations=cap), ref)

    @given(
        st.floats(min_value=0.1, max_value=1.0),
        st.integers(min_value=20, max_value=100),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=1, max_value=600),
    )
    # quartic-grid's own states: beta 0.1 state 0 converges at sweep 81,
    # beta 0.5 state 7 cycles at 255 and beta 1.0 state 6 at 292, and beta
    # 1.0 state 4 runs to any cap
    @example(0.1, 100, 0, 600)
    @example(0.5, 100, 7, 600)
    @example(1.0, 100, 6, 600)
    @example(1.0, 100, 4, 600)
    @settings(max_examples=25, deadline=None)
    def test_property_quartic_one_column(self, beta, dim, state, cap):
        # the one-column solve of quartic-grid's kind of matrix, the
        # transformed quartic at the default a2, at random beta, dimension
        # and cap: random caps end runs at every position of a batch
        h = build_quartic_synthetic(beta, default_quartic_a2(beta), dim)
        ref = reference_iterate(h, state, cap)
        self.assert_same(iterate_solve(h, state, max_iterations=cap), ref)
        self.assert_same(iterate_solve_all(h, max_iterations=cap)[state], ref)


@pytest.mark.parametrize("beta, state", [(b, k) for b in QUARTIC_GRID_SWEEPS for k in range(8)])
def test_quartic_grid_stop_table(beta, state):
    sweeps = QUARTIC_GRID_SWEEPS[beta][state]
    if (beta, state) in QUARTIC_GRID_CYCLES:
        expected = (SolveStatus.ALGORITHM_FAILURE, sweeps, f"period-2 cycle at sweep {sweeps}")
    elif (beta, state) in QUARTIC_GRID_CAPPED:
        expected = (SolveStatus.MAX_ITERATIONS_EXCEEDED, sweeps, None)
    else:
        expected = (SolveStatus.CONVERGED, sweeps, None)
    sol = iterate_solve(quartic_grid(beta), state)
    assert (sol.status, sol.iterations, sol.detail) == expected


def test_linear_frontier_stop_table():
    guard = f"coefficient magnitude exceeded {DIVERGENCE_GUARD:.1e}"
    expected = [
        (SolveStatus.CONVERGED, sweeps, None) if k <= 10
        else (SolveStatus.MAX_ITERATIONS_EXCEEDED, sweeps, None) if k <= 21
        else (SolveStatus.ALGORITHM_FAILURE, sweeps, guard)
        for k, sweeps in enumerate(LINEAR_FRONTIER_SWEEPS)
    ]
    assert [(s.status, s.iterations, s.detail) for s in linear_frontier()] == expected


class TestCouplingBlocks:
    @pytest.mark.parametrize(
        "build, sizes",
        [
            # parity: even and odd n
            (lambda: build_quartic_synthetic(0.5, default_quartic_a2(0.5), 100), [50, 50]),
            # parity of n1 + n2
            (lambda: build_2d_synthetic(0.4, 0.2, 39), [400, 420]),
            (lambda: build_linear_true(0.5, 30), [30]),
        ],
        ids=["quartic", "osc2d", "linear"],
    )
    def test_block_sizes(self, build, sizes):
        h = build()
        blocks = _coupling_blocks(h)
        assert [b.size for b in blocks] == sizes
        assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(h.shape[0]))
        for b in blocks:
            assert np.all(np.diff(b) > 0)

    def test_one_way_coupling_stays_in_the_block(self):
        # H[l, k] alone feeds y[l] of state k: here H[2, 0] for state 0 and
        # H[1, 3] for state 3, with H[0, 2] = H[3, 1] = 0
        h = np.diag([1.0, 2.0, 3.0, 4.0])
        h[2, 0] = 0.5
        h[1, 3] = 0.5
        assert [b.tolist() for b in _coupling_blocks(h)] == [[0, 2], [1, 3]]
        block = iterate_solve_all(h)
        for k, l, c in ((0, 2, -0.25), (3, 1, 0.25)):
            sol = iterate_solve(h, k)
            assert sol.status is SolveStatus.CONVERGED
            assert sol.coefficients[l] == c
            assert block[k].coefficients[l] == c

    @pytest.mark.parametrize(
        "build, state",
        [(lambda: np.diag([1.0, 1.0]), 1), (lambda: build_2d_true(0.0, 2), 1)],
        ids=["diag", "osc2d-beta0"],
    )
    def test_uncoupled_degenerate_partner_stays_out(self, build, state):
        # an exact diagonal tie with a state of another block would take the
        # c[l] = s branch and mix that partner in with weight 1
        h = build()
        unit = np.zeros(h.shape[0])
        unit[state] = 1.0
        for sol in (iterate_solve(h, state), iterate_solve_all(h)[state]):
            assert sol.status is SolveStatus.CONVERGED
            assert sol.iterations == 1
            assert sol.energy == h[state, state]
            assert np.array_equal(sol.coefficients, unit)


class TestDegenerateRotation:
    """Shells n1 + n2 = N of the 2-D oscillator are tied and coupled in-shell."""

    PAIRS = list(zip(*triangular_pairs(39)))

    def solve_on_levels(self, beta, states):
        """Solve states, asserting each is an eigenpair at its pair's normal-mode level.

        The classifier's rule: residual within 1e-9 ||H||_F, energy within
        1e-8 of the eigenvalue nearest the closed-form energy.
        """
        h = build_2d_synthetic(beta, beta / 2.0, 39)
        levels = np.linalg.eigvals(h)
        sols = [iterate_solve(h, k) for k in states]
        for k, sol in zip(states, sols):
            assert sol.status is SolveStatus.CONVERGED, (beta, k, sol.status, sol.detail)
            c = sol.coefficients
            residual = np.linalg.norm(h @ c - sol.energy * c) / np.linalg.norm(c)
            assert residual <= 1e-9 * np.linalg.norm(h), (beta, k)
            exact = exact_2d_energy(*self.PAIRS[k], beta)
            level = levels[np.argmin(np.abs(levels - exact))]
            assert abs(sol.energy - level) <= 1e-8 * max(abs(level), 1.0), (beta, k)
        return sols

    @pytest.mark.parametrize("beta", [0.2, 0.4, 0.6])
    def test_first_three_shells_reach_their_levels(self, beta):
        # without the rotation state 4, the middle of shell 2, runs to the
        # cap and state 3 converges to no eigenpair
        self.solve_on_levels(beta, range(6))

    def test_strong_coupling_keeps_the_lowest_states(self):
        # at beta 0.8 neighbouring shells overlap after the rotation; states
        # 0-2 are acceptance criterion 06, state 3 the top of shell 1
        self.solve_on_levels(0.8, range(4))

    def test_rounding_floor_stops_a_settled_state(self):
        # state 20's column is an eigenvector to rounding after about 130
        # sweeps, but coefficients far below 1 keep jittering by more than
        # coeff_tol of themselves, so without the floor it runs to the cap
        (sol,) = self.solve_on_levels(0.4, [20])
        assert sol.iterations < 1000

    def test_rotated_column_is_mapped_back(self):
        # the middle of shell 2 is (|2,0> - |0,2>)/sqrt(2) to lowest order,
        # so its own basis entry is near 0 and the weight of 1 sits on the
        # rotated vector, not on coefficients[4]
        h = build_2d_synthetic(0.4, 0.2, 39)
        sol = iterate_solve(h, 4)
        c = sol.coefficients / np.linalg.norm(sol.coefficients)
        assert abs(c[4]) < 1e-6
        assert c[3] == pytest.approx(-c[5], rel=1e-2)
        assert abs(c[3]) > 0.6

    def test_uncoupled_tie_is_not_rotated(self, monkeypatch):
        # states 0 and 1 tie but couple only through state 2: no rotation,
        # and every result is that of the plain sweep with its sign tie-break
        h = np.array([[1.0, 0.0, 0.3], [0.0, 1.0, 0.2], [0.3, 0.2, 3.0]])
        a = h.copy()
        assert _rotate_tied_groups(a) == []
        assert np.array_equal(a, h)
        rotated = [iterate_solve(h, k) for k in range(3)]
        monkeypatch.setattr(iterative, "_rotate_tied_groups", lambda a: [])
        plain = [iterate_solve(h, k) for k in range(3)]
        for r, p in zip(rotated, plain):
            assert (r.status, r.iterations, r.energy) == (p.status, p.iterations, p.energy)
            assert np.array_equal(r.coefficients, p.coefficients)
            assert r.coefficients[r.state] == 1.0

    def test_zero_denominator_takes_the_tie_break_sign(self):
        # states 0 and 1 tie with H[0, 1] = 0 and couple only through state
        # 2, so q = 0 and the denominator vanishes; the update then gives
        # the partner c[l] = s = sign(k - l).  The column then passes the
        # step tests after 3 sweeps but is no eigenpair: its residual
        # |H c - E c| / |c| is about 0.017, above 1e-9 |H|_F, so it has stalled
        h = np.array([[1.0, 0.0, 0.3], [0.0, 1.0, 0.2], [0.3, 0.2, 3.0]])
        for k, partner in ((0, 1), (1, 0)):
            sol = iterate_solve(h, k)
            assert (sol.status, sol.iterations) == (SolveStatus.ALGORITHM_FAILURE, 3)
            assert sol.detail.startswith("stalled: residual 1.7")
            assert sol.coefficients[partner] == np.sign(k - partner)

    def test_non_symmetric_tie_is_not_rotated(self):
        h = np.array([[1.0, 0.2, 0.0], [0.1, 1.0, 0.0], [0.0, 0.0, 3.0]])
        a = h.copy()
        assert _rotate_tied_groups(a) == []
        assert np.array_equal(a, h)

    def test_rotation_diagonalizes_each_coupled_group(self):
        h = build_2d_synthetic(0.4, 0.2, 15)
        block = _coupling_blocks(h)[0]
        a = h[np.ix_(block, block)]
        rotated = a.copy()
        groups = _rotate_tied_groups(rotated)
        # shells 2, 4, ..., 14 of the even block; shell 0 has one state
        assert [g.size for g, _ in groups] == list(range(3, 16, 2))
        q = np.eye(block.size)
        for g, v in groups:
            q[np.ix_(g, g)] = v
            sub = rotated[np.ix_(g, g)]
            assert np.array_equal(sub, np.diag(np.diag(sub)))
            assert np.all(np.diff(np.diag(sub)) >= 0.0)
        np.testing.assert_allclose(rotated, q.T @ a @ q, atol=1e-13 * np.abs(a).max())
