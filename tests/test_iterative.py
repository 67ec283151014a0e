"""Fixed-point quadratic-update solver: exactness, branches, stopping rules."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perturba.hamiltonians import (
    build_linear_true,
    build_quartic_synthetic,
    build_quartic_true,
    default_quartic_a2,
)
from perturba.iterative import IterConfig, iterate_solve, iterate_solve_all
from perturba.linalg import SolveStatus, jacobi_diagonalize, residual_norm
from perturba.rspt import DIVERGENCE_GUARD


def random_dominant(rng: np.random.Generator, dim: int) -> np.ndarray:
    diag = np.sort(rng.uniform(0.0, 10.0, size=dim))
    diag += np.arange(dim)
    off = rng.uniform(-1.0, 1.0, size=(dim, dim))
    off = (off + off.T) / 2.0
    np.fill_diagonal(off, 0.0)
    min_gap = float(np.min(np.diff(diag)))
    return np.diag(diag) + 0.05 * min_gap * off


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
            sol = iterate_solve(h, k, IterConfig(max_iterations=1))
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
        reference = jacobi_diagonalize(h).eigenvalues
        for k in range(3):
            sol = iterate_solve(h, k, IterConfig(max_iterations=2000))
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
        assert np.all(np.isfinite(sol.normalized_coefficients))
        assert float(np.linalg.norm(sol.normalized_coefficients)) == pytest.approx(
            1.0, abs=1e-14
        )
        assert math.isfinite(residual)

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
        sol = iterate_solve(h, 0, IterConfig(max_iterations=3))
        if sol.status is SolveStatus.MAX_ITERATIONS_EXCEEDED:
            assert sol.iterations == 3

    def test_converged_solution_has_no_detail(self):
        sol = iterate_solve(np.array([[1.0, 0.1], [0.1, 2.0]]), 0)
        assert sol.detail is None

    def test_state_out_of_range(self):
        with pytest.raises(IndexError):
            iterate_solve(np.eye(2), 2)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IterConfig(energy_tol=-1.0)
        with pytest.raises(ValueError):
            IterConfig(max_iterations=0)

    def test_normalized_coefficients_unit_norm(self):
        h = np.array([[1.0, 0.5], [0.5, 2.0]])
        sol = iterate_solve(h, 0)
        assert float(np.linalg.norm(sol.normalized_coefficients)) == pytest.approx(
            1.0, abs=1e-14
        )
        assert sol.coefficients[0] == 1.0


class TestAgainstJacobi:
    @pytest.mark.parametrize("seed", range(4))
    def test_dominant_matrices(self, seed):
        rng = np.random.default_rng(400 + seed)
        dim = int(rng.integers(2, 11))
        h = random_dominant(rng, dim)
        reference = jacobi_diagonalize(h).eigenvalues
        for sol in iterate_solve_all(h):
            assert sol.status is SolveStatus.CONVERGED
            assert float(np.min(np.abs(reference - sol.energy))) < 1e-9

    @given(st.integers(min_value=0, max_value=100_000))
    @settings(max_examples=25, deadline=None)
    def test_property_dominant_matrices(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 9))
        h = random_dominant(rng, dim)
        reference = jacobi_diagonalize(h).eigenvalues
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

    @pytest.mark.parametrize(
        "problem, cap, failure",
        [
            # converged states 0-9, capped 10-21, guard-stopped 22-29
            ("linear", 1000, f"coefficient magnitude exceeded {DIVERGENCE_GUARD:.1e}"),
            # converged states 0-2, period-2 cycles from state 5, the rest capped
            ("quartic", 500, "period-2 cycle at sweep "),
        ],
        ids=["linear", "quartic"],
    )
    def test_block_matches_single_state_solves(self, problem, cap, failure):
        # the caps keep the single-state loop short while convergence, the
        # cap and the case's failure rule all still fire.  Only converged
        # energies are compared: a capped state's last iterate is no result,
        # and the drift of the linear states 12-21 amplifies any rounding
        if problem == "linear":
            h = build_linear_true(0.5, 30)
        else:
            h = build_quartic_synthetic(1.0, default_quartic_a2(1.0), 100)
        cfg = IterConfig(max_iterations=cap)
        block = iterate_solve_all(h, cfg)
        for k, b in enumerate(block):
            s = iterate_solve(h, k, cfg)
            assert b.state == k
            assert (b.status, b.iterations, b.detail) == (s.status, s.iterations, s.detail)
            if b.converged:
                assert b.energy == pytest.approx(s.energy, rel=1e-12, abs=0.0)
        statuses = {b.status for b in block}
        assert SolveStatus.CONVERGED in statuses
        assert SolveStatus.MAX_ITERATIONS_EXCEEDED in statuses
        assert any(b.detail and b.detail.startswith(failure) for b in block)
