"""Benchmark orchestration: references, runs, CSV output, wavefunctions."""

import dataclasses
import io
import math

import numpy as np
import pytest

from perturba.experiments import (
    METHODS,
    PROBLEMS,
    QUARTIC_BENCHMARK,
    BetaOutOfRangeError,
    NotTabulatedError,
    ProblemInstance,
    RunResult,
    StateRow,
    UnsupportedProblemError,
    backtransform_wavefunction,
    build_instance_matrix,
    exact_2d_energy,
    exact_linear_energy,
    quartic_reference_energy,
    run_instance,
    transform_label,
    write_results_csv,
)
from perturba.hamiltonians import (
    build_linear_true,
    build_quartic_synthetic,
    build_quartic_true,
)
from perturba.linalg import DimensionMismatchError, SolveStatus
from perturba.oscillator import wavefunction_rows


class TestExactFormulas:
    def test_linear_levels(self):
        assert exact_linear_energy(0, 0.5) == 0.375
        assert exact_linear_energy(3, 0.0) == 3.5
        assert exact_linear_energy(2, 2.0) == 0.5

    def test_linear_negative_state(self):
        with pytest.raises(ValueError):
            exact_linear_energy(-1, 0.5)

    def test_2d_levels(self):
        assert exact_2d_energy(0, 0, 0.0) == 1.0
        expected = math.sqrt(1.6) * 1.5 + math.sqrt(0.4) * 2.5
        assert exact_2d_energy(1, 2, 0.6) == pytest.approx(expected, abs=1e-15)

    def test_2d_beta_range(self):
        with pytest.raises(BetaOutOfRangeError):
            exact_2d_energy(0, 0, 1.5)
        with pytest.raises(BetaOutOfRangeError):
            exact_2d_energy(0, 0, -0.1)
        exact_2d_energy(0, 0, 1.0)  # the closed end of the range is allowed

    def test_2d_negative_state(self):
        with pytest.raises(ValueError):
            exact_2d_energy(-1, 0, 0.5)


class TestQuarticReference:
    def test_golden_lookups(self):
        assert quartic_reference_energy(0, 0.05) == 0.53264
        assert quartic_reference_energy(2, 0.5) == 4.3275
        assert quartic_reference_energy(7, 0.05) == 10.022

    def test_golden_beta_match_tolerance(self):
        assert quartic_reference_energy(0, 0.05 + 1e-10) == 0.53264

    def test_off_grid_beta(self):
        with pytest.raises(NotTabulatedError):
            quartic_reference_energy(0, 0.33)

    def test_missing_cell(self):
        with pytest.raises(NotTabulatedError):
            quartic_reference_energy(7, 0.5)
        with pytest.raises(NotTabulatedError):
            quartic_reference_energy(4, 1.0)

    def test_benchmark_grid_shape(self):
        assert len(QUARTIC_BENCHMARK) == 17
        assert all(len(row) == 8 for row in QUARTIC_BENCHMARK.values())

    def test_oracle_agrees_with_golden(self):
        # the golden grid carries five significant digits
        for n, beta in [(0, 0.25), (2, 0.5), (3, 1.0)]:
            exact = np.linalg.eigvalsh(build_quartic_true(beta, 200))[n]
            golden = quartic_reference_energy(n, beta)
            assert exact == pytest.approx(golden, rel=5e-5)

    def test_oracle_basis_stability(self):
        a = np.linalg.eigvalsh(build_quartic_true(1.0, 200))[:4]
        b = np.linalg.eigvalsh(build_quartic_true(1.0, 300))[:4]
        assert np.all(np.abs(a - b) <= 1e-6)

    def test_negative_state(self):
        with pytest.raises(ValueError):
            quartic_reference_energy(-1, 0.5)


@pytest.mark.parametrize(
    "reference, args",
    [
        (exact_linear_energy, (1.5, 0.5)),
        (exact_linear_energy, (True, 0.5)),
        (exact_2d_energy, (0.5, 0, 0.4)),
        (exact_2d_energy, (0, False, 0.4)),
        (quartic_reference_energy, (1.0, 0.5)),
        (quartic_reference_energy, (np.float64(2.0), 0.5)),
    ],
)
def test_reference_rejects_a_quantum_number_that_names_no_level(reference, args):
    # unchecked, 1.5 gave 1.875, (0.5, 0) gave 1.5705..., True counted as 1
    # and the quartic table failed on a float index with a bare TypeError
    with pytest.raises(ValueError, match="quantum number must be an integer"):
        reference(*args)


@pytest.mark.parametrize(
    "reference, args, message",
    [
        (exact_linear_energy, (2, True), "not a real number"),
        (exact_linear_energy, (2, math.nan), "not finite"),
        (exact_2d_energy, (0, 0, True), "not a real number"),
        (exact_2d_energy, (0, 0, math.inf), "not finite"),
        (quartic_reference_energy, (2, True), "not a real number"),
        (quartic_reference_energy, (2, math.nan), "not finite"),
    ],
)
def test_reference_rejects_a_beta_that_names_no_coupling(reference, args, message):
    # unchecked, True gave the beta = 1.0 levels: 2.0 and 5.1793
    with pytest.raises(ValueError, match=f"beta .* is {message}"):
        reference(*args)


class TestProblemInstance:
    def test_constants(self):
        assert PROBLEMS == ("linear", "quartic", "osc2d")
        assert METHODS == ("rspt", "iter", "oracle")

    def test_unknown_problem(self):
        with pytest.raises(UnsupportedProblemError):
            ProblemInstance(problem="cubic", beta=0.5, dim=10, method="iter")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            ProblemInstance(problem="linear", beta=0.5, dim=10, method="newton")

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            ProblemInstance(problem="linear", beta=0.5, dim=0, method="iter")
        with pytest.raises(ValueError):
            ProblemInstance(problem="osc2d", beta=0.4, dim=-1, method="iter")

    def test_osc2d_zero_cut_is_one_state(self):
        # osc2d's dim is the cut n_max: 0 keeps the single pair (0, 0)
        inst = ProblemInstance(problem="osc2d", beta=0.4, dim=0, method="iter")
        result = run_instance(inst)
        assert len(result.rows) == 1
        assert result.all_converged
        assert result.rows[0].energy == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("dim", [2.5, 3.0, True, "3", None])
    def test_non_integer_dim(self, dim):
        with pytest.raises(ValueError, match="linear dim must be an integer"):
            ProblemInstance(problem="linear", beta=0.5, dim=dim, method="iter")

    def test_numpy_integer_dim(self):
        inst = ProblemInstance(problem="linear", beta=0.5, dim=np.int64(4), method="iter")
        assert build_instance_matrix(inst).shape == (4, 4)

    @pytest.mark.parametrize("transform", [math.inf, math.nan, -math.inf])
    def test_non_finite_transform(self, transform):
        with pytest.raises(ValueError, match="transform .* is not finite"):
            ProblemInstance(problem="linear", beta=0.5, dim=10, method="iter", transform=transform)

    @pytest.mark.parametrize("transform", [True, False, "0.5", 1j])
    def test_non_real_transform(self, transform):
        with pytest.raises(ValueError, match="transform .* is not a real number"):
            ProblemInstance(problem="linear", beta=0.5, dim=10, method="iter", transform=transform)

    def test_real_transform_kinds(self):
        for transform in (0, np.float64(-0.3), np.int64(1)):
            inst = ProblemInstance(
                problem="quartic", beta=0.5, dim=6, method="iter", transform=transform
            )
            assert np.array_equal(
                build_instance_matrix(inst), build_quartic_synthetic(0.5, float(transform), 6)
            )

    def test_oracle_rejects_transform(self):
        with pytest.raises(ValueError):
            ProblemInstance(problem="linear", beta=0.5, dim=10, method="oracle", transform=0.5)


class TestBuildInstanceMatrix:
    def test_true_and_transformed(self):
        plain = ProblemInstance(problem="linear", beta=0.5, dim=8, method="iter")
        assert np.array_equal(build_instance_matrix(plain), build_linear_true(0.5, 8))
        synth = ProblemInstance(
            problem="linear", beta=0.5, dim=8, method="iter", transform=0.5
        )
        assert np.all(np.tril(build_instance_matrix(synth), k=-1) == 0.0)


class TestRunInstance:
    def test_linear_iter_run(self):
        inst = ProblemInstance(problem="linear", beta=0.5, dim=20, method="iter")
        result = run_instance(inst)
        assert len(result.rows) == 20
        assert [r.state for r in result.rows] == list(range(20))
        for row in result.rows[:8]:
            assert row.status is SolveStatus.CONVERGED
            assert row.residual < 1e-6
            assert row.energy == pytest.approx(
                exact_linear_energy(row.state, 0.5), abs=1e-8
            )

    def test_oracle_run(self):
        inst = ProblemInstance(problem="linear", beta=0.5, dim=12, method="oracle")
        result = run_instance(inst)
        assert result.all_converged
        energies = [r.energy for r in result.rows]
        assert energies == sorted(energies)
        assert all(r.iterations == 0 for r in result.rows)
        assert all(r.residual < 1e-9 for r in result.rows)

    def test_osc2d_dim_is_triangular_cut(self):
        inst = ProblemInstance(problem="osc2d", beta=0.4, dim=5, method="oracle")
        result = run_instance(inst)
        assert result.instance is inst
        assert len(result.rows) == 21  # (nmax+1)(nmax+2)/2 states at cut 5

    def test_all_converged_false_on_failures(self):
        inst = ProblemInstance(
            problem="quartic",
            beta=1.0,
            dim=16,
            method="iter",
            transform=-0.375,
        )
        result = run_instance(inst)
        assert not result.all_converged

    def test_methods_agree_where_converged(self):
        a = run_instance(ProblemInstance(problem="linear", beta=0.25, dim=15, method="rspt"))
        b = run_instance(ProblemInstance(problem="linear", beta=0.25, dim=15, method="iter"))
        both = 0
        for ra, rb in zip(a.rows, b.rows):
            if ra.status is SolveStatus.CONVERGED and rb.status is SolveStatus.CONVERGED:
                assert ra.energy == pytest.approx(rb.energy, abs=1e-9)
                both += 1
        assert both >= 8


class TestConvergenceFrontier:
    def test_contrast_on_degenerate_ladder(self):
        # the expansion breaks on an interior degeneracy; the iterative
        # update's tie-break walks straight through it
        from perturba.iterative import iterate_solve_all
        from perturba.rspt import rspt_solve_all

        h = np.diag([0.0, 1.0, 2.0, 2.0, 4.0]) + 0.01 * (np.ones((5, 5)) - np.eye(5))
        rspt_status = [s.status for s in rspt_solve_all(h)]
        iter_status = [s.status for s in iterate_solve_all(h)]
        assert rspt_status[2] is SolveStatus.ALGORITHM_FAILURE
        assert all(s is SolveStatus.CONVERGED for s in iter_status)

    def test_linear_true_frontier(self):
        for method in ("rspt", "iter"):
            inst = ProblemInstance(problem="linear", beta=0.5, dim=25, method=method)
            assert run_instance(inst).frontier == 10

    def test_no_convergence_at_all(self):
        # at this coupling every state of the 6-state ladder diverges
        inst = ProblemInstance(problem="linear", beta=3.0, dim=6, method="iter")
        assert run_instance(inst).frontier == -1

    @staticmethod
    def _result(statuses):
        rows = tuple(
            StateRow(state=i, energy=float(i), status=status, iterations=1, residual=0.0)
            for i, status in enumerate(statuses)
        )
        inst = ProblemInstance(problem="linear", beta=0.5, dim=len(rows), method="iter")
        return RunResult(instance=inst, rows=rows)

    def test_frontier_of_hand_built_results(self):
        ok, capped = SolveStatus.CONVERGED, SolveStatus.MAX_ITERATIONS_EXCEEDED
        # the frontier stops at the first failure, whatever converges after it
        assert self._result([ok, ok, capped, ok]).frontier == 1
        assert self._result([ok, ok, ok]).frontier == 2
        assert self._result([capped, ok, ok]).frontier == -1
        assert self._result([SolveStatus.ALGORITHM_FAILURE]).frontier == -1


class TestCsvOutput:
    HEADER = "problem,beta,dim,method,transform,state,energy,status,iterations,residual"

    def test_golden_line(self):
        rows = tuple(
            StateRow(
                state=n, energy=n + 0.5, status=SolveStatus.CONVERGED, iterations=3,
                residual=1e-12,
            )
            for n in range(2)
        )
        result = RunResult(
            instance=ProblemInstance(problem="linear", beta=0.5, dim=2, method="iter"),
            rows=rows,
        )
        buf = io.StringIO()
        write_results_csv([result], buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == self.HEADER
        assert lines[1] == "linear,0.5,2,iter,none,0,0.5,converged,3,9.9999999999999998e-13"
        assert lines[2] == "linear,0.5,2,iter,none,1,1.5,converged,3,9.9999999999999998e-13"
        assert len(lines) == 3

    def test_transform_column(self):
        rows = tuple(
            StateRow(
                state=n, energy=2.0, status=SolveStatus.MAX_ITERATIONS_EXCEEDED,
                iterations=10, residual=0.5,
            )
            for n in range(4)
        )
        inst = ProblemInstance(
            problem="quartic", beta=1.0, dim=4, method="rspt",
            transform=-0.375,
        )
        buf = io.StringIO()
        write_results_csv([RunResult(instance=inst, rows=rows)], buf)
        fields = buf.getvalue().splitlines()[2].split(",")
        assert fields[2:6] == ["4", "rspt", "a2=-0.375", "1"]
        # a failed row's last iterate is no level: energy nan, residual kept
        assert fields[6:10] == ["nan", "max_iterations_exceeded", "10", "0.5"]

    def test_2d_exact_columns(self):
        inst = ProblemInstance(problem="osc2d", beta=0.4, dim=3, method="oracle")
        result = run_instance(inst)
        buf = io.StringIO()
        write_results_csv([result], buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == self.HEADER + ",n1,n2,exact"
        first = lines[1].split(",")
        assert first[2] == "10"  # the matrix size at cut 3, not the cut
        assert first[10] == "0" and first[11] == "0"
        assert float(first[12]) == pytest.approx(exact_2d_energy(0, 0, 0.4))
        last = lines[-1].split(",")
        assert last[10:12] == ["3", "0"]  # ordered by total quanta, then n1

    def test_exact_columns_rejected_off_2d(self):
        # the exact column belongs to osc2d runs, so they cannot share a CSV
        osc2d = run_instance(ProblemInstance(problem="osc2d", beta=0.4, dim=2, method="oracle"))
        linear = run_instance(ProblemInstance(problem="linear", beta=0.5, dim=3, method="oracle"))
        buf = io.StringIO()
        write_results_csv([linear, linear], buf)
        assert buf.getvalue().splitlines()[0] == self.HEADER
        for mixed in ([osc2d, linear], [linear, osc2d]):
            buf = io.StringIO()
            with pytest.raises(UnsupportedProblemError):
                write_results_csv(mixed, buf)
            assert buf.getvalue() == ""

    def test_round_trip_parse(self):
        import csv

        inst = ProblemInstance(problem="linear", beta=0.5, dim=6, method="iter")
        result = run_instance(inst)
        buf = io.StringIO()
        write_results_csv([result], buf)
        buf.seek(0)
        records = list(csv.DictReader(buf))
        assert len(records) == 6
        for rec, row in zip(records, result.rows):
            assert float(rec["energy"]) == row.energy
            assert int(rec["iterations"]) == row.iterations
            assert rec["status"] == row.status.value


class TestTransformLabel:
    def test_labels(self):
        def label(problem, transform):
            return transform_label(
                ProblemInstance(
                    problem=problem, beta=0.5, dim=4, method="iter", transform=transform
                )
            )

        assert label("linear", None) == "none"
        assert label("linear", 0.5) == "a=0.5"
        assert label("quartic", -0.375) == "a2=-0.375"
        assert label("osc2d", 0.25) == "a=0.25"


class TestBacktransform:
    GRID = np.linspace(-12.0, 12.0, 2048)

    def test_identity_ground_state(self):
        inst = ProblemInstance(problem="linear", beta=0.0, dim=5, method="iter")
        result = run_instance(inst)
        assert result.rows[0].status is SolveStatus.CONVERGED

        from perturba.iterative import iterate_solve

        sol = iterate_solve(build_instance_matrix(inst), 0)
        wave = backtransform_wavefunction(inst, sol, self.GRID)
        exact = math.pi ** -0.25 * np.exp(-0.5 * self.GRID**2)
        assert float(np.max(np.abs(np.abs(wave) - exact))) < 1e-6

    def test_matched_transform_gives_shifted_gaussian(self):
        beta = 0.5
        inst = ProblemInstance(
            problem="linear", beta=beta, dim=30, method="iter", transform=beta
        )
        from perturba.iterative import iterate_solve

        sol = iterate_solve(build_instance_matrix(inst), 0)
        assert sol.status is SolveStatus.CONVERGED
        wave = backtransform_wavefunction(inst, sol, self.GRID)
        exact = math.pi ** -0.25 * np.exp(-0.5 * (self.GRID + beta) ** 2)
        err = min(
            float(np.max(np.abs(wave - exact))),
            float(np.max(np.abs(wave + exact))),
        )
        assert err < 1e-6

    def test_partial_transform_same_physical_state(self):
        beta = 0.5
        inst = ProblemInstance(
            problem="linear", beta=beta, dim=40, method="iter", transform=0.25
        )
        from perturba.iterative import iterate_solve

        sol = iterate_solve(build_instance_matrix(inst), 0)
        assert sol.status is SolveStatus.CONVERGED
        wave = backtransform_wavefunction(inst, sol, self.GRID)
        exact = math.pi ** -0.25 * np.exp(-0.5 * (self.GRID + beta) ** 2)
        err = min(
            float(np.max(np.abs(wave - exact))),
            float(np.max(np.abs(wave + exact))),
        )
        assert err < 1e-5

    def test_unit_norm_on_grid(self):
        from perturba.iterative import iterate_solve

        inst = ProblemInstance(problem="linear", beta=0.5, dim=10, method="iter")
        sol = iterate_solve(build_instance_matrix(inst), 0)
        wave = backtransform_wavefunction(inst, sol, self.GRID)
        assert np.trapezoid(wave * wave, self.GRID) == pytest.approx(1.0, abs=1e-12)

    def test_osc2d_has_no_coordinate_picture(self):
        from perturba.iterative import iterate_solve

        # transformed or not, a 2-D coefficient column has no 1-D picture
        for transform in (0.2, None):
            inst = ProblemInstance(
                problem="osc2d", beta=0.4, dim=4, method="iter", transform=transform
            )
            sol = iterate_solve(build_instance_matrix(inst), 3)
            with pytest.raises(UnsupportedProblemError):
                backtransform_wavefunction(inst, sol, self.GRID)

    @pytest.mark.parametrize(
        "grid",
        [
            [np.nan, 0.0, 1.0],
            [np.inf, 0.0],
            np.linspace(3.0, -3.0, 7),
            np.linspace(-3.0, 3.0, 50).reshape(5, 10),
            [0.0],
        ],
        ids=["nan", "inf", "descending", "2-d", "one-point"],
    )
    def test_rejects_a_bad_grid(self, grid):
        # unchecked, these gave nan, a RuntimeWarning and nan, a math domain
        # error, a matmul error and "wavefunction vanished"
        from perturba.iterative import iterate_solve

        inst = ProblemInstance(problem="linear", beta=0.5, dim=10, method="iter")
        sol = iterate_solve(build_linear_true(0.5, 10), 0)
        with pytest.raises(ValueError, match="strictly increasing"):
            backtransform_wavefunction(inst, sol, grid)

    @pytest.mark.parametrize("part", ["grid", "coefficients"])
    def test_rejects_complex_input(self, part):
        # the casts to float kept only the real parts, with a ComplexWarning
        from perturba.iterative import iterate_solve

        inst = ProblemInstance(problem="linear", beta=0.5, dim=10, method="iter")
        sol = iterate_solve(build_linear_true(0.5, 10), 0)
        grid = np.linspace(-3.0, 3.0, 7)
        if part == "grid":
            grid = grid + 0j
        else:
            sol = dataclasses.replace(sol, coefficients=sol.coefficients + 0j)
        with pytest.raises(ValueError, match="not complex"):
            backtransform_wavefunction(inst, sol, grid)

    @pytest.mark.parametrize("dim", [5, 20])
    def test_rejects_a_solution_that_does_not_fit(self, dim):
        # a 10-coefficient solution under a dim-20 or dim-5 instance gave a
        # wavefunction of the wrong expansion
        from perturba.iterative import iterate_solve

        inst = ProblemInstance(problem="linear", beta=0.5, dim=dim, method="iter")
        sol = iterate_solve(build_linear_true(0.5, 10), 0)
        with pytest.raises(DimensionMismatchError, match="does not fit dim"):
            backtransform_wavefunction(inst, sol, self.GRID)

    def test_wavefunction_rows_shape(self):
        rows = wavefunction_rows(3, self.GRID)
        assert rows.shape == (4, self.GRID.size)
