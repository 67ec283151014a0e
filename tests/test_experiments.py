"""Benchmark orchestration: references, runs, CSV output, wavefunctions."""

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
    convergence_frontier,
    exact_2d_energy,
    exact_linear_energy,
    quartic_reference_energy,
    run_instance,
    transform_label,
    write_results_csv,
)
from perturba.hamiltonians import SyntheticSpec, build_linear_true, build_quartic_true
from perturba.linalg import SolveStatus
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

    def test_transform_problem_mismatch(self):
        t = SyntheticSpec(problem="quartic", beta=0.5, a2=-0.35)
        with pytest.raises(ValueError):
            ProblemInstance(problem="linear", beta=0.5, dim=10, method="iter", transform=t)

    def test_transform_beta_mismatch(self):
        t = SyntheticSpec(problem="linear", beta=0.25, a=0.25)
        with pytest.raises(ValueError):
            ProblemInstance(problem="linear", beta=0.5, dim=10, method="iter", transform=t)

    def test_oracle_rejects_transform(self):
        t = SyntheticSpec(problem="linear", beta=0.5, a=0.5)
        with pytest.raises(ValueError):
            ProblemInstance(problem="linear", beta=0.5, dim=10, method="oracle", transform=t)


class TestBuildInstanceMatrix:
    def test_true_and_transformed(self):
        plain = ProblemInstance(problem="linear", beta=0.5, dim=8, method="iter")
        assert np.array_equal(build_instance_matrix(plain), build_linear_true(0.5, 8))
        t = SyntheticSpec(problem="linear", beta=0.5, a=0.5)
        synth = ProblemInstance(
            problem="linear", beta=0.5, dim=8, method="iter", transform=t
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
        assert result.basis is not None
        assert result.basis.size == 21
        assert result.dim == 21  # reports matrix size, not the cut
        assert len(result.rows) == 21

    def test_all_converged_false_on_failures(self):
        inst = ProblemInstance(
            problem="quartic",
            beta=1.0,
            dim=16,
            method="iter",
            transform=SyntheticSpec(problem="quartic", beta=1.0, a2=-0.375),
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
        assert convergence_frontier("linear", 0.5, 25, "rspt") == 10
        assert convergence_frontier("linear", 0.5, 25, "iter") == 10

    def test_no_convergence_at_all(self):
        # at this coupling every state of the 6-state ladder diverges
        assert convergence_frontier("linear", 3.0, 6, "iter") == -1


class TestCsvOutput:
    HEADER = "problem,beta,dim,method,transform,state,energy,status,iterations,residual"

    def test_golden_line(self):
        row = StateRow(
            state=0, energy=0.5, status=SolveStatus.CONVERGED, iterations=3,
            residual=1e-12,
        )
        result = RunResult(
            problem="linear", beta=0.5, dim=2, method="iter", transform=None,
            rows=(row,),
        )
        buf = io.StringIO()
        write_results_csv([result], buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == self.HEADER
        assert lines[1] == "linear,0.5,2,iter,none,0,0.5,converged,3,9.9999999999999998e-13"

    def test_transform_column(self):
        row = StateRow(
            state=1, energy=2.0, status=SolveStatus.MAX_ITERATIONS_EXCEEDED,
            iterations=10, residual=0.5,
        )
        result = RunResult(
            problem="quartic", beta=1.0, dim=4, method="rspt",
            transform=SyntheticSpec(problem="quartic", beta=1.0, a2=-0.375),
            rows=(row,),
        )
        buf = io.StringIO()
        write_results_csv([result], buf)
        fields = buf.getvalue().splitlines()[1].split(",")
        assert fields[4] == "a2=-0.375"
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
        assert first[10] == "0" and first[11] == "0"
        assert float(first[12]) == pytest.approx(exact_2d_energy(0, 0, 0.4))

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
        assert transform_label(None) == "none"
        assert transform_label(SyntheticSpec(problem="linear", beta=0.5, a=0.5)) == "a=0.5"
        assert (
            transform_label(SyntheticSpec(problem="quartic", beta=1.0, a2=-0.375))
            == "a2=-0.375"
        )


class TestBacktransform:
    GRID = np.linspace(-12.0, 12.0, 2048)

    def test_identity_ground_state(self):
        inst = ProblemInstance(problem="linear", beta=0.0, dim=5, method="iter")
        result = run_instance(inst)
        assert result.rows[0].status is SolveStatus.CONVERGED

        from perturba.iterative import iterate_solve

        sol = iterate_solve(build_instance_matrix(inst), 0)
        wave = backtransform_wavefunction(None, sol, self.GRID)
        exact = math.pi ** -0.25 * np.exp(-0.5 * self.GRID**2)
        assert float(np.max(np.abs(np.abs(wave) - exact))) < 1e-6

    def test_matched_transform_gives_shifted_gaussian(self):
        beta = 0.5
        t = SyntheticSpec(problem="linear", beta=beta, a=beta)
        inst = ProblemInstance(
            problem="linear", beta=beta, dim=30, method="iter", transform=t
        )
        from perturba.iterative import iterate_solve

        sol = iterate_solve(build_instance_matrix(inst), 0)
        assert sol.status is SolveStatus.CONVERGED
        wave = backtransform_wavefunction(t, sol, self.GRID)
        exact = math.pi ** -0.25 * np.exp(-0.5 * (self.GRID + beta) ** 2)
        err = min(
            float(np.max(np.abs(wave - exact))),
            float(np.max(np.abs(wave + exact))),
        )
        assert err < 1e-6

    def test_partial_transform_same_physical_state(self):
        beta = 0.5
        t = SyntheticSpec(problem="linear", beta=beta, a=0.25)
        inst = ProblemInstance(
            problem="linear", beta=beta, dim=40, method="iter", transform=t
        )
        from perturba.iterative import iterate_solve

        sol = iterate_solve(build_instance_matrix(inst), 0)
        assert sol.status is SolveStatus.CONVERGED
        wave = backtransform_wavefunction(t, sol, self.GRID)
        exact = math.pi ** -0.25 * np.exp(-0.5 * (self.GRID + beta) ** 2)
        err = min(
            float(np.max(np.abs(wave - exact))),
            float(np.max(np.abs(wave + exact))),
        )
        assert err < 1e-5

    def test_unit_norm_on_grid(self):
        from perturba.iterative import iterate_solve

        h = build_linear_true(0.5, 10)
        sol = iterate_solve(h, 0)
        wave = backtransform_wavefunction(None, sol, self.GRID)
        trap = getattr(np, "trapezoid", None) or np.trapz
        assert float(trap(wave * wave, self.GRID)) == pytest.approx(1.0, abs=1e-12)

    def test_osc2d_has_no_coordinate_picture(self):
        t = SyntheticSpec(problem="osc2d", beta=0.4, a=0.2)
        inst = ProblemInstance(
            problem="osc2d", beta=0.4, dim=4, method="iter", transform=t
        )
        from perturba.iterative import iterate_solve

        sol = iterate_solve(build_instance_matrix(inst), 0)
        with pytest.raises(UnsupportedProblemError):
            backtransform_wavefunction(t, sol, self.GRID)

    def test_wavefunction_rows_shape(self):
        rows = wavefunction_rows(3, self.GRID)
        assert rows.shape == (4, self.GRID.size)
