"""Command-line interface: subcommands, exit codes, formats, caching."""

import csv
import hashlib
import io
import math
import subprocess
import sys

import numpy as np
import pytest

from perturba.cli import build_parser, main
from perturba.experiments import exact_2d_energy
from perturba.hamiltonians import build_linear_synthetic, build_quartic_synthetic, triangular_pairs
from perturba.linalg import write_matrix_text


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestLinearCommand:
    def test_uncoupled_run_is_exact(self, capsys):
        code, out, _ = run_cli(["linear", "--beta", "0"], capsys)
        assert code == 0
        records = parse_csv(out)
        assert len(records) == 30
        for rec in records:
            n = int(rec["state"])
            assert float(rec["energy"]) == pytest.approx(n + 0.5, abs=1e-12)
            assert rec["status"] == "converged"
            assert rec["transform"] == "none"

    def test_partial_convergence_exit_code(self, capsys):
        code, out, _ = run_cli(["linear", "--beta", "0.5", "--method", "rspt"], capsys)
        assert code == 2
        records = parse_csv(out)
        statuses = {rec["status"] for rec in records}
        assert "converged" in statuses
        assert statuses - {"converged"}

    def test_matched_transform_full_convergence(self, capsys):
        code, out, _ = run_cli(
            ["linear", "--beta", "0.5", "--synthetic-a", "0.5", "--dim", "25"],
            capsys,
        )
        assert code == 0
        records = parse_csv(out)
        assert len(records) == 25
        for rec in records:
            n = int(rec["state"])
            assert rec["status"] == "converged"
            assert float(rec["energy"]) == pytest.approx(n + 0.375, abs=1e-10)
            assert float(rec["transform"].removeprefix("a=")) == 0.5

    def test_negative_beta_matched_transform_is_exact(self, capsys):
        # at a = beta the lower triangle is empty: state k converges to the
        # diagonal entry k + 1/2 - beta^2 / 2 in k + 1 sweeps
        code, out, _ = run_cli(
            ["linear", "--beta", "-0.5", "--dim", "5", "--synthetic-a", "-0.5"], capsys
        )
        assert code == 0
        records = parse_csv(out)
        assert [rec["energy"] for rec in records] == ["0.375", "1.375", "2.375", "3.375", "4.375"]
        assert [rec["iterations"] for rec in records] == ["1", "2", "3", "4", "5"]
        assert {rec["status"] for rec in records} == {"converged"}

    def test_multiple_betas(self, capsys):
        code, out, _ = run_cli(["linear", "--beta", "0,0.25", "--dim", "10"], capsys)
        assert code == 0
        records = parse_csv(out)
        assert len(records) == 20
        betas = sorted({float(rec["beta"]) for rec in records})
        assert betas == [0.0, 0.25]

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "run.csv"
        code, out, _ = run_cli(
            ["linear", "--beta", "0", "--dim", "5", "--out", str(target)], capsys
        )
        assert code == 0
        assert out == ""
        assert len(parse_csv(target.read_text())) == 5


class TestQuarticCommand:
    def test_auto_transform_small_basis(self, capsys):
        code, out, _ = run_cli(
            ["quartic", "--a2", "auto", "--beta", "1.0", "--dim", "7"], capsys
        )
        assert code == 0
        records = parse_csv(out)
        assert len(records) == 7
        assert all(rec["status"] == "converged" for rec in records)
        # truncated to 7 states the transformed ground level carries a
        # percent-scale basis error relative to the dense benchmark 0.80377
        assert float(records[0]["energy"]) == pytest.approx(0.80377, abs=5e-2)
        assert float(records[0]["transform"].removeprefix("a2=")) == -0.375

    def test_known_divergent_basis_flags_partial(self, capsys):
        code, _, _ = run_cli(
            ["quartic", "--a2", "auto", "--beta", "1.0", "--dim", "16"], capsys
        )
        assert code == 2

    def test_oracle_on_true_matrix(self, capsys):
        code, out, _ = run_cli(
            ["quartic", "--a2", "off", "--method", "oracle", "--beta", "1.0",
             "--dim", "60"],
            capsys,
        )
        assert code == 0
        records = parse_csv(out)
        assert float(records[0]["energy"]) == pytest.approx(0.80377, abs=5e-5)
        assert records[0]["transform"] == "none"


class TestOsc2dCommand:
    def test_small_cut_run(self, capsys):
        code, out, _ = run_cli(["osc2d", "--beta", "0.4", "--nmax", "5"], capsys)
        records = parse_csv(out)
        assert len(records) == 21  # triangular cut keeps (nmax+1)(nmax+2)/2 states
        # dim is the matrix size, not the cut; osc2d always runs the iteration
        assert {(rec["dim"], rec["method"]) for rec in records} == {("21", "iter")}
        assert code in (0, 2)
        first = records[0]
        assert first["n1"] == "0" and first["n2"] == "0"
        exact = math.sqrt(1.4) * 0.5 + math.sqrt(0.6) * 0.5
        assert float(first["exact"]) == pytest.approx(exact, abs=1e-15)
        assert first["status"] == "converged"
        assert float(first["energy"]) == pytest.approx(exact, abs=1e-6)
        assert float(first["transform"].removeprefix("a=")) == pytest.approx(0.2)

    def test_zero_cut_run(self, capsys):
        # cut 0 keeps the single pair (0, 0): the true matrix is [[1.0]]
        code, out, _ = run_cli(
            ["osc2d", "--beta", "0.4", "--nmax", "0", "--synthetic", "off"], capsys
        )
        assert code == 0
        (rec,) = parse_csv(out)
        assert (rec["dim"], rec["state"], rec["n1"], rec["n2"]) == ("1", "0", "0", "0")
        assert rec["status"] == "converged"
        assert float(rec["energy"]) == pytest.approx(1.0, abs=1e-15)

    def test_true_matrix_variant(self, capsys):
        code, out, _ = run_cli(
            ["osc2d", "--beta", "0.4", "--nmax", "4", "--synthetic", "off"], capsys
        )
        records = parse_csv(out)
        assert len(records) == 15
        assert all(rec["transform"] == "none" for rec in records)
        assert code in (0, 2)

    def test_label_and_exact_columns(self, capsys):
        # the solver digits follow the BLAS build; the basis labels and the
        # closed-form column do not
        _, out, _ = run_cli(["osc2d", "--beta", "0.4", "--nmax", "6"], capsys)
        pairs = [(n1, total - n1) for total in range(7) for n1 in range(total + 1)]
        records = parse_csv(out)
        assert [(int(r["n1"]), int(r["n2"])) for r in records] == pairs
        expected = [f"{exact_2d_energy(n1, n2, 0.4):.17g}" for n1, n2 in pairs]
        assert [r["exact"] for r in records] == expected

    def test_unbound_beta_rejected_before_output(self, tmp_path, capsys):
        # beta 1.5 has no exact levels: nothing is solved or written
        code, out, err = run_cli(["osc2d", "--beta", "0.3,1.5", "--nmax", "2"], capsys)
        assert code == 1
        assert out == ""
        assert "beta 1.5 outside [0, 1]" in err
        target = tmp_path / "rows.csv"
        code, _, _ = run_cli(
            ["osc2d", "--beta", "0.3,1.5", "--nmax", "2", "--out", str(target)], capsys
        )
        assert code == 1
        assert not target.exists()


class TestElementsCommand:
    def test_closed_form_table(self, capsys):
        code, out, _ = run_cli(["elements", "--op", "xi2", "--max-n", "3"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,m,value"
        assert len(lines) == 17
        assert lines[1] == "0,0,0.5"

    def test_quadrature_table(self, capsys):
        code, out, _ = run_cli(["elements", "--op", "lxi3", "--max-n", "2"], capsys)
        assert code == 0
        rows = {
            (r["n"], r["m"]): float(r["value"]) for r in parse_csv(out)
        }
        assert rows[("0", "0")] == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-12)
        assert rows[("0", "2")] == pytest.approx(6.0 / math.sqrt(8.0 * math.pi), abs=1e-12)
        assert rows[("0", "1")] == 0.0

    @pytest.mark.parametrize(
        "op, max_n, digest",
        [
            # the id is op-digest: the digest already tells two sizes apart
            pytest.param(op, max_n, digest, id=f"{op}-{digest}")
            for op, max_n, digest in [
                ("xi", 60, "1b48651b662a6e7d"),
                ("xi2", 60, "01de6afeb21a4d18"),
                ("xi3", 60, "a768b9fcb8118c06"),
                ("xi4", 60, "9b282bdf0f7f59d7"),
                ("lxi", 60, "37b7663952cdc97d"),
                ("lxi3", 60, "1b57d6e8b9d6fb98"),
                # the smallest table with rows past QUAD_ROW_LIMIT = 100
                ("lxi3", 150, "54f9baa2aed4fec9"),
            ]
        ],
    )
    def test_table_bytes(self, op, max_n, digest, capsys):
        code, out, _ = run_cli(["elements", "--op", op, "--max-n", str(max_n)], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest

    def test_determinism(self, capsys):
        _, first, _ = run_cli(["elements", "--op", "lxi", "--max-n", "4"], capsys)
        _, second, _ = run_cli(["elements", "--op", "lxi", "--max-n", "4"], capsys)
        assert first == second


class TestMatrixCommand:
    def test_round_trip_synthetic_linear(self, capsys):
        code, out, _ = run_cli(
            ["matrix", "--problem", "linear", "--beta", "0.5", "--dim", "5",
             "--synthetic-a", "0.5"],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[0] == "5"
        h = np.loadtxt(io.StringIO(out), skiprows=1, ndmin=2)
        assert np.array_equal(h, build_linear_synthetic(0.5, 0.5, 5))

    def test_osc2d_matrix_size(self, capsys):
        code, out, _ = run_cli(
            ["matrix", "--problem", "osc2d", "--beta", "0.4", "--nmax", "3",
             "--synthetic", "on"],
            capsys,
        )
        assert code == 0
        h = np.loadtxt(io.StringIO(out), skiprows=1, ndmin=2)
        assert h.shape == (triangular_pairs(3)[0].size,) * 2 == (10, 10)

    def test_osc2d_matrix_beyond_bound_spectrum(self, capsys):
        code, out, _ = run_cli(["matrix", "--problem", "osc2d", "--beta", "1.5"], capsys)
        assert code == 0
        assert np.loadtxt(io.StringIO(out), skiprows=1, ndmin=2).shape == (66, 66)

    @pytest.mark.parametrize(
        "problem,flag,owner",
        [
            ("linear", ["--a2", "-0.3"], "quartic"),
            ("quartic", ["--synthetic", "on"], "osc2d"),
            ("osc2d", ["--synthetic-a", "0.5"], "linear"),
        ],
    )
    def test_other_problems_transform_flag_rejected(self, problem, flag, owner, capsys):
        code, out, err = run_cli(
            ["matrix", "--problem", problem, "--beta", "0.5", "--dim", "3", "--nmax", "1", *flag],
            capsys,
        )
        assert (code, out) == (1, "")
        assert err == f"error: {flag[0]} is the {owner} transform flag; --problem is {problem}\n"

    def test_quartic_auto_bytes(self, capsys):
        code, out, _ = run_cli(
            ["matrix", "--problem", "quartic", "--beta", "1.0", "--dim", "12", "--a2", "auto"],
            capsys,
        )
        assert code == 0
        expected = io.StringIO()
        write_matrix_text(build_quartic_synthetic(1.0, -0.375, 12), expected)
        assert out == expected.getvalue()
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == "b4a04f28fc6d8804"

    def test_osc2d_synthetic_bytes(self, capsys):
        code, out, _ = run_cli(
            ["matrix", "--problem", "osc2d", "--beta", "0.3", "--synthetic", "on", "--nmax", "8"],
            capsys,
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == "89e68feca0351568"

    def test_matrix_determinism(self, capsys):
        args = ["matrix", "--problem", "quartic", "--beta", "1.0", "--dim", "12",
                "--a2", "auto"]
        _, first, _ = run_cli(args, capsys)
        _, second, _ = run_cli(args, capsys)
        assert first == second


class TestSharedParser:
    def test_calls_do_not_leak_options(self, capsys):
        # one parser serves every call: options set in one call must not
        # become the defaults of the next
        assert build_parser() is build_parser()
        runs = [
            (["linear", "--beta", "0", "--dim", "3", "--method", "oracle"], 3, "oracle"),
            (["quartic", "--beta", "0", "--dim", "4", "--method", "rspt"], 4, "rspt"),
            (["linear", "--beta", "0"], 30, "iter"),
            (["quartic", "--beta", "0"], 100, "iter"),
        ]
        for argv, dim, method in runs:
            code, out, _ = run_cli(argv, capsys)
            assert code == 0
            records = parse_csv(out)
            assert len(records) == dim
            assert {(rec["dim"], rec["method"], rec["transform"]) for rec in records} == {
                (str(dim), method, "none")
            }
        _, out, _ = run_cli(["matrix", "--problem", "linear", "--beta", "0"], capsys)
        assert out.splitlines()[0] == "30"


class TestErrorPaths:
    @pytest.mark.parametrize(
        "argv",
        [
            ["frobnicate", "--beta", "0.5"],          # unknown subcommand
            ["linear"],                                # missing required flag
            ["linear", "--beta", "abc"],               # malformed beta list
            ["linear", "--beta", ""],                  # empty beta list
            ["elements", "--op", "xi5", "--max-n", "3"],  # unknown operator
            ["osc2d", "--beta", "0.4", "--method", "iter"],  # osc2d has one method
        ],
    )
    def test_usage_errors_exit_1(self, argv, capsys):
        code, _, err = run_cli(argv, capsys)
        assert code == 1
        assert err != ""

    def test_runtime_errors_exit_1(self, capsys):
        code, _, err = run_cli(
            ["quartic", "--beta", "1.0", "--a2", "bogus", "--dim", "5"], capsys
        )
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            # the transformed quartic's a3 = sqrt(2 beta) / 3
            (["quartic", "--beta", "-0.5", "--dim", "10", "--a2", "-0.35"],
             "error: beta must be non-negative\n"),
            # the exact column of the 2-D oscillator
            (["osc2d", "--beta", "-0.5", "--nmax", "3"], "error: beta -0.5 outside [0, 1]\n"),
        ],
        ids=["quartic", "osc2d"],
    )
    def test_negative_beta_rejected(self, argv, message, capsys):
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err) == (1, "", message)

    @pytest.mark.parametrize(
        "argv",
        [
            ["linear", "--beta", "inf", "--dim", "3"],
            ["linear", "--beta", "0.5,nan", "--dim", "3", "--synthetic-a", "0.3"],
            ["quartic", "--beta", "inf", "--dim", "3", "--a2", "auto"],
            ["matrix", "--problem", "linear", "--beta", "inf", "--dim", "3"],
            ["matrix", "--problem", "osc2d", "--beta", "nan", "--nmax", "3", "--synthetic", "on"],
        ],
    )
    def test_non_finite_beta_rejected_before_building(self, argv):
        # a subprocess, so that a numpy warning would reach stderr as it
        # does for a user, rather than be raised by the test's filters
        proc = subprocess.run(
            [sys.executable, "-m", "perturba.cli", *argv], capture_output=True, text=True
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        beta = argv[argv.index("--beta") + 1].split(",")[-1]
        assert proc.stderr == f"error: beta {beta} is not finite\n"

    @pytest.mark.parametrize(
        "argv",
        [
            *(["linear", "--beta", "1e160", "--dim", "4", "--method", method]
              for method in ("iter", "rspt", "oracle")),
            ["matrix", "--problem", "linear", "--beta", "1e160", "--dim", "4"],
        ],
        ids=["iter", "rspt", "oracle", "matrix"],
    )
    def test_overflowing_matrix_rejected(self, argv):
        # entries near 1e160 overflow the squared Frobenius norm, and every
        # tolerance scaled by it would pass any column.  A subprocess, so
        # that a numpy warning would reach stderr.
        proc = subprocess.run(
            [sys.executable, "-m", "perturba.cli", *argv], capture_output=True, text=True
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: matrix Frobenius norm overflows\n"

    def test_refused_matrix_writes_no_file(self, tmp_path, capsys):
        out = tmp_path / "h.txt"
        argv = ["matrix", "--problem", "linear", "--beta", "1e160", "--dim", "4"]
        code, _, err = run_cli([*argv, "--out", str(out)], capsys)
        assert (code, err) == (1, "error: matrix Frobenius norm overflows\n")
        assert not out.exists()

    def test_oversized_table_request(self, capsys):
        code, _, err = run_cli(["elements", "--op", "lxi", "--max-n", "501"], capsys)
        assert code == 1
        assert err != ""


class TestInstalledScript:
    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "perturba.cli", "linear", "--beta", "0", "--dim", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("problem,beta,dim,method,transform")
