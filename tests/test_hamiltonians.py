"""Benchmark matrix builders: entries, transforms, and structure checks."""

import math
import tracemalloc

import numpy as np
import pytest

from perturba.experiments import ProblemInstance, build_instance_matrix
from perturba.hamiltonians import (
    StructureViolationError,
    build_2d_synthetic,
    build_2d_true,
    build_linear_synthetic,
    build_linear_true,
    build_quartic_synthetic,
    build_quartic_true,
    build_synthetic,
    default_quartic_a2,
    quartic_a3,
    triangular_pairs,
    verify_fg_structure,
)
from perturba.hamiltonians import _pair_index, _transform_f_g
from perturba.oscillator import build_element_table, cached_element_table, wavefunction_rows

from helpers import dense_2d_matrices, element


def _cached_after_int(max_n):
    # True == 1 == 1.0 as cache keys: the integer's table must not answer
    cached_element_table("xi", 1)
    return cached_element_table("xi", max_n)


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_linear_true(0.5, True),
        lambda: build_quartic_synthetic(0.5, -0.35, True),
        lambda: build_2d_synthetic(0.4, 0.2, True),
        lambda: build_element_table("xi", True),
        lambda: wavefunction_rows(True, [0.0]),
        lambda: _cached_after_int(True),
        lambda: build_quartic_true(0.5, 3.0),
        lambda: build_linear_synthetic(0.5, 0.1, 3.0),
        lambda: build_element_table("xi", 2.0),
        lambda: build_2d_true(0.4, 2.0),
        lambda: triangular_pairs(2.5),
        lambda: wavefunction_rows(2.0, [0.0]),
        lambda: _cached_after_int(1.0),
    ],
    ids=[
        "linear_true-bool",
        "quartic_synthetic-bool",
        "2d_synthetic-bool",
        "element_table-bool",
        "wavefunction_rows-bool",
        "cached_table-bool",
        "quartic_true-float",
        "linear_synthetic-float",
        "element_table-float",
        "2d_true-float",
        "triangular_pairs-float",
        "wavefunction_rows-float",
        "cached_table-float",
    ],
)
def test_sizes_must_be_integers(build):
    with pytest.raises(ValueError, match="must be an integer, not"):
        build()


class TestLinearBuilders:
    def test_true_matrix_entries(self):
        h = build_linear_true(0.5, 4)
        assert np.array_equal(np.diag(h), [0.5, 1.5, 2.5, 3.5])
        assert h[0, 1] == pytest.approx(0.5 * math.sqrt(0.5), abs=1e-15)
        assert h[1, 2] == pytest.approx(0.5, abs=1e-15)
        assert h[0, 2] == 0.0
        assert np.array_equal(h, h.T)
        # every band entry is exactly beta times the closed-form element
        beta, dim = 0.5, 30
        h = build_linear_true(beta, dim)
        for n in range(dim):
            assert h[n, n] == n + 0.5
        for n in range(dim - 1):
            assert h[n, n + 1] == h[n + 1, n] == beta * element("xi", n, n + 1), n
        assert np.count_nonzero(h) == 3 * dim - 2

    def test_synthetic_bands(self):
        beta, a, dim = 0.5, 0.2, 30
        h = build_linear_synthetic(beta, a, dim)
        for n in range(dim):
            assert h[n, n] == (n + 0.5) - 0.5 * a * a
        for n in range(dim - 1):
            x = element("xi", n, n + 1)
            assert h[n, n + 1] == (beta + a) * x, n
            assert h[n + 1, n] == (beta - a) * x, n
        assert np.count_nonzero(h) == 3 * dim - 2

    def test_matched_transform_empties_lower_triangle(self):
        beta = 0.5
        h = build_linear_synthetic(beta, beta, 20)
        assert np.all(np.tril(h, k=-1) == 0.0)
        assert np.allclose(np.diag(h), np.arange(20) + 0.5 - beta * beta / 2.0)

    def test_zero_transform_recovers_true_matrix(self):
        assert np.array_equal(
            build_linear_synthetic(0.7, 0.0, 12), build_linear_true(0.7, 12)
        )

    def test_transform_preserves_spectrum(self):
        beta, a, dim = 0.5, 0.3, 24
        true_eigs = np.linalg.eigvalsh(build_linear_true(beta, dim))
        # the transformed matrix is non-symmetric, so its eigenvalues come from
        # the general eigvals rather than eigvalsh
        synth = build_linear_synthetic(beta, a, dim)
        synth_eigs = np.sort(np.linalg.eigvals(synth).real)
        # away from the truncation edge both spectra agree with the exact ladder
        assert np.allclose(true_eigs[:12], synth_eigs[:12], atol=1e-8)

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            build_linear_true(0.5, 0)


class TestQuarticBuilders:
    def test_true_matrix_entries(self):
        beta, dim = 1.0, 30
        h = build_quartic_true(beta, dim)
        assert h[0, 1] == 0.0
        assert h[0, 3] == 0.0
        assert h[0, 5] == 0.0
        assert np.array_equal(h, h.T)
        for n in range(dim):
            assert h[n, n] == (n + 0.5) + beta * element("xi4", n, n)
        for k in (2, 4):
            for n in range(dim - k):
                v = beta * element("xi4", n, n + k)
                assert h[n, n + k] == h[n + k, n] == v, (n, k)
        assert np.count_nonzero(h) == 5 * dim - 12

    def test_synthetic_formula_per_entry(self):
        beta, a2, dim = 1.0, -0.375, 12
        lxi3 = cached_element_table("lambda_xi3", dim - 1)
        a3 = math.sqrt(2.0 * beta) / 3.0
        h = build_quartic_synthetic(beta, a2, dim)
        for n in range(dim):
            for m in range(dim):
                expected = (
                    (n + 0.5 if n == m else 0.0)
                    - (2.0 * a2 + n - m) * a2 * element("xi2", min(n, m), max(n, m))
                    * (1.0 if abs(n - m) in (0, 2) else 0.0)
                    - (6.0 * a2 + n - m) * a3 * lxi3[n, m]
                )
                assert h[n, m] == pytest.approx(expected, rel=1e-12, abs=1e-15), (n, m)

    def test_a3_fixed_by_beta(self):
        assert quartic_a3(0.5) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_default_a2_switchover(self):
        assert default_quartic_a2(0.05) == -0.35
        assert default_quartic_a2(0.5) == -0.35
        assert default_quartic_a2(0.55) == -0.375
        assert default_quartic_a2(1.6) == -0.375

    def test_transform_preserves_low_spectrum(self):
        beta, dim = 1.0, 60
        true_eigs = np.linalg.eigvalsh(build_quartic_true(beta, dim))
        synth = build_quartic_synthetic(beta, default_quartic_a2(beta), dim)
        synth_eigs = np.sort(np.linalg.eigvals(synth).real)
        assert np.allclose(true_eigs[:6], synth_eigs[:6], atol=1e-5)


class TestSyntheticSpec:
    """A synthetic Hamiltonian is (problem, beta, coefficient): a, or a2 for quartic."""

    def test_unknown_problem(self):
        with pytest.raises(ValueError, match="unknown problem 'cubic'"):
            build_synthetic("cubic", 0.5, 0.1, 8)
        with pytest.raises(ValueError, match="unknown problem 'cubic'"):
            verify_fg_structure("cubic", 0.5, 0.1, 8)

    def test_negative_beta(self):
        # only quartic's a3 = sqrt(2 beta) / 3 needs beta >= 0
        with pytest.raises(ValueError, match="beta must be non-negative"):
            ProblemInstance(problem="quartic", beta=-0.1, dim=8, method="iter", transform=0.1)
        ProblemInstance(problem="linear", beta=-0.1, dim=8, method="iter", transform=0.1)
        ProblemInstance(problem="osc2d", beta=-0.1, dim=8, method="iter", transform=0.1)
        # the true matrix takes any finite beta
        ProblemInstance(problem="quartic", beta=-0.1, dim=8, method="iter")

    def test_dispatch(self):
        direct = {
            "linear": (0.5, 0.5, 8, build_linear_synthetic(0.5, 0.5, 8)),
            "quartic": (1.0, -0.375, 12, build_quartic_synthetic(1.0, -0.375, 12)),
            "osc2d": (0.4, 0.2, 5, build_2d_synthetic(0.4, 0.2, 5)),
        }
        for problem, (beta, a, dim, h) in direct.items():
            assert np.array_equal(build_synthetic(problem, beta, a, dim), h)
            inst = ProblemInstance(
                problem=problem, beta=beta, dim=dim, method="iter", transform=a
            )
            assert np.array_equal(build_instance_matrix(inst), h), problem


class TestBasis2D:
    def test_triangular_size(self):
        assert triangular_pairs(39)[0].size == 820
        assert triangular_pairs(0)[0].size == 1
        assert triangular_pairs(3)[0].size == 10

    def test_pairs_in_order(self):
        n1, n2 = triangular_pairs(3)
        expected = [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0), (0, 3), (1, 2), (2, 1), (3, 0)]
        assert list(zip(n1.tolist(), n2.tolist())) == expected
        assert n1.dtype == n2.dtype == np.int64

    def test_index_round_trip(self):
        n1, n2 = triangular_pairs(12)
        assert np.array_equal(_pair_index(n1, n2), np.arange(n1.size))
        assert [_pair_index(int(a), int(b)) for a, b in zip(n1, n2)] == list(range(n1.size))

    def test_ordering_by_total_quanta(self):
        n1, n2 = triangular_pairs(9)
        totals = (n1 + n2).tolist()
        assert totals == sorted(totals)

    def test_negative_cut(self):
        with pytest.raises(ValueError):
            triangular_pairs(-1)


class TestCoupled2D:
    def test_uncoupled_ladder(self):
        h = build_2d_true(0.0, 5)
        n1, n2 = triangular_pairs(5)
        expected = n1 + n2 + 1.0
        assert np.array_equal(np.diag(h), expected)
        assert np.all(h == np.diag(np.diag(h)))

    def test_coupling_entry(self):
        beta = 0.4
        h = build_2d_true(beta, 6)
        i, j = _pair_index(0, 0), _pair_index(1, 1)
        assert h[i, j] == pytest.approx(beta * element("xi", 0, 1) ** 2, abs=1e-15)
        # single-mode changes require the other mode's xi element to vanish
        assert h[_pair_index(0, 0), _pair_index(1, 0)] == 0.0

    def test_zero_transform_recovers_true_matrix(self):
        a = build_2d_true(0.4, 8)
        b = build_2d_synthetic(0.4, 0.0, 8)
        assert np.array_equal(a, b)

    def test_synthetic_diagonal_shift(self):
        beta, a = 0.4, 0.2
        h = build_2d_synthetic(beta, a, 6)
        for i, (n1, n2) in enumerate(zip(*triangular_pairs(6))):
            expected = (
                n1 + n2 + 1.0
                + beta * element("xi", n1, n1) * element("xi", n2, n2)
                - 0.5 * a * a * (element("xi2", n1, n1) + element("xi2", n2, n2))
            )
            assert h[i, i] == pytest.approx(expected, rel=1e-13), (n1, n2)

    def test_transform_preserves_low_spectrum(self):
        beta, a = 0.4, 0.2
        true_eigs = np.linalg.eigvalsh(build_2d_true(beta, 12))
        synth_eigs = np.sort(np.linalg.eigvals(build_2d_synthetic(beta, a, 12)).real)
        assert np.allclose(true_eigs[:4], synth_eigs[:4], atol=1e-6)


class TestBandAssembly2D:
    """The band builders against the dense N x N sums they replace."""

    @pytest.mark.parametrize("n_max", [0, 1, 2, 7, 12, 39])
    @pytest.mark.parametrize(
        "beta,a", [(0.4, 0.2), (0.9, -0.45), (0.3, 0.7), (0.0, 0.0), (-0.0, -0.0)]
    )
    def test_same_bytes_as_the_dense_sum(self, beta, a, n_max):
        true, synthetic, f, g = dense_2d_matrices(beta, a, n_max)
        h_fg, f_fg, g_fg = _transform_f_g("osc2d", beta, a, n_max)
        built = {
            "true": (build_2d_true(beta, n_max), true),
            "synthetic": (build_2d_synthetic(beta, a, n_max), synthetic),
            "H": (h_fg, true),
            "F": (f_fg, f),
            "G": (g_fg, g),
        }
        for name, (band, dense) in built.items():
            assert band.dtype == dense.dtype and band.shape == dense.shape, name
            assert band.tobytes() == dense.tobytes(), name
        # the dense sums leave no -0.0 behind, so neither may the bands; F is a
        # product, whose zeros carry the sign of the shell gap times a
        for name in ("true", "synthetic", "H", "G"):
            band = built[name][0]
            assert not np.signbit(band[band == 0.0]).any(), name

    @pytest.mark.parametrize(
        "build", [lambda: build_2d_synthetic(0.4, 0.2, 60), lambda: build_2d_true(0.4, 60)]
    )
    def test_peak_allocation_is_about_one_matrix(self, build):
        build()  # element tables cached outside the trace
        tracemalloc.start()
        try:
            h = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert h.shape == (1891, 1891)
        assert peak <= 1.5 * h.nbytes


class TestStructureVerification:
    @pytest.mark.parametrize(
        "spec,dim",
        [
            (("linear", 0.5, 0.5), 30),
            (("linear", 2.0, 2.0), 30),
            (("quartic", 1.0, -0.375), 30),
            (("quartic", 0.2, -0.35), 30),
            (("osc2d", 0.4, 0.2), 10),
            (("osc2d", 0.8, 0.4), 10),
        ],
    )
    def test_decomposition_holds(self, spec, dim):
        report = verify_fg_structure(*spec, dim)
        assert report.f_antisymmetry_defect <= 1e-12
        assert report.g_symmetry_defect <= 1e-12
        assert report.min_g_diagonal > 0.0
        assert report.reconstruction_defect <= 1e-10
        assert report.central_dim > 0

    def test_zero_transform_has_no_positive_shift(self):
        with pytest.raises(StructureViolationError, match="diagonal not positive"):
            verify_fg_structure("linear", 0.5, 0.0, 10)

    def test_tampered_build_detected(self, monkeypatch):
        import perturba.hamiltonians as mod

        original = mod.build_linear_synthetic

        def tampered(beta, a, dim):
            h = original(beta, a, dim)
            h[1, 2] += 1.0e-3
            return h

        monkeypatch.setattr(mod, "build_linear_synthetic", tampered)
        with pytest.raises(StructureViolationError, match="mismatches"):
            verify_fg_structure("linear", 0.5, 0.5, 10)


class TestDiagonalOrdering:
    @pytest.mark.parametrize(
        "builder",
        [
            lambda: build_linear_synthetic(2.0, 2.0, 40),
            lambda: build_quartic_synthetic(1.0, -0.375, 40),
            lambda: build_2d_synthetic(0.8, 0.4, 12),
            lambda: build_quartic_true(1.0, 40),
        ],
    )
    def test_non_decreasing_diagonal(self, builder):
        diag = np.diag(builder())
        assert np.all(np.diff(diag) >= -1e-12)
