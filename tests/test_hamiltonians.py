"""Benchmark matrix builders: entries, transforms, and structure checks."""

import math

import numpy as np
import pytest

from perturba.hamiltonians import (
    BasisMap2D,
    StructureViolationError,
    SyntheticSpec,
    a2_from_quantum_number,
    build_2d_synthetic,
    build_2d_true,
    build_linear_synthetic,
    build_linear_true,
    build_quartic_synthetic,
    build_quartic_true,
    build_synthetic,
    default_quartic_a2,
    verify_fg_structure,
)
from perturba.linalg import symmetry_defect
from perturba.oscillator import cached_element_table, xi2_element, xi4_element, xi_element


class TestLinearBuilders:
    def test_true_matrix_entries(self):
        h = build_linear_true(0.5, 4)
        assert np.array_equal(np.diag(h), [0.5, 1.5, 2.5, 3.5])
        assert h[0, 1] == pytest.approx(0.5 * math.sqrt(0.5), abs=1e-15)
        assert h[1, 2] == pytest.approx(0.5, abs=1e-15)
        assert h[0, 2] == 0.0
        assert symmetry_defect(h) == 0.0
        # every band entry is exactly beta times the closed-form element
        beta, dim = 0.5, 30
        h = build_linear_true(beta, dim)
        for n in range(dim):
            assert h[n, n] == n + 0.5
        for n in range(dim - 1):
            assert h[n, n + 1] == h[n + 1, n] == beta * xi_element(n, n + 1), n
        assert np.count_nonzero(h) == 3 * dim - 2

    def test_synthetic_bands(self):
        beta, a, dim = 0.5, 0.2, 30
        h = build_linear_synthetic(beta, a, dim)
        for n in range(dim):
            assert h[n, n] == (n + 0.5) - 0.5 * a * a
        for n in range(dim - 1):
            x = xi_element(n, n + 1)
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
        assert symmetry_defect(h) == 0.0
        for n in range(dim):
            assert h[n, n] == (n + 0.5) + beta * xi4_element(n, n)
        for k in (2, 4):
            for n in range(dim - k):
                v = beta * xi4_element(n, n + k)
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
                    - (2.0 * a2 + n - m) * a2 * xi2_element(min(n, m), max(n, m))
                    * (1.0 if abs(n - m) in (0, 2) else 0.0)
                    - (6.0 * a2 + n - m) * a3 * lxi3.value(n, m)
                )
                assert h[n, m] == pytest.approx(expected, rel=1e-12, abs=1e-15), (n, m)

    def test_a3_fixed_by_beta(self):
        spec = SyntheticSpec(problem="quartic", beta=0.5, a2=-0.35)
        assert spec.a3 == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_default_a2_switchover(self):
        assert default_quartic_a2(0.05) == -0.35
        assert default_quartic_a2(0.5) == -0.35
        assert default_quartic_a2(0.55) == -0.375
        assert default_quartic_a2(1.6) == -0.375

    def test_per_state_a2_matches_documented_formula(self):
        lxi3 = cached_element_table("lambda_xi3", 40)
        for n in (0, 5, 20):
            row = lxi3.values[n].copy()
            row[n] = 0.0
            m = np.arange(41)
            expected = -math.sqrt(
                float(np.sum((m - n) ** 2 * row**2))
                / (36.0 * float(np.sum(row**2)))
            )
            got = a2_from_quantum_number(n, lxi3)
            assert got == pytest.approx(expected, rel=1e-14)
            assert -1.0 < got < 0.0

    def test_per_state_a2_range_check(self):
        lxi3 = cached_element_table("lambda_xi3", 10)
        with pytest.raises(ValueError):
            a2_from_quantum_number(11, lxi3)

    def test_transform_preserves_low_spectrum(self):
        beta, dim = 1.0, 60
        true_eigs = np.linalg.eigvalsh(build_quartic_true(beta, dim))
        synth = build_quartic_synthetic(beta, default_quartic_a2(beta), dim)
        synth_eigs = np.sort(np.linalg.eigvals(synth).real)
        assert np.allclose(true_eigs[:6], synth_eigs[:6], atol=1e-5)


class TestSyntheticSpec:
    def test_linear_takes_a_only(self):
        SyntheticSpec(problem="linear", beta=0.5, a=0.5)
        with pytest.raises(ValueError):
            SyntheticSpec(problem="linear", beta=0.5, a2=-0.3)
        with pytest.raises(ValueError):
            SyntheticSpec(problem="linear", beta=0.5)

    def test_quartic_takes_a2_only(self):
        SyntheticSpec(problem="quartic", beta=1.0, a2=-0.375)
        with pytest.raises(ValueError):
            SyntheticSpec(problem="quartic", beta=1.0, a=0.1)
        with pytest.raises(ValueError):
            SyntheticSpec(problem="quartic", beta=1.0, a=0.1, a2=-0.3)

    def test_unknown_problem(self):
        with pytest.raises(ValueError):
            SyntheticSpec(problem="cubic", beta=0.5, a=0.1)

    def test_negative_beta(self):
        with pytest.raises(ValueError):
            SyntheticSpec(problem="linear", beta=-0.1, a=0.1)

    def test_a3_only_for_quartic(self):
        spec = SyntheticSpec(problem="linear", beta=0.5, a=0.5)
        with pytest.raises(ValueError):
            _ = spec.a3

    def test_dispatch(self):
        spec = SyntheticSpec(problem="linear", beta=0.5, a=0.5)
        assert np.array_equal(
            build_synthetic(spec, 8), build_linear_synthetic(0.5, 0.5, 8)
        )


class TestBasis2D:
    def test_triangular_size(self):
        assert BasisMap2D.triangular(39).size == 820
        assert BasisMap2D.triangular(0).size == 1
        assert BasisMap2D.triangular(3).size == 10

    def test_index_round_trip(self):
        basis = BasisMap2D.triangular(12)
        for i, (n1, n2) in enumerate(basis.pairs):
            assert basis.index(n1, n2) == i

    def test_ordering_by_total_quanta(self):
        basis = BasisMap2D.triangular(9)
        totals = [n1 + n2 for n1, n2 in basis.pairs]
        assert totals == sorted(totals)

    def test_index_outside_cut(self):
        basis = BasisMap2D.triangular(4)
        with pytest.raises(ValueError):
            basis.index(3, 2)
        with pytest.raises(ValueError):
            basis.index(-1, 0)

    def test_negative_cut(self):
        with pytest.raises(ValueError):
            BasisMap2D.triangular(-1)


class TestCoupled2D:
    def test_uncoupled_ladder(self):
        h = build_2d_true(0.0, 5)
        basis = BasisMap2D.triangular(5)
        expected = [n1 + n2 + 1.0 for n1, n2 in basis.pairs]
        assert np.array_equal(np.diag(h), expected)
        assert np.all(h == np.diag(np.diag(h)))

    def test_coupling_entry(self):
        beta = 0.4
        basis = BasisMap2D.triangular(6)
        h = build_2d_true(beta, 6)
        i, j = basis.index(0, 0), basis.index(1, 1)
        assert h[i, j] == pytest.approx(beta * xi_element(0, 1) ** 2, abs=1e-15)
        # single-mode changes require the other mode's xi element to vanish
        assert h[basis.index(0, 0), basis.index(1, 0)] == 0.0

    def test_zero_transform_recovers_true_matrix(self):
        a = build_2d_true(0.4, 8)
        b = build_2d_synthetic(0.4, 0.0, 8)
        assert np.array_equal(a, b)

    def test_synthetic_diagonal_shift(self):
        beta, a = 0.4, 0.2
        basis = BasisMap2D.triangular(6)
        h = build_2d_synthetic(beta, a, 6)
        for i, (n1, n2) in enumerate(basis.pairs):
            expected = (
                n1 + n2 + 1.0
                + beta * xi_element(n1, n1) * xi_element(n2, n2)
                - 0.5 * a * a * (xi2_element(n1, n1) + xi2_element(n2, n2))
            )
            assert h[i, i] == pytest.approx(expected, rel=1e-13), (n1, n2)

    def test_transform_preserves_low_spectrum(self):
        beta, a = 0.4, 0.2
        true_eigs = np.linalg.eigvalsh(build_2d_true(beta, 12))
        synth_eigs = np.sort(np.linalg.eigvals(build_2d_synthetic(beta, a, 12)).real)
        assert np.allclose(true_eigs[:4], synth_eigs[:4], atol=1e-6)


class TestStructureVerification:
    @pytest.mark.parametrize(
        "spec,dim",
        [
            (SyntheticSpec(problem="linear", beta=0.5, a=0.5), 30),
            (SyntheticSpec(problem="linear", beta=2.0, a=2.0), 30),
            (SyntheticSpec(problem="quartic", beta=1.0, a2=-0.375), 30),
            (SyntheticSpec(problem="quartic", beta=0.2, a2=-0.35), 30),
            (SyntheticSpec(problem="osc2d", beta=0.4, a=0.2), 10),
            (SyntheticSpec(problem="osc2d", beta=0.8, a=0.4), 10),
        ],
    )
    def test_decomposition_holds(self, spec, dim):
        report = verify_fg_structure(spec, dim)
        assert report.f_antisymmetry_defect <= 1e-12
        assert report.g_symmetry_defect <= 1e-12
        assert report.min_g_diagonal > 0.0
        assert report.reconstruction_defect <= 1e-10
        assert report.central_dim > 0

    def test_zero_transform_has_no_positive_shift(self):
        spec = SyntheticSpec(problem="linear", beta=0.5, a=0.0)
        with pytest.raises(StructureViolationError, match="diagonal not positive"):
            verify_fg_structure(spec, 10)

    def test_tampered_build_detected(self, monkeypatch):
        import perturba.hamiltonians as mod

        spec = SyntheticSpec(problem="linear", beta=0.5, a=0.5)
        original = mod.build_linear_synthetic

        def tampered(beta, a, dim):
            h = original(beta, a, dim)
            h[1, 2] += 1.0e-3
            return h

        monkeypatch.setattr(mod, "build_linear_synthetic", tampered)
        with pytest.raises(StructureViolationError, match="mismatches"):
            verify_fg_structure(spec, 10)


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
