"""Oscillator basis functions and operator matrix-element tables.

The quadrature route for the absolute-value operators is checked against an
independent oracle that evaluates the same integrals exactly: expand both
basis functions over integer polynomial coefficients, multiply, and reduce
every resulting half-line Gaussian moment with rational arithmetic.  Only
the final normalization touches floating point.
"""

import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import abs_power_oracle, element
from hypothesis import given, settings
from hypothesis import strategies as st

import perturba
from perturba.oscillator import (
    QUAD_BAND_LIMIT,
    QUAD_ROW_LIMIT,
    TABLE_LIMIT,
    TAGS,
    _cutoff,
    _quadrature_element,
    build_element_table,
    cached_element_table,
    wavefunction_rows,
    write_table_csv,
)


class TestWavefunctions:
    def test_ground_state_value(self):
        assert wavefunction_rows(0, 0.0)[0] == pytest.approx(math.pi ** -0.25, rel=1e-14)

    def test_second_excited_closed_form(self):
        # (4 xi^2 - 2) * pi^(-1/4) / sqrt(8) * exp(-xi^2/2) at xi = 1
        expected = 2.0 * math.pi ** -0.25 / math.sqrt(8.0) * math.exp(-0.5)
        assert wavefunction_rows(2, 1.0)[2] == pytest.approx(expected, rel=1e-13)

    def test_parity(self):
        xs = np.linspace(-3.0, 3.0, 7)
        for n in (0, 1, 4, 7):
            left = wavefunction_rows(n, -xs)[n]
            right = wavefunction_rows(n, xs)[n]
            assert np.allclose(left, (-1.0) ** n * right, atol=1e-14)

    def test_rows_match_scalar(self):
        xs = np.linspace(0.0, 4.0, 9)
        rows = wavefunction_rows(5, xs)
        assert rows.shape == (6, 9)
        for n in range(6):
            assert np.allclose(rows[n], wavefunction_rows(n, xs)[n], atol=1e-14)

    def test_grid_keeps_shape(self):
        grid = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        for n in (0, 1, 5):
            values = wavefunction_rows(n, grid)[n]
            assert values.shape == (3, 4)
            expected = [[wavefunction_rows(n, float(x))[n] for x in row] for row in grid]
            assert np.allclose(values, expected, atol=1e-14)

    def test_orthonormality_by_quadrature(self):
        xs = np.linspace(-12.0, 12.0, 4001)
        rows = wavefunction_rows(8, xs)
        gram = rows @ rows.T * (xs[1] - xs[0])
        assert np.allclose(gram, np.eye(9), atol=1e-6)


class TestClosedFormElements:
    def test_xi_band(self):
        assert element("xi", 0, 1) == pytest.approx(math.sqrt(0.5), rel=1e-15)
        assert element("xi", 4, 5) == pytest.approx(math.sqrt(2.5), rel=1e-15)
        assert element("xi", 3, 3) == 0.0
        assert element("xi", 0, 3) == 0.0

    def test_xi2(self):
        assert element("xi2", 5, 5) == pytest.approx(5.5, rel=1e-15)
        assert element("xi2", 0, 2) == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-15)
        assert element("xi2", 0, 1) == 0.0

    def test_xi3(self):
        assert element("xi3", 0, 1) == pytest.approx(1.5 * math.sqrt(0.5), rel=1e-15)
        assert element("xi3", 0, 3) == pytest.approx(0.5 * math.sqrt(3.0), rel=1e-15)
        assert element("xi3", 2, 2) == 0.0

    def test_xi4(self):
        assert element("xi4", 0, 0) == pytest.approx(0.75, rel=1e-15)
        assert element("xi4", 0, 2) == pytest.approx(1.5 * math.sqrt(2.0), rel=1e-15)
        assert element("xi4", 0, 4) == pytest.approx(math.sqrt(24.0) / 4.0, rel=1e-15)
        assert element("xi4", 1, 1) == pytest.approx(0.75 * 5.0, rel=1e-15)

    def test_symmetry(self):
        for tag in ("xi", "xi2", "xi3", "xi4"):
            assert element(tag, 3, 6) == element(tag, 6, 3)

    def test_closed_forms_match_moment_oracle(self):
        # |xi|^p and xi^p agree on even-parity pairs for even powers; check
        # xi^2 and xi^4 against the same rational-moment machinery.
        for n, m in ((0, 0), (1, 1), (2, 4), (5, 7), (6, 6)):
            if (n + m) % 2 == 0:
                assert element("xi2", n, m) == pytest.approx(
                    abs_power_oracle(n, m, 2), abs=1e-12
                )
                assert element("xi4", n, m) == pytest.approx(
                    abs_power_oracle(n, m, 4), abs=1e-12
                )


class TestQuadratureScheme:
    def test_cutoff_examples(self):
        assert _cutoff(0, 0) == 9
        assert _cutoff(12, 3) == 13

    def test_cutoff_monotone(self):
        cuts = [_cutoff(n, n) for n in range(0, 120, 10)]
        assert all(b >= a for a, b in zip(cuts, cuts[1:]))


class TestAbsPowerElements:
    def test_known_values(self):
        assert element("lambda_xi", 0, 0) == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-12)
        assert element("lambda_xi3", 0, 0) == pytest.approx(
            1.0 / math.sqrt(math.pi), abs=1e-12
        )
        assert element("lambda_xi3", 0, 2) == pytest.approx(
            6.0 / math.sqrt(8.0 * math.pi), abs=1e-12
        )

    def test_parity_zeros(self):
        assert element("lambda_xi", 0, 1) == 0.0
        assert element("lambda_xi3", 2, 5) == 0.0

    def test_quadrature_matches_oracle_sample(self):
        for power, tag in ((1, "lambda_xi"), (3, "lambda_xi3")):
            for n, m in ((0, 0), (0, 6), (3, 5), (10, 14), (20, 20), (17, 19)):
                assert element(tag, n, m) == pytest.approx(
                    abs_power_oracle(n, m, power), abs=1e-10
                ), (power, n, m)

    @given(
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=0, max_value=15),
        st.sampled_from([1, 3]),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_quadrature_matches_oracle(self, n, half_gap, power):
        m = n + 2 * half_gap
        tag = "lambda_xi" if power == 1 else "lambda_xi3"
        assert element(tag, n, m) == pytest.approx(abs_power_oracle(n, m, power), abs=5e-9)

    def test_operator_product_identity(self):
        # |xi|^3 = |xi| * xi^2; the xi^2 factor is banded so the composition
        # needs no tail beyond the table.
        for n, m in ((0, 0), (2, 8), (11, 13), (24, 30)):
            total = sum(
                element("lambda_xi", n, j) * element("xi2", j, m)
                for j in (m - 2, m, m + 2)
                if j >= 0
            )
            assert element("lambda_xi3", n, m) == pytest.approx(total, abs=1e-9)


class TestExtrapolationRegion:
    def test_wide_band_continuity(self):
        # Extrapolated entries just past the band anchor stay within 10% of
        # the raw integral evaluated at the same indices.
        for power, tag in ((1, "lambda_xi"), (3, "lambda_xi3")):
            for a in (0, 5, 10):
                raw = _quadrature_element(a, a + QUAD_BAND_LIMIT + 2, power)
                extrapolated = element(tag, a, a + QUAD_BAND_LIMIT + 2)
                assert extrapolated == pytest.approx(raw, rel=0.10), (power, a)

    def test_row_limit_continuity(self):
        for power, tag in ((1, "lambda_xi"), (3, "lambda_xi3")):
            for k in (0, 2):
                row_limit = QUAD_ROW_LIMIT - k // 2
                a = row_limit + 1
                raw = _quadrature_element(a, a + k, power)
                extrapolated = element(tag, a, a + k)
                assert extrapolated == pytest.approx(raw, rel=0.10), (power, k)

    def test_wide_band_alternating_signs(self):
        vals = [element("lambda_xi", 0, k) for k in range(52, 70, 4)]
        assert all(v != 0.0 for v in vals)
        signs = [math.copysign(1.0, v) for v in vals]
        assert signs == sorted(signs, reverse=True) or all(
            s1 != s2 for s1, s2 in zip(signs, signs[1:])
        ) or len(set(signs)) <= 2

    def test_wide_band_magnitude_decays(self):
        mags = [abs(element("lambda_xi3", 0, k)) for k in range(52, 90, 2)]
        assert all(b < a for a, b in zip(mags, mags[1:]))

    @pytest.mark.parametrize("max_n", [99, 150, TABLE_LIMIT])
    def test_extrapolated_entries_follow_the_scalar_rule(self, max_n):
        # every entry outside the trusted region, recomputed one at a time
        # with Python's float pow from the table's own anchors, matches bit
        # for bit; odd bandwidths are exactly zero
        for tag, power in (("lambda_xi", 1), ("lambda_xi3", 3)):
            vals = build_element_table(tag, max_n)
            for a in range(max_n + 1):
                for b in range(a, max_n + 1):
                    k = b - a
                    row_limit = QUAD_ROW_LIMIT - k // 2
                    if k % 2:
                        expected = 0.0
                    elif k > QUAD_BAND_LIMIT:
                        sign = -1.0 if ((QUAD_BAND_LIMIT + k) // 2) % 2 else 1.0
                        expo = 1.25 if power == 1 else 2.5 + 0.02 * a
                        anchor = vals[a, a + QUAD_BAND_LIMIT]
                        expected = sign * anchor * (QUAD_BAND_LIMIT / k) ** expo
                    elif a > row_limit:
                        expo = 0.5 if power == 1 else 1.5
                        expected = vals[row_limit, row_limit + k] * (a / row_limit) ** expo
                    else:
                        continue
                    assert vals[a, b] == expected and vals[b, a] == expected, (tag, a, b)


class TestElementTables:
    def test_banded_tables_match_scalars(self):
        for tag in ("xi", "xi2", "xi3", "xi4"):
            table = build_element_table(tag, 12)
            for n in range(13):
                for m in range(13):
                    assert table[n, m] == element(tag, n, m), (tag, n, m)

    def test_abs_tables_match_scalars_in_trusted_region(self):
        for tag in ("lambda_xi", "lambda_xi3"):
            table = build_element_table(tag, 24)
            for n in range(0, 25, 3):
                for m in range(n, 25, 2):
                    assert table[n, m] == pytest.approx(element(tag, n, m), abs=1e-10)

    def test_sum_rules_on_inner_block(self):
        # xi2 = xi @ xi, xi3 = xi @ xi2, xi4 = xi2 @ xi2 away from the edge.
        big = 70
        inner = 61
        t = {tag: build_element_table(tag, big) for tag in ("xi", "xi2", "xi3", "xi4")}
        prod2 = t["xi"] @ t["xi"]
        prod3 = t["xi"] @ t["xi2"]
        prod4 = t["xi2"] @ t["xi2"]
        assert np.allclose(prod2[:inner, :inner], t["xi2"][:inner, :inner], atol=1e-12)
        assert np.allclose(prod3[:inner, :inner], t["xi3"][:inner, :inner], atol=1e-12)
        assert np.allclose(prod4[:inner, :inner], t["xi4"][:inner, :inner], atol=1e-12)

    def test_tables_symmetric(self):
        for tag in TAGS:
            vals = build_element_table(tag, 16)
            assert np.array_equal(vals, vals.T), tag

    def test_build_rejects_unknown_tag(self):
        with pytest.raises(ValueError):
            build_element_table("xi5", 10)

    def test_build_rejects_oversized(self):
        with pytest.raises(ValueError, match=f"max_n above {TABLE_LIMIT} is not supported"):
            build_element_table("xi", TABLE_LIMIT + 1)

    def test_cached_table_is_cached(self):
        a = cached_element_table("xi2", 20)
        b = cached_element_table("xi2", 20)
        assert a is b

    def test_values_read_only(self):
        table = build_element_table("xi", 4)
        assert table.shape == (5, 5)
        with pytest.raises(ValueError):
            table[0, 0] = 1.0

    @pytest.mark.parametrize("tag", ["lambda_xi", "lambda_xi3"])
    def test_abs_tables_independent_of_blas_threads(self, tag):
        # a BLAS product rounds differently under 1 and 2 OpenBLAS threads,
        # which would carry into every synthetic quartic matrix
        code = (
            "import sys; from perturba.oscillator import build_element_table; "
            "sys.stdout.buffer.write(build_element_table(sys.argv[1], 500).tobytes())"
        )
        src = str(Path(perturba.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-c", code, tag], env=env, capture_output=True, check=True
        )
        assert proc.stdout == build_element_table(tag, 500).tobytes()


class TestTableCsv:
    def test_header_and_shape(self):
        table = build_element_table("xi", 2)
        buf = io.StringIO()
        write_table_csv(table, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "n,m,value"
        assert len(lines) == 1 + 9
        n, m, value = lines[1].split(",")
        assert (n, m) == ("0", "0")
        assert float(value) == 0.0

    def test_round_trip_values(self):
        table = build_element_table("lambda_xi3", 3)
        buf = io.StringIO()
        write_table_csv(table, buf)
        lines = buf.getvalue().strip().splitlines()[1:]
        for line in lines:
            n_s, m_s, v_s = line.split(",")
            assert float(v_s) == table[int(n_s), int(m_s)]
