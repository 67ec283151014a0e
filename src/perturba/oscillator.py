"""Harmonic-oscillator basis functions and operator matrix elements.

Everything works in the dimensionless coordinate of a unit oscillator, where
state n has energy n + 1/2.  Matrix elements of xi, xi^2, xi^3 and xi^4 come
from closed-form band expressions, each written once in _BANDS and
evaluated by the tables on an index array.  The absolute-value operators
|xi| and |xi|^3 (tagged lambda_xi and lambda_xi3) have no finite band, so
those elements are integrated numerically on the half line and extended to
very large indices by power-law scaling of anchor values:

* they vanish whenever n + m is odd,
* numerical integration is trusted for min(n, m) <= 100 - k/2 with
  k = |n - m| <= 50,
* for k > 50 the value at (n, n + 50) is scaled by (50/k)^(5/4) for |xi|
  and (50/k)^(5/2 + 0.02 n) for |xi|^3, with sign (-1)^((50 + k)/2),
* for min index beyond the trusted row limit, the value at the limit row is
  scaled by (n/n_e)^(1/2) for |xi| and (n/n_e)^(3/2) for |xi|^3.

Tables are capped at 500 x 500.  A table is a read-only ndarray indexed
[n, m], so an element is cached_element_table(tag, max_n)[n, m].
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .linalg import check_count

TABLE_LIMIT = 500
# numerical integration is trusted up to this smaller-index row at k = 0 ...
QUAD_ROW_LIMIT = 100
# ... and out to this bandwidth; beyond either, scaled anchors take over
QUAD_BAND_LIMIT = 50

TAGS = ("xi", "xi2", "xi3", "xi4", "lambda_xi", "lambda_xi3")


# The half-line integrals use a composite Gauss-Legendre rule: [0, cutoff]
# is split into unit panels of _POINTS_PER_PANEL nodes each.
_POINTS_PER_PANEL = 24
# margin past the classical turning point of the larger state
_TAIL = 8.0


def _cutoff(n: int, m: int) -> int:
    """Turning point of the larger state plus the tail, up to a whole panel."""
    return math.ceil(math.sqrt(2.0 * max(n, m) + 1.0) + _TAIL)


@lru_cache(maxsize=64)
def _panel_nodes(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for unit panels tiling [0, cutoff]."""
    base_x, base_w = np.polynomial.legendre.leggauss(_POINTS_PER_PANEL)
    offsets = np.arange(cutoff, dtype=float)[:, None]
    x = (offsets + 0.5 * (base_x + 1.0)[None, :]).ravel()
    w = np.tile(0.5 * base_w, cutoff)
    return x, w


def wavefunction_rows(n_max: int, xi) -> np.ndarray:
    """All wavefunctions 0..n_max at the points xi, one per leading index.

    Uses the stable upward recursion
    psi_{n+1} = (sqrt(2) xi psi_n - sqrt(n) psi_{n-1}) / sqrt(n+1),
    starting from the normalized Gaussian ground state.  The result has
    shape (n_max + 1,) + shape of xi.
    """
    check_count("n_max", n_max, 0)
    x = np.asarray(xi, dtype=float)
    rows = np.empty((n_max + 1,) + x.shape)
    rows[0] = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n_max >= 1:
        rows[1] = math.sqrt(2.0) * x * rows[0]
    for j in range(1, n_max):
        rows[j + 1] = (math.sqrt(2.0) * x * rows[j] - math.sqrt(j) * rows[j - 1]) / math.sqrt(j + 1)
    return rows


# <a|xi^p|a+k> for each band k of each closed-form operator, as a function
# of the smaller index a, a numpy index array
_BANDS = {
    "xi": {1: lambda a: np.sqrt((a + 1) / 2.0)},
    "xi2": {
        0: lambda a: a + 0.5,
        2: lambda a: 0.5 * np.sqrt((a + 1.0) * (a + 2.0)),
    },
    "xi3": {
        1: lambda a: 1.5 * (a + 1.0) * np.sqrt((a + 1.0) / 2.0),
        3: lambda a: 0.5 * np.sqrt((a + 1.0) * (a + 2.0) * (a + 3.0) / 2.0),
    },
    "xi4": {
        0: lambda a: 0.75 * (2.0 * a * a + 2.0 * a + 1.0),
        2: lambda a: (a + 1.5) * np.sqrt((a + 1.0) * (a + 2.0)),
        4: lambda a: 0.25 * np.sqrt((a + 1.0) * (a + 2.0) * (a + 3.0) * (a + 4.0)),
    },
}


@lru_cache(maxsize=8)
def _psi_grid(n_max: int, cutoff: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    x, w = _panel_nodes(cutoff)
    return x, w, wavefunction_rows(n_max, x)


def _quadrature_element(n: int, m: int, power: int) -> float:
    """Raw half-line integral 2 * int_0^cutoff psi_n psi_m xi^power dxi.

    Valid for even n + m regardless of the trusted region.  The tables
    evaluate the same integral as one block; this one-pair form is the
    reference their extrapolation seams are checked against.
    """
    x, w, psi = _psi_grid(max(n, m), _cutoff(n, m))
    return 2.0 * float(np.sum(w * psi[n] * psi[m] * x**power))


def _banded_table(tag: str, max_n: int) -> np.ndarray:
    vals = np.zeros((max_n + 1, max_n + 1))
    for k, band in _BANDS[tag].items():
        a = np.arange(max_n + 1 - k)
        v = band(a)
        vals[a, a + k] = v
        vals[a + k, a] = v
    return vals


def _abs_power_table(power: int, max_n: int) -> np.ndarray:
    vals = np.zeros((max_n + 1, max_n + 1))
    # block of raw integrals covering every trusted (row, band) pair
    qcol = min(max_n, QUAD_ROW_LIMIT + QUAD_BAND_LIMIT)
    x, w, psi = _psi_grid(qcol, _cutoff(qcol, qcol))
    # einsum's own loop rounds the same under any BLAS thread count; a gemm
    # does not, and the synthetic quartic matrices would follow the threads
    block = 2.0 * np.einsum("ik,jk->ij", psi * (w * x**power), psi)

    # trusted rows read the block; rows past the band's limit scale its last
    # trusted entry.  Only even k carries a value, odd k stays zero by parity.
    # Powers go through np.float_power, which rounds like the C library's pow;
    # numpy's ** differs in the last bit for about 5% of arguments
    expo = 0.5 if power == 1 else 1.5
    for k in range(0, min(max_n, QUAD_BAND_LIMIT) + 1, 2):
        row_limit = QUAD_ROW_LIMIT - k // 2
        a = np.arange(max_n + 1 - k)
        trusted, scaled = a[: row_limit + 1], a[row_limit + 1 :]
        v = block[trusted, trusted + k]
        if scaled.size:
            anchor = block[row_limit, row_limit + k]
            v = np.concatenate([v, anchor * np.float_power(scaled / row_limit, expo)])
        vals[a, a + k] = v
        vals[a + k, a] = v
    # bandwidths beyond the anchor band, scaled off the completed k = 50 band
    for k in range(QUAD_BAND_LIMIT + 2, max_n + 1, 2):
        a = np.arange(max_n + 1 - k)
        sign = -1.0 if ((QUAD_BAND_LIMIT + k) // 2) % 2 else 1.0
        expo = 1.25 if power == 1 else 2.5 + 0.02 * a
        v = sign * vals[a, a + QUAD_BAND_LIMIT] * np.float_power(QUAD_BAND_LIMIT / k, expo)
        vals[a, a + k] = v
        vals[a + k, a] = v
    return vals


def build_element_table(tag: str, max_n: int) -> np.ndarray:
    """The read-only, symmetric (max_n + 1) x (max_n + 1) element table of one operator tag."""
    if tag not in TAGS:
        raise ValueError(f"unknown operator tag {tag!r}, expected one of {TAGS}")
    check_count("max_n", max_n, 0)
    if max_n > TABLE_LIMIT:
        raise ValueError(f"max_n above {TABLE_LIMIT} is not supported")
    if tag in _BANDS:
        vals = _banded_table(tag, max_n)
    else:
        power = 1 if tag == "lambda_xi" else 3
        vals = _abs_power_table(power, max_n)
    vals.setflags(write=False)
    return vals


@lru_cache(maxsize=16, typed=True)
def cached_element_table(tag: str, max_n: int) -> np.ndarray:
    """Memoized build_element_table.

    The cache is typed: True, 1 and 1.0 are equal keys, so an untyped cache
    would hand a bool or float max_n the integer's table without the size
    check.
    """
    return build_element_table(tag, max_n)


def write_table_csv(table: np.ndarray, stream) -> None:
    """Dump a table as CSV rows n,m,value with 17 significant digits.

    savetxt formats one array row per call, so each table row n is one
    array row [n, 0, value, n, 1, value, ...] with one format for all of its
    lines, rather than one call per entry.
    """
    n, m = np.indices(table.shape)
    rows = np.stack([n, m, table], axis=-1).reshape(table.shape[0], -1)
    fmt = "\n".join(["%d,%d,%.17g"] * table.shape[0])
    np.savetxt(stream, rows, fmt=fmt, header="n,m,value", comments="")
