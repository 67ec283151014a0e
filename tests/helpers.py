"""Shared oracles and generators for the test suite."""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from perturba.oscillator import TABLE_LIMIT, cached_element_table


@lru_cache(maxsize=None)
def hermite_coefficients(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th physicists' polynomial, power order."""
    if n == 0:
        return (1,)
    if n == 1:
        return (0, 2)
    prev, cur = (1,), (0, 2)
    for k in range(1, n):
        nxt = [0] * (k + 2)
        for j, c in enumerate(cur):
            nxt[j + 1] += 2 * c
        for j, c in enumerate(prev):
            nxt[j] -= 2 * k * c
        prev, cur = cur, tuple(nxt)
    return cur


def element(tag: str, n: int, m: int) -> float:
    """<n|op|m> of one operator tag, read from its full-size cached table."""
    return float(cached_element_table(tag, TABLE_LIMIT)[n, m])


def abs_power_oracle(n: int, m: int, power: int) -> float:
    """Exact <n| |xi|^power |m> via rational Gaussian moments.

    With n + m even, every contributing exponent q has the parity of power;
    2 * int_0^inf x^q e^{-x^2} dx equals ((q-1)/2)! for odd q and
    sqrt(pi) * (q-1)!! / 2^(q/2) for even q. Either way the accumulation is
    a single Fraction and only the final normalization is floating point.
    """
    if (n + m) % 2 == 1:
        return 0.0
    acc = Fraction(0)
    for i, a in enumerate(hermite_coefficients(n)):
        if a == 0:
            continue
        for j, b in enumerate(hermite_coefficients(m)):
            if b == 0:
                continue
            q = i + j + power
            if q % 2 == 1:
                acc += Fraction(a * b * math.factorial((q - 1) // 2))
            else:
                acc += Fraction(
                    a * b * math.prod(range(q - 1, 0, -2)), 2 ** (q // 2)
                )
    norm = 2.0 ** (n + m) * math.factorial(n) * math.factorial(m)
    if power % 2 == 1:
        return float(acc) / math.sqrt(math.pi * norm)
    return float(acc) / math.sqrt(norm)


def random_dominant(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Symmetric matrix with well-separated diagonal and weak couplings."""
    diag = np.sort(rng.uniform(0.0, 10.0, size=dim))
    diag += np.arange(dim)
    off = rng.uniform(-1.0, 1.0, size=(dim, dim))
    off = (off + off.T) / 2.0
    np.fill_diagonal(off, 0.0)
    min_gap = float(np.min(np.diff(diag)))
    return np.diag(diag) + 0.05 * min_gap * off


def dense_2d_matrices(beta: float, a: float, n_max: int):
    """The 2-D oscillator matrices as dense N x N sums, one fancy-indexed term each.

    Returns (true H, transformed H, F, G) on the triangular basis of cut
    n_max: H = diag(n1 + n2 + 1) + beta xi1 xi2, the transformed matrix with
    couplings (beta + (m1 + m2 - n1 - n2) a) xi1 xi2 less
    G = a^2 / 2 (xi1^2 delta2 + xi2^2 delta1), and F = (E0_m - E0_n) a xi1 xi2.
    The band builders must give every one of them to the byte.
    """
    pairs = np.array([(n1, t - n1) for t in range(n_max + 1) for n1 in range(t + 1)])
    n1, n2 = pairs[:, 0], pairs[:, 1]
    xi = cached_element_table("xi", n_max)
    x2tab = cached_element_table("xi2", n_max)
    x1 = xi[n1[:, None], n1[None, :]]
    x2 = xi[n2[:, None], n2[None, :]]
    total = n1 + n2
    same1 = n1[:, None] == n1[None, :]
    same2 = n2[:, None] == n2[None, :]
    g_bands = x2tab[n1[:, None], n1[None, :]] * same2 + x2tab[n2[:, None], n2[None, :]] * same1
    true = np.diag(total + 1.0) + beta * x1 * x2
    factor = beta + (total[None, :] - total[:, None]) * a
    synthetic = np.diag(total + 1.0) + factor * x1 * x2 - 0.5 * a * a * g_bands
    e0 = total + 1.0
    f = (e0[None, :] - e0[:, None]) * (a * x1 * x2)
    g = 0.5 * a**2 * g_bands
    return true, synthetic, f, g


def reference_iterate(h: np.ndarray, state: int, max_iterations: int):
    """The quadratic coefficient iteration one sweep at a time, on matrices without rotated ties.

    Written from the iterative module's docstring: the update on the
    state's coupling block, with the tie-break sign(k - l) and c[l] = s
    where the denominator is 0, then stop rules 1-4 tested after every
    sweep, with the residual gate of stop rule 1.  A tied group that is
    symmetric and coupled within itself would be rotated by the solver
    first; that step is not written here.
    Returns (status value, iterations, detail, energy, coefficients).
    """
    linked = (h != 0.0) | (h.T != 0.0)
    member = np.arange(h.shape[0]) == state
    while not np.array_equal(grown := member | linked[member].any(axis=0), member):
        member = grown
    block = np.flatnonzero(member)
    a = h[np.ix_(block, block)]
    k = int(np.flatnonzero(block == state)[0])
    d = a[k, k] - np.diag(a)
    s = np.where(d == 0.0, np.sign(k - np.arange(block.size)), np.sign(d))
    c, two_back, e, hc = np.zeros(block.size), np.full(block.size, np.nan), a[k, k], 0.0
    residual_bound = 1.0e-9 * np.sqrt(np.einsum("ij,ij->", a, a))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for it in range(1, max_iterations + 1):
            y = a[:, k] + (a @ c - np.diag(a) * c) - c * (hc - a[k] * c)
            q = d * d + 4.0 * a[k] * y
            denominator = 0.5 * (np.sqrt(np.maximum(q, 0.0)) + np.abs(d))
            root = np.where(denominator == 0.0, s, s * y / denominator)
            new = np.where(q >= 0.0, root, -d / (2.0 * a[k]))
            new[k] = 0.0
            new_hc = a[k] @ new
            new_e = a[k, k] + new_hc
            settled = np.abs(c - new) - 0.5e-10 * np.abs(c + new) <= 4.0 * np.finfo(float).eps
            if abs(new_e - e) <= 0.5e-10 * abs(new_e + e) and settled.all():
                column = new.copy()
                column[k] = 1.0
                r = np.einsum("ij,j->i", a, column) - new_e * column
                residual = np.linalg.norm(r) / np.linalg.norm(column)
                if residual <= residual_bound:
                    stop = ("converged", None, new_e, new)
                else:
                    stop = ("algorithm_failure", f"stalled: residual {residual:.2e}", new_e, new)
            elif np.array_equal(new, two_back):
                stop = ("algorithm_failure", f"period-2 cycle at sweep {it}", new_e, new)
            elif not np.abs(new).max() <= 1.0e12:
                stop = ("algorithm_failure", "coefficient magnitude exceeded 1.0e+12", e, c)
            elif it == max_iterations:
                stop = ("max_iterations_exceeded", None, new_e, new)
            else:
                two_back, c, e, hc = c, new, new_e, new_hc
                continue
            coefficients = np.zeros(h.shape[0])
            coefficients[block] = stop[3]
            coefficients[state] = 1.0
            return stop[0], it, stop[1], float(stop[2]), coefficients


def reference_rspt(h: np.ndarray, state: int, max_order: int):
    """The Rayleigh-Schroedinger expansion of one state, one order at a time.

    Written from the rspt module's docstring: the recursion, with the b-sum
    as one product in the module's summation order, then stop rules 1-4
    after every order.  Rounding the b-sum in another order moves the
    energies of the states of build_linear_true(0.5, 30) that end at the
    guard by up to 7e-4 relative: their last corrections cancel to a few
    digits.
    Returns (status value, orders, detail, energy, coefficients, energy
    corrections, coefficient corrections), the corrections one row per
    order with a rejected order left zero.
    """
    n = h.shape[0]
    w = h - np.diag(np.diag(h))
    gap = h[state, state] - np.diag(h)
    others = np.arange(n) != state
    tied = others & (gap == 0.0)
    e = np.zeros(max_order + 1)
    c = np.zeros((max_order + 1, n))
    c[0, state] = 1.0
    energy, coefficients = h[state, state], c[0].copy()
    for a in range(1, max_order + 1):
        e_a = w[state] @ c[a - 1]
        numerator = w @ c[a - 1]
        if a > 1:
            # E(a-1), ..., E(1) against c(1), ..., c(a-1), the module's summation order
            numerator -= e[a - 1 : 0 : -1].copy() @ c[1:a]
        numerator[state] = 0.0
        c_a = np.zeros(n)
        c_a[others & ~tied] = numerator[others & ~tied] / gap[others & ~tied]
        if np.any(numerator[tied] != 0.0):
            stop = ("algorithm_failure", "degenerate diagonal with nonzero coupling")
        elif abs(e_a) > 1.0e12 or np.abs(c_a).max() > 1.0e12:
            stop = ("algorithm_failure", "correction magnitude exceeded 1.0e+12")
        else:
            e[a], c[a] = e_a, c_a
            energy, coefficients = energy + e_a, coefficients + c_a
            if abs(e_a) <= 1.0e-10 * abs(energy) and np.all(
                np.abs(c_a) <= 1.0e-10 * np.abs(coefficients)
            ):
                stop = ("converged", None)
            elif a == max_order:
                stop = ("max_iterations_exceeded", None)
            else:
                continue
        return stop[0], a, stop[1], float(energy), coefficients, e[1 : a + 1], c[1 : a + 1]
