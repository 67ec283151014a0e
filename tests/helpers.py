"""Shared oracles and generators for the test suite."""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np


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
