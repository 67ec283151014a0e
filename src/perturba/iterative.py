"""Quadratically-converging eigensolver, sweeping many target states at once.

Each iteration rebuilds, for a target state k, the effective couplings

    y[l] = H[l, k] + sum_{j != k, l} (H[l, j] - c[l] H[k, j]) c[j]

from the previous coefficient column, then updates every coefficient through
the closed-form root of its local quadratic:

    q = d^2 + 4 H[k, l] y[l],        d = H[k, k] - H[l, l]
    c[l] = s * y[l] / ((sqrt(q) + |d|) / 2)        if q >= 0
    c[l] = s                                       if q >= 0, denominator 0
    c[l] = -d / (2 H[k, l])                        if q < 0, H[k, l] != 0

where s is the sign of d, falling back to the sign of k - l when the
diagonal entries are effectively equal.  The whole column is recomputed from
the committed values of the previous iteration and only committed at the end
of the pass, so the update order within a pass does not matter.  The energy
estimate is E = H[k, k] + sum_l H[k, l] c[l].

The coefficient columns of all target states are swept together as one
block, so a sweep costs one stacked product H @ C and one pass of elementwise
operations for every state still running.  Columns never mix: iterate_solve
is the block of one column, iterate_solve_all the block of all n, and a
column leaves the block as soon as it stops.  A column stops when

1. converged: E and every coefficient pass the relative tests of IterConfig
   (CONVERGED);
2. zero-coupling discriminant: a negative q meets a vanishing H[k, l], which
   cannot be assigned a root (ALGORITHM_FAILURE);
3. cycle: it failed the tests and its new column equals exactly the column
   from two sweeps back.  The update depends only on the committed column and
   both tests are symmetric, so it would alternate unconverged until the cap
   (ALGORITHM_FAILURE);
4. guard: a new coefficient is non-finite or exceeds rspt.DIVERGENCE_GUARD in
   magnitude (ALGORITHM_FAILURE);
5. cap: max_iterations sweeps have run (MAX_ITERATIONS_EXCEEDED).

The discriminant abort is decided before the sweep commits, and of the rest
the first rule in this order that holds wins.  The abort and the guard keep
the last committed column and its energy, so every reported column is
finite; the failures carry their reason in detail.

The method is exact for 2 x 2 blocks, including degenerate diagonals, and
callers are expected to present matrices with non-decreasing diagonals so
that the degenerate tie-break sign(k - l) matches the non-degenerate limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import PerturbationSolution, SolveStatus, as_square_matrix
from .rspt import DIVERGENCE_GUARD


@dataclass(frozen=True)
class IterConfig:
    """Stopping controls for the iterative solver.

    The relative tests compare successive iterates against their half-sum:
    |E - E_prev| <= energy_tol * |E + E_prev| / 2 and the analogous test per
    coefficient with coeff_tol.  zero_gap_threshold decides when a diagonal
    gap counts as degenerate for the sign convention.
    """

    energy_tol: float = 1.0e-10
    coeff_tol: float = 1.0e-10
    max_iterations: int = 10000
    zero_gap_threshold: float = 1.0e-20

    def __post_init__(self) -> None:
        if self.energy_tol <= 0.0 or self.coeff_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


def iterate_solve(
    h, state: int, config: IterConfig | None = None
) -> PerturbationSolution:
    """Solve one eigenpair of h by the quadratic coefficient iteration."""
    a = as_square_matrix(h)
    n = a.shape[0]
    if not 0 <= state < n:
        raise IndexError(f"state {state} outside 0..{n - 1}")
    return _sweep(a, np.array([state]), config or IterConfig())[0]


def iterate_solve_all(h, config: IterConfig | None = None) -> list[PerturbationSolution]:
    """Solve every state of h as one block; failures stay per-state."""
    a = as_square_matrix(h)
    return _sweep(a, np.arange(a.shape[0]), config or IterConfig())


class _Terms:
    """Per-column constants of the update for the running states ks.

    Row j of each m x n array belongs to state ks[j].  They depend only on
    the set of running states, so they are rebuilt only when it shrinks.
    """

    def __init__(self, a: np.ndarray, ks: np.ndarray, cfg: IterConfig) -> None:
        diag = np.diag(a)
        self.ks = ks
        self.own = (np.arange(ks.size), ks)  # entry k of each state's row
        self.ek = diag[ks]
        self.diag = diag
        self.hk = a[ks, :]  # H[k, l]
        self.hck = np.ascontiguousarray(a[:, ks].T)  # H[l, k]
        gap = self.ek[:, None] - diag
        degenerate = np.abs(gap) <= cfg.zero_gap_threshold
        self.sign = np.where(
            degenerate, np.sign(ks[:, None] - np.arange(a.shape[0])), np.sign(gap)
        )
        self.abs_gap = np.abs(gap)
        self.gap2 = gap * gap
        self.hk4 = 4.0 * self.hk
        self.vertex = -gap / np.where(self.hk != 0.0, 2.0 * self.hk, 1.0)
        self.zero_coupling = self.hk == 0.0
        self.zero_coupling[self.own] = False


def _sweep(a: np.ndarray, states: np.ndarray, cfg: IterConfig) -> list[PerturbationSolution]:
    """Iterate the columns of all target states together until each stops.

    The block is stored one state per row.  Its products are stacks of
    matrix-vector and dot products rather than one matrix-matrix product,
    so that every column is rounded exactly as in a block of its own: the
    cycle test compares bits, and a block solve must stop each state at the
    same sweep, with the same result, as iterate_solve.
    """
    half_ctol = cfg.coeff_tol * 0.5
    half_etol = cfg.energy_tol * 0.5
    results: list[PerturbationSolution | None] = [None] * states.size
    slots = np.arange(states.size)  # result slot of each running column

    def finish(j: int, column, e: float, it: int, status, detail=None) -> None:
        k = int(t.ks[j])
        coefficients = column.copy()
        coefficients[k] = 1.0
        results[slots[j]] = PerturbationSolution(
            state=k,
            energy=float(e),
            coefficients=coefficients,
            normalized_coefficients=coefficients / np.linalg.norm(coefficients),
            iterations=it,
            status=status,
            detail=detail,
        )

    # Divergent columns can push intermediates past the floating-point range
    # before the guard stops them, and they share every array operation with
    # healthy columns; the stopping tests below handle inf/nan correctly, so
    # arithmetic warnings are suppressed rather than surfaced per sweep.  The
    # vertex roots of tiny couplings in _Terms can overflow too.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = _Terms(a, states, cfg)
        c = np.zeros((states.size, a.shape[0]))  # committed columns; entry k implicitly 1, kept 0
        # nan never compares equal, so no column can match it on the first sweep
        c_two_back = np.full_like(c, np.nan)
        hc = np.zeros(states.size)  # sum_l H[k, l] c[l] of the committed columns
        energy = t.ek.copy()
        it = 0
        while slots.size:
            it += 1
            t1 = np.matmul(a, c[:, :, None])[:, :, 0]
            y = t.hck + (t1 - t.diag * c) - c * (hc[:, None] - t.hk * c)
            q = t.gap2 + t.hk4 * y
            aborted = (t.zero_coupling & (q < 0.0)).any(axis=1)
            den = 0.5 * (np.sqrt(np.maximum(q, 0.0)) + t.abs_gap)
            nonzero = den != 0.0
            root = np.where(nonzero, t.sign * y / np.where(nonzero, den, 1.0), t.sign)
            new = np.where(q >= 0.0, root, t.vertex)
            new[t.own] = 0.0

            new_hc = np.matmul(t.hk[:, None, :], new[:, :, None])[:, 0, 0]
            new_energy = t.ek + new_hc
            converged = np.abs(new_energy - energy) <= half_etol * np.abs(new_energy + energy)
            if converged.any():
                coeff_moved = (np.abs(c - new) - half_ctol * np.abs(c + new)) > 0.0
                converged &= ~coeff_moved.any(axis=1)
            cycling = (new == c_two_back).all(axis=1)
            blown = ~(np.abs(new).max(axis=1) <= DIVERGENCE_GUARD)  # nan-safe
            stop = aborted | converged | cycling | blown
            if it == cfg.max_iterations:
                stop[:] = True

            if stop.any():
                for j in np.flatnonzero(stop):
                    if aborted[j]:
                        finish(j, c[j], energy[j], it, SolveStatus.ALGORITHM_FAILURE,
                               "negative discriminant with zero coupling")
                    elif converged[j]:
                        finish(j, new[j], new_energy[j], it, SolveStatus.CONVERGED)
                    elif cycling[j]:
                        finish(j, new[j], new_energy[j], it, SolveStatus.ALGORITHM_FAILURE,
                               f"period-2 cycle at sweep {it}")
                    elif blown[j]:
                        finish(j, c[j], energy[j], it, SolveStatus.ALGORITHM_FAILURE,
                               f"coefficient magnitude exceeded {DIVERGENCE_GUARD:.1e}")
                    else:
                        finish(j, new[j], new_energy[j], it,
                               SolveStatus.MAX_ITERATIONS_EXCEEDED)
                keep = ~stop
                slots = slots[keep]
                t = _Terms(a, t.ks[keep], cfg)
                c, new, new_hc, new_energy = c[keep], new[keep], new_hc[keep], new_energy[keep]
            c_two_back, c, hc, energy = c, new, new_hc, new_energy
    return results
