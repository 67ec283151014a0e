"""Order-by-order Rayleigh-Schrodinger expansion around one diagonal entry.

The unperturbed energy of state k is taken to be the diagonal entry H[k, k],
which makes the first-order energy correction vanish identically and leaves
the off-diagonal part of H as the perturbation.  Corrections are accumulated
order by order:

    E(a) = sum_l W[k, l] c(a-1)[l]
    c(a)[l] = (sum_j W[l, j] c(a-1)[j] - sum_b c(a-b)[l] E(b)) / (H[k,k] - H[l,l])

with c(0) the unit vector on k and the b-sum running over 1 .. a-1.  The
expansion stops once both the energy and every coefficient correction are
negligible against their accumulated values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import PerturbationSolution, SolveStatus, as_square_matrix

DIVERGENCE_GUARD = 1.0e12
# Relative convergence tolerance of both solvers' energy and coefficient tests.
RELATIVE_TOL = 1.0e-10


@dataclass(frozen=True)
class RsptConfig:
    """Stopping controls for the order-by-order expansion.

    Order a is accepted once |E(a)| <= RELATIVE_TOL * |E| and
    |c(a)[l]| <= RELATIVE_TOL * |c[l]| for all l.  max_order caps the
    expansion; a single correction past DIVERGENCE_GUARD in magnitude aborts
    the state.
    """

    max_order: int = 1000

    def __post_init__(self) -> None:
        if self.max_order < 1:
            raise ValueError("max_order must be at least 1")


@dataclass(frozen=True)
class OrderHistory:
    """Per-order corrections retained by one solve.

    energy_corrections[a-1] is the order-a energy correction; the first entry
    is always zero under the diagonal convention used here.
    coefficient_corrections has one row per order.
    """

    energy_corrections: np.ndarray
    coefficient_corrections: np.ndarray


def rspt_solve(
    h, state: int, config: RsptConfig | None = None, keep_history: bool = False
) -> PerturbationSolution:
    """Expand one eigenvalue/eigenvector of h around its diagonal entry.

    Returns a PerturbationSolution whose energy is the diagonal entry plus
    all accumulated corrections.  Failure to converge within max_order gives
    MAX_ITERATIONS_EXCEEDED; a correction past the guard, or a vanishing
    energy gap with nonzero coupling, gives ALGORITHM_FAILURE with a reason
    in detail.
    """
    a = as_square_matrix(h)
    n = a.shape[0]
    if not 0 <= state < n:
        raise IndexError(f"state {state} outside 0..{n - 1}")
    cfg = config or RsptConfig()

    diag = np.diag(a)
    w = a - np.diag(diag)
    gap = diag[state] - diag  # gap[state] == 0, unused
    zero_gap = gap == 0.0
    zero_gap[state] = False
    degenerate = bool(zero_gap.any())
    wk = w[state, :]

    # correction history: rows 0..max_order, row 0 is the unperturbed unit vector
    c_hist = np.zeros((cfg.max_order + 1, n))
    c_hist[0, state] = 1.0
    e_hist = np.zeros(cfg.max_order + 1)

    total_c = c_hist[0].copy()
    total_e = diag[state]
    status = SolveStatus.MAX_ITERATIONS_EXCEEDED
    detail: str | None = None
    order = 0

    safe_gap = np.where(zero_gap | (np.arange(n) == state), 1.0, gap)
    for order in range(1, cfg.max_order + 1):
        e_corr = float(wk @ c_hist[order - 1])
        rhs = w @ c_hist[order - 1]
        if order >= 2:
            # subtract lower-order energy feedback terms
            rhs -= c_hist[order - 1:0:-1].T @ e_hist[1:order]
        rhs[state] = 0.0
        if degenerate and np.any(rhs[zero_gap] != 0.0):
            status = SolveStatus.ALGORITHM_FAILURE
            detail = "degenerate diagonal with nonzero coupling"
            break
        c_corr = rhs / safe_gap
        if degenerate:
            c_corr[zero_gap] = 0.0
        c_corr[state] = 0.0

        if abs(e_corr) > DIVERGENCE_GUARD or np.max(np.abs(c_corr)) > DIVERGENCE_GUARD:
            status = SolveStatus.ALGORITHM_FAILURE
            detail = f"correction magnitude exceeded {DIVERGENCE_GUARD:.1e}"
            break

        c_hist[order] = c_corr
        e_hist[order] = e_corr
        total_c += c_corr
        total_e += e_corr

        energy_ok = abs(e_corr) <= RELATIVE_TOL * abs(total_e)
        coeff_ok = bool(np.all(np.abs(c_corr) <= RELATIVE_TOL * np.abs(total_c)))
        if energy_ok and coeff_ok:
            status = SolveStatus.CONVERGED
            break

    coefficients = total_c.copy()
    coefficients[state] = 1.0
    history = None
    if keep_history:
        history = OrderHistory(
            energy_corrections=e_hist[1 : order + 1].copy(),
            coefficient_corrections=c_hist[1 : order + 1].copy(),
        )
    return PerturbationSolution(
        state=state,
        energy=float(total_e),
        coefficients=coefficients,
        iterations=order,
        status=status,
        detail=detail,
        history=history,
    )


def rspt_solve_all(h, config: RsptConfig | None = None) -> list[PerturbationSolution]:
    """Run rspt_solve for every state of h; failures stay per-state."""
    a = as_square_matrix(h)
    return [rspt_solve(a, k, config) for k in range(a.shape[0])]
