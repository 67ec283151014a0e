"""Order-by-order Rayleigh-Schrodinger expansion around one diagonal entry.

The unperturbed energy of state k is taken to be the diagonal entry H[k, k],
which makes the first-order energy correction vanish identically and leaves
the off-diagonal part W of H as the perturbation.  Corrections are
accumulated order by order:

    E(a) = sum_l W[k, l] c(a-1)[l]
    c(a)[l] = (sum_j W[l, j] c(a-1)[j] - sum_b E(b) c(a-b)[l]) / (H[k,k] - H[l,l])

with c(0) the unit vector on k, c(a)[k] = 0 for a >= 1 and the b-sum
running over 1 .. a-1.  The expansion of state k stops at the first order a
at which one of these rules holds, and the first rule in this order wins:

1. degenerate: some l != k with H[l, l] == H[k, k] has a nonzero numerator
   (ALGORITHM_FAILURE);
2. guard: |E(a)| or some |c(a)[l]| exceeds DIVERGENCE_GUARD
   (ALGORITHM_FAILURE);
3. converged: |E(a)| <= RELATIVE_TOL * |E| and |c(a)[l]| <= RELATIVE_TOL *
   |c[l]| for every l, E and c being the sums through order a (CONVERGED);
4. cap: a == max_order (MAX_ITERATIONS_EXCEEDED).

A failure does not accept order a: the result is the sum through order
a - 1, and the failure carries its reason in detail.

The rules are tested once per batch of 16 orders, not after every order:
the batch computes all of its orders, the rules are evaluated on every
order of it at once, and each column stops at its first stopping order.
The orders a column ran past that point are dropped, so every result, down
to the bits and the order count, is the one that testing after every order
gives.  A batch also ends at the cap and at the last allocated history row.
The running sums through each order are one np.add.accumulate from the
carried sums, which adds left to right and so rounds as total + c(a) does.
The degenerate rule reads c(a) on the tied entries, where the gap is
replaced by 1 and c(a) is the numerator itself.  The guard first compares
the batch's largest |E(a)| and its largest and smallest correction with
DIVERGENCE_GUARD, and takes the per-order maxima only when one of them is
outside or nan.  A column computed past its guard order can overflow; those
orders are dropped, so their warnings are suppressed.

The target states of one call are expanded together, one coefficient column
per state, so an order costs three stacked products, for E(a), for W c(a-1)
and for the b-sum, whatever the number of states.  Columns never mix, and
every stacked product rounds each column as when it runs alone, so
rspt_solve(h, k) and rspt_solve_all(h)[k] give the same bits.  The b-sum is
one matrix-vector product per column that BLAS reads forward: the
corrections c(1), c(2), ... of a column are contiguous rows, and its energy
corrections are stored last order first, so that E(a-1), ..., E(1) is a
contiguous run too.  A column leaves the stack at the end of the batch in
which it stops.
The history is allocated in chunks that double as orders run, and each
growth drops the rows of the columns that left, so memory follows the
columns still running rather than the order cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import PerturbationSolution, SolveStatus, as_square_matrix, check_cap, check_state

DIVERGENCE_GUARD = 1.0e12
# Relative convergence tolerance of both solvers' energy and coefficient tests.
RELATIVE_TOL = 1.0e-10
# The details of the two failures, rules 1 and 2 below.
_DEGENERATE = "degenerate diagonal with nonzero coupling"
_BLOWN = f"correction magnitude exceeded {DIVERGENCE_GUARD:.1e}"
# Coefficient history rows allocated before the first growth; each growth
# doubles them, up to max_order + 1.
_FIRST_ROWS = 64
# The stop rules are tested once per batch of at most _BATCH orders.
_BATCH = 16
# rspt_solve_all stacks at most this many coefficients of full-length
# history (states * (max_order + 1) * dim), so memory stays bounded when
# many states of a large matrix run to the cap.
_STACK_ENTRIES = 1 << 21


@dataclass(frozen=True)
class OrderHistory:
    """Per-order corrections retained by one solve.

    energy_corrections[a-1] is the order-a energy correction; the first entry
    is always zero under the diagonal convention used here.
    coefficient_corrections has one row per order.  A failed order was not
    accepted and reads zero.
    """

    energy_corrections: np.ndarray
    coefficient_corrections: np.ndarray


def rspt_solve(
    h, state: int, max_order: int = 1000, keep_history: bool = False
) -> PerturbationSolution:
    """Expand one eigenvalue/eigenvector of h around its diagonal entry.

    Returns a PerturbationSolution whose energy is the diagonal entry plus
    all accumulated corrections.  Failure to converge within max_order
    orders gives MAX_ITERATIONS_EXCEEDED; a correction past the guard, or a
    vanishing energy gap with nonzero coupling, gives ALGORITHM_FAILURE with
    a reason in detail.  keep_history attaches the per-order corrections as
    an OrderHistory.
    """
    check_cap("max_order", max_order)
    a = as_square_matrix(h)
    check_state(state, a.shape[0])
    return _expand(a, np.array([state]), max_order, keep_history)[0]


def rspt_solve_all(h, max_order: int = 1000) -> list[PerturbationSolution]:
    """Expand every state of h; failures stay per-state."""
    check_cap("max_order", max_order)
    a = as_square_matrix(h)
    n = a.shape[0]
    per_stack = max(1, _STACK_ENTRIES // max(1, n * (max_order + 1)))
    results = []
    for start in range(0, n, per_stack):
        results += _expand(a, np.arange(start, min(start + per_stack, n)), max_order, False)
    return results


class _Columns:
    """Per-column constants of the running states ks.

    Row j of each array belongs to state ks[j].  They depend only on the
    set of running states, so they are rebuilt only when it shrinks.
    """

    def __init__(self, diag: np.ndarray, w: np.ndarray, ks: np.ndarray) -> None:
        self.ks = ks
        self.own = np.arange(ks.size) * diag.size + ks  # flat index of entry k of each column
        gap = diag[ks, None] - diag
        tied = gap == 0.0
        self.safe_gap = np.where(tied, 1.0, gap)
        tied.ravel()[self.own] = False
        self.zero_gap = tied if tied.any() else None  # l != k with H[l, l] == H[k, k]
        self.wk = w[ks, None, :]  # W[k, :] as a 1 x n row per column


def _expand(
    a: np.ndarray, ks: np.ndarray, last: int, keep_history: bool
) -> list[PerturbationSolution]:
    """Expand the states ks of a together, order by order, up to order last."""
    n = a.shape[0]
    diag = np.diag(a)
    w = a - np.diag(diag)
    t = _Columns(diag, w, ks)
    results: list[PerturbationSolution | None] = [None] * ks.size
    slots = np.arange(ks.size)  # result slot of each running column

    # c_hist[j, b] is c(b) of column j; e_rev[j, last - b] is its E(b)
    rows = min(_FIRST_ROWS, last + 1)
    c_hist = np.zeros((ks.size, rows, n))
    c_hist[slots, 0, ks] = 1.0
    e_rev = np.zeros((ks.size, last))
    total_c = c_hist[:, 0].copy()
    total_e = diag[ks].copy()

    def finish(j, order, accepted, sum_c, sum_e, status, detail=None) -> None:
        coefficients = sum_c.copy()
        coefficients[t.ks[j]] = 1.0
        history = None
        if keep_history:
            e = np.zeros(order)
            c = np.zeros((order, n))
            e[:accepted] = e_rev[j, last - accepted :][::-1]
            c[:accepted] = c_hist[j, 1 : accepted + 1]
            history = OrderHistory(energy_corrections=e, coefficient_corrections=c)
        results[slots[j]] = PerturbationSolution(
            state=int(t.ks[j]),
            energy=float(sum_e),
            coefficients=coefficients,
            iterations=order,
            status=status,
            detail=detail,
            history=history,
        )

    # A column computed past its guard order can overflow; the rules below
    # read inf and nan as they should, so the warnings are suppressed.
    start = 1
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            if start == rows:
                rows = min(2 * rows, last + 1)
                grown = np.empty((slots.size, rows, n))
                grown[:, :start] = c_hist[:, :start]
                c_hist = grown
            end = min(start + _BATCH - 1, rows - 1, last)
            for order in range(start, end + 1):
                prev = c_hist[:, order - 1, :, None]
                e = np.matmul(t.wk, prev)[:, 0, 0]
                rhs = np.matmul(w, prev)[:, :, 0]
                if order >= 2:
                    rhs -= np.matmul(e_rev[:, None, last - order + 1 :], c_hist[:, 1:order])[:, 0]
                np.put(rhs, t.own, 0.0)
                np.divide(rhs, t.safe_gap, out=c_hist[:, order])
                e_rev[:, last - order] = e

            # The rules on every order of the batch, one row per column.
            # sums[:, i] is the total through order start - 1 + i; accumulate
            # adds left to right, so each is the previous total + c(a) to the bit.
            cs = c_hist[:, start : end + 1]
            es = e_rev[:, last - end : last - start + 1][:, ::-1]
            sums_c = np.concatenate((total_c[:, None], cs), axis=1)
            np.add.accumulate(sums_c, axis=1, out=sums_c)
            sums_e = np.add.accumulate(np.concatenate((total_e[:, None], es), axis=1), axis=1)
            abs_e = np.abs(es)
            converged = abs_e <= RELATIVE_TOL * np.abs(sums_e[:, 1:])
            if converged.any():
                hit = np.nonzero(converged)
                small = np.abs(cs[hit]) <= RELATIVE_TOL * np.abs(sums_c[:, 1:][hit])
                converged[hit] = small.all(axis=1)
            guard = DIVERGENCE_GUARD
            if abs_e.max() <= guard and -guard <= cs.min() and cs.max() <= guard:
                blown = np.zeros_like(converged)
            else:  # some bound fails or is nan
                # fmax skips a nan on one side, as `|E(a)| > guard or max |c(a)| > guard` does
                blown = np.fmax(abs_e, np.abs(cs).max(axis=2)) > guard
            stop = converged | blown
            degenerate = None
            if t.zero_gap is not None:
                # safe_gap is 1 on the ties, so c(a) is the numerator there
                degenerate = ((cs != 0.0) & t.zero_gap[:, None]).any(axis=2)
                stop |= degenerate
            if end == last:
                stop[:, -1] = True

            # Each column stops at its first stopping order; later orders are dropped.
            done = stop.any(axis=1)
            if done.any():
                first = stop.argmax(axis=1)
                for j in np.flatnonzero(done):
                    o = first[j]
                    order = start + int(o)
                    # the first rule that holds wins; rules 1 and 2 reject order a
                    if degenerate is not None and degenerate[j, o]:
                        rule = SolveStatus.ALGORITHM_FAILURE, _DEGENERATE
                    elif blown[j, o]:
                        rule = SolveStatus.ALGORITHM_FAILURE, _BLOWN
                    elif converged[j, o]:
                        rule = SolveStatus.CONVERGED, None
                    else:
                        rule = SolveStatus.MAX_ITERATIONS_EXCEEDED, None
                    accepted = order - (rule[0] is SolveStatus.ALGORITHM_FAILURE)
                    i = accepted - start + 1
                    finish(j, order, accepted, sums_c[j, i], sums_e[j, i], *rule)
                keep = ~done
                if not keep.any():
                    break
                slots = slots[keep]
                t = _Columns(diag, w, t.ks[keep])
                # compact in place; the rows of the stopped columns are freed at the next growth
                for i, j in enumerate(np.flatnonzero(keep)):
                    c_hist[i, : end + 1] = c_hist[j, : end + 1]
                c_hist = c_hist[: slots.size]
                e_rev, sums_c, sums_e = e_rev[keep], sums_c[keep], sums_e[keep]
            total_c, total_e = sums_c[:, -1], sums_e[:, -1]
            start = end + 1
    return results
