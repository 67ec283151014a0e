"""Quadratic coefficient iteration, sweeping many target states at once.

Each iteration rebuilds, for a target state k, the effective couplings

    y[l] = H[l, k] + sum_{j != k, l} (H[l, j] - c[l] H[k, j]) c[j]

from the previous coefficient column, then updates every coefficient through
the closed-form root of its local quadratic:

    q = d^2 + 4 H[k, l] y[l],        d = H[k, k] - H[l, l]
    c[l] = s * y[l] / ((sqrt(q) + |d|) / 2)        if q >= 0
    c[l] = s                                       if q >= 0, denominator 0
    c[l] = -d / (2 H[k, l])                        if q < 0

where s is the sign of d, falling back to the sign of k - l when the
diagonal entries are exactly equal.  q < 0 needs H[k, l] y[l] < 0, so
H[k, l] != 0 wherever the vertex root -d / (2 H[k, l]) is taken.  The whole
column is recomputed from the committed values of the previous iteration and
only committed at the end of the pass, so the update order within a pass does
not matter.  The energy estimate is E = H[k, k] + sum_l H[k, l] c[l].
Each update solves a coefficient's local quadratic exactly, but the sweep
is a fixed-point iteration: where it converges, it converges linearly (on
the dim-100 transformed quartic at beta 0.1, state 0's energy error shrinks
about 0.55x per sweep, and beta 0.5 state 6 takes 3,580 sweeps).

Before sweeping, the matrix is split into coupling blocks: the connected
components of the pattern of entries with H[k, l] != 0 or H[l, k] != 0.
Outside its own block a column stays exactly zero, since there y[l] = 0 and
the update gives c[l] = +-0; the one exception is an exact diagonal tie with
an uncoupled state, where the denominator vanishes and c[l] = s would mix
that degenerate partner in with weight 1.  So a sweep runs on the state's
coupling block only: its cost scales with the block, not the matrix, and
uncoupled degenerate partners stay out of the result.

Inside a block, positions whose diagonal entries are exactly equal form a
tied group.  The sign(k - l) tie-break cannot resolve a group that is
coupled within itself: in the 2-D oscillator, shell n1 + n2 = N is
(N + 1)-fold tied and tridiagonally coupled, and its states stall or
converge to no eigenpair.  So, as in degenerate Rayleigh-Schroedinger
theory, every tied group whose in-group block is symmetric with a nonzero
off-diagonal entry is diagonalized first: the block submatrix becomes
Q^T H Q, with Q block-diagonal and each block the eigenvectors of one
group's in-group block, ascending eigenvalues on ascending positions.  The
sweep runs on the rotated submatrix, and each finished column c' is mapped
back as c = Q c'.  The target is then the rotated vector on the state's
position, which carries weight 1; coefficients[state] itself is whatever
that vector gives.  All coupled groups of the block are rotated, not just
the target's: the columns of one block then share one rotated submatrix,
and a coupled group left unrotated elsewhere in the block can still pull
the target onto no eigenpair.  Uncoupled or non-symmetric groups stay as
they are and keep the tie-break.

The coefficient columns of all target states of one coupling block are
swept together, so a sweep costs one stacked product H @ C and one pass of
elementwise operations for every state still running.  Columns never mix:
iterate_solve is the sweep of one column, iterate_solve_all one sweep per
coupling block over all its states, and a column leaves the sweep at the end
of the batch (below) in which it stops.  Both see the same block submatrix,
so they give the same result per state.  A column stops when

1. converged: |E - E_prev| <= rspt.RELATIVE_TOL * |E + E_prev| / 2, and
   the same test passes for every coefficient.  A coefficient step that
   misses its test by less than 4 ulps of 1, the state's own coefficient,
   is rounding noise and passes: tiny coefficients jitter at that level in
   relative terms forever.  The column is then CONVERGED if its residual
   |H c - E c| / |c| on the block is at most 1e-9 times the block's
   Frobenius norm; otherwise it has stalled on no eigenpair
   (ALGORITHM_FAILURE).  The rotation below is orthogonal, so the residual
   is the same in the rotated basis;
2. cycle: it failed the tests and its new column equals exactly the column
   from two sweeps back.  The update depends only on the committed column and
   both tests are symmetric, so it would alternate unconverged until the cap
   (ALGORITHM_FAILURE);
3. guard: a new coefficient is non-finite or exceeds rspt.DIVERGENCE_GUARD in
   magnitude (ALGORITHM_FAILURE);
4. cap: max_iterations sweeps have run (MAX_ITERATIONS_EXCEEDED).

The first rule in this order that holds wins.  The guard keeps the last
committed column and its energy, so every reported column is finite; the
failures carry their reason in detail.

The rules are tested once per batch of sweeps, not after every sweep: the
batch keeps every column it computes, the rules are evaluated on all of its
sweeps at once, and each column stops at its first stopping sweep.  The
sweeps a column ran past that point are discarded, so every result, down to
the bits and the sweep count, is the one that testing after every sweep
gives.  A batch is 16 sweeps, so that a run stopping after a dozen sweeps
wastes few; once the running columns have gone 256 sweeps without a stop,
batches are 64 sweeps, so that a long run tests the rules a quarter as
often.  A batch never runs past the cap, and on wide blocks it is shorter,
so that its column history stays within a fixed size.  The cycle and guard
tests read whole columns only where they can hold.  Equal columns have
equal sums_l H[k, l] c[l], whichever stack width computed them (below),
so the cycle test compares a column with the one from two sweeps back only
where their sums are equal or nan; the batch carries the last two sums as
well as the last two columns, so this holds on its first sweep too.  The
guard first compares the batch's largest and smallest coefficient with
rspt.DIVERGENCE_GUARD, and takes the per-column maxima only when either
is outside or nan.

The sweeps run in one stack object per set of running columns, built when
the sweep starts and rebuilt when a column stops: the constants of the
update, a column history sized for a 64-sweep batch, every intermediate
array, and the views each sweep reads and writes, bound once, so that a
sweep is 17 numpy calls (19 on a block with an exact tie).  Each batch
takes its length from the sweeps run since the last stop and fills the
front of that history.  A batch starts by copying the last two columns of
the previous one and their sums_l H[k, l] c[l] to the front of the
history, and takes every energy from those sums.  Each elementwise
product, diag(H) * c, H[k, l] * c, 4 H[k, l] * y and 2 s * y, is its own
call on factors stored at the shape of the columns: numpy takes about
three times as long over a call that broadcasts its operands.  A stack of
one column, which is every iterate_solve and an iterate_solve_all
block once one column is left running, works on 1-D rows with 0-d sums, and
its two products are np.dot; a wider stack keeps m x n rows and the stacked
np.matmul.  Both products run the BLAS gemv and ddot kernels for each
column, so a column is rounded the same whichever stack it runs in.
The root is computed as sqrt(q) without clamping q at 0: where q < 0 the
square root is nan, and the vertex root replaces that entry anyway, and a
nan q stays nan either way.  So the denominator is exactly 0 only where q
is 0 and the gap is 0, the tie case above.

The method is exact for 2 x 2 matrices, including degenerate diagonals, and
callers are expected to present matrices with non-decreasing diagonals so
that the tie-break sign(k - l) of uncoupled ties matches the non-degenerate
limit.
"""

from __future__ import annotations

import numpy as np

from .linalg import PerturbationSolution, SolveStatus, as_square_matrix, check_cap, check_state
from .rspt import DIVERGENCE_GUARD, RELATIVE_TOL

# A coefficient step below a few ulps of the state's own unit coefficient
# is rounding noise, not movement (stop rule 1).
_NOISE = 4.0 * np.finfo(float).eps
# The relative tests compare against the half-sum of successive iterates.
_HALF_TOL = 0.5 * RELATIVE_TOL
# The stop rules are tested once per batch of at most _BATCH sweeps, or
# _LONG_BATCH once the running columns have gone _LONG_AFTER sweeps without
# a stop, and a batch keeps at most about _BATCH_ENTRIES coefficients of
# column history.
_BATCH = 16
_LONG_BATCH = 64
_LONG_AFTER = 256
_BATCH_ENTRIES = 1 << 16
# Comparing with a 0-d array skips the conversion of a Python float per call.
_ZERO = np.zeros(())
# A column that passes the step tests is an eigenpair only if its residual is
# at most this times the block's Frobenius norm (stop rule 1).
_RESIDUAL_TOL = 1.0e-9


def iterate_solve(h, state: int, max_iterations: int = 10000) -> PerturbationSolution:
    """Solve one eigenpair of h by the quadratic coefficient iteration.

    max_iterations caps the sweeps.
    """
    check_cap("max_iterations", max_iterations)
    a = as_square_matrix(h)
    check_state(state, a.shape[0])
    block = _component(a != 0.0, state)
    return _sweep(a, block, np.flatnonzero(block == state), max_iterations)[0]


def iterate_solve_all(h, max_iterations: int = 10000) -> list[PerturbationSolution]:
    """Solve every state of h, one sweep per coupling block.

    Failures stay per-state.
    """
    check_cap("max_iterations", max_iterations)
    a = as_square_matrix(h)
    results: list[PerturbationSolution | None] = [None] * a.shape[0]
    for block in _coupling_blocks(a):
        for sol in _sweep(a, block, np.arange(block.size), max_iterations):
            results[sol.state] = sol
    return results


def _coupling_blocks(a: np.ndarray) -> list[np.ndarray]:
    """Connected components of the nonzero pattern of a, in order of their first index."""
    nonzero = a != 0.0
    unseen = np.ones(a.shape[0], dtype=bool)
    blocks = []
    while unseen.any():
        blocks.append(_component(nonzero, int(np.argmax(unseen))))
        unseen[blocks[-1]] = False
    return blocks


def _component(nonzero: np.ndarray, seed: int) -> np.ndarray:
    """Ascending indices of the coupling block of seed, by breadth-first search.

    Rows and columns are both followed because the transformed matrices are
    not symmetric: H[l, k] != 0 alone feeds y[l] and so links l to k.
    Ascending order keeps the degenerate tie-break sign(k - l) of the full
    matrix.
    """
    member = np.zeros(nonzero.shape[0], dtype=bool)
    frontier = member.copy()
    frontier[seed] = True
    while frontier.any():
        member |= frontier
        frontier = (nonzero[frontier].any(axis=0) | nonzero[:, frontier].any(axis=1)) & ~member
    return np.flatnonzero(member)


def _rotate_tied_groups(a: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Diagonalize a in place inside every coupled group of tied diagonal entries.

    A group is a set of positions with exactly equal diagonal entries.  If
    its in-group block is symmetric with a nonzero off-diagonal entry, a
    becomes Q^T a Q with Q the eigenvectors V of that block on the group's
    positions, ascending eigenvalues on ascending positions.  Returns the
    (positions, V) of each rotated group; a column c' of the rotated matrix
    is c = Q c' in the original basis.
    """
    _, group_of, counts = np.unique(np.diag(a), return_inverse=True, return_counts=True)
    rotations = []
    for i in np.flatnonzero(counts > 1):
        g = np.flatnonzero(group_of == i)
        sub = a[np.ix_(g, g)]
        if np.array_equal(sub, sub.T) and sub[~np.eye(g.size, dtype=bool)].any():
            w, v = np.linalg.eigh(sub)
            a[g, :] = v.T @ a[g, :]
            a[:, g] = a[:, g] @ v
            a[np.ix_(g, g)] = np.diag(w)
            rotations.append((g, v))
    return rotations


class _Stack:
    """The running columns of one coupling block: constants, buffers and carry.

    Row j of every m x n array belongs to the state at position ks[j] of the
    block, whose result goes to slots[j].  Everything here depends only on
    that set of states, so the stack is reused from batch to batch and
    rebuilt only when a column stops.  cols[s + 2] is the column after
    sweep s of a batch and hcs[s + 2] its sum_l H[k, l] c[l]; cols[:2] and
    hcs[:2] carry the last two columns of the previous batch and their
    sums, so the energies of a batch are ek + hcs[1:].  The views of each
    sweep are bound once, and every ufunc writes into a buffer.  A stack of
    one column binds 1-D row views of every m x n array and 0-d views of the
    sums, and its products are np.dot; a wider stack keeps the m x n rows
    and the stacked np.matmul.  Both run BLAS gemv and ddot for each
    column, so a column is rounded alike whether it runs alone or not.
    """

    def __init__(self, a: np.ndarray, ks: np.ndarray, slots: np.ndarray, carry, cap: int) -> None:
        m, n = ks.size, a.shape[0]
        diag = np.diag(a)
        self.ks, self.slots = ks, slots
        own = np.arange(m) * n + ks  # entry k of each state's row, flat
        self.ek = diag[ks]
        hk = a[ks]  # H[k, l]
        gap = self.ek[:, None] - diag
        sign = np.where(gap == 0.0, np.sign(ks[:, None] - np.arange(n)), np.sign(gap))
        abs_gap = np.abs(gap)
        # The update's denominator can vanish only where the gap does; s is
        # kept for those entries only if there are any.
        tied = abs_gap == 0.0
        tied.ravel()[own] = False
        gap2 = gap * gap
        vertex = -gap / np.where(hk != 0.0, 2.0 * hk, 1.0)
        # 2 s y / (sqrt(q) + |d|) rounds as s y / ((sqrt(q) + |d|) / 2), one product fewer
        hk4, sign2 = 4.0 * hk, 2.0 * sign
        # On entry k, q = -inf + 0 y[k] < 0, so the vertex root writes its +0.0
        # wherever y[k] is finite.  Up to a column's first stop it is: y[k] =
        # H[k, k] + sum_l H[k, l] c[l] on an input column that passed the guard.
        gap2.ravel()[own] = -np.inf
        hk4.ravel()[own] = 0.0
        vertex.ravel()[own] = 0.0

        # The history holds a long batch, at most cap sweeps, the number left,
        # and about _BATCH_ENTRIES coefficients.
        steps = min(_LONG_BATCH, max(1, _BATCH_ENTRIES // (m * n)), cap)
        self.cols = np.empty((steps + 2, m, n))
        self.hcs = np.empty((steps + 2, m, 1))
        self.cols[:2], self.hcs[:2] = carry
        # One column sweeps 1-D rows with 0-d sums through np.dot; more sweep
        # m x n rows with m x 1 sums through the stacked np.matmul.
        if m == 1:
            self.product, row, vec, left, total, out = np.dot, (n,), (n,), (n,), (), ()
        else:
            self.product, row, vec, left = np.matmul, (m, n), (m, n, 1), (m, 1, n)
            total, out = (m, 1), (m, 1, 1)
        self.diag = np.tile(diag, (m, 1)).reshape(row)
        self.hk, self.hk_left, self.hk4 = hk.reshape(row), hk.reshape(left), hk4.reshape(row)
        self.hck = np.ascontiguousarray(a[:, ks].T).reshape(row)  # H[l, k]
        self.sign2 = sign2.reshape(row)
        self.tie_sign = sign.reshape(row) if tied.any() else None
        self.gap2, self.abs_gap = gap2.reshape(row), abs_gap.reshape(row)
        self.vertex = vertex.reshape(row)
        self.first, self.second, self.work = np.empty(row), np.empty(row), np.empty(row)
        self.work_out = self.work.reshape(vec)
        self.mask = np.empty(row, dtype=bool)
        # the views of each history slot, made once per slot, not per sweep
        rows = list(self.cols.reshape((-1,) + row))
        vecs = list(self.cols.reshape((-1,) + vec))
        sums = [hc.reshape(total) for hc in self.hcs]
        outs = [hc.reshape(out) for hc in self.hcs]
        self.sweeps = list(zip(rows[1:-1], vecs[1:-1], sums[1:-1], rows[2:], vecs[2:], outs[2:]))

    def run(self, a: np.ndarray, steps: int) -> None:
        """Sweep steps times from cols[1]: fill cols[2 : steps + 2] and hcs[2 : steps + 2]."""
        diag, hk, hk4, sign2, hck = self.diag, self.hk, self.hk4, self.sign2, self.hck
        gap2, abs_gap, vertex, tie_sign = self.gap2, self.abs_gap, self.vertex, self.tie_sign
        first, second, work, work_out = self.first, self.second, self.work, self.work_out
        mask, product, hk_left = self.mask, self.product, self.hk_left
        multiply, subtract, add = np.multiply, np.subtract, np.add
        sqrt, divide, equal, less, putmask = np.sqrt, np.divide, np.equal, np.less, np.putmask
        for c, c_vec, hc, new, new_vec, hc_new in self.sweeps[:steps]:
            product(a, c_vec, work_out)
            multiply(diag, c, first)
            multiply(hk, c, second)
            subtract(work, first, work)
            add(hck, work, work)
            subtract(hc, second, second)
            multiply(c, second, second)
            subtract(work, second, work)  # y
            multiply(hk4, work, first)
            multiply(sign2, work, second)
            add(gap2, first, first)  # q
            sqrt(first, work)  # nan where q < 0: the vertex root replaces it
            add(work, abs_gap, work)
            divide(second, work, new)
            if tie_sign is not None:  # elsewhere the denominator is > 0
                equal(work, _ZERO, mask)
                putmask(new, mask, tie_sign)
            less(first, _ZERO, mask)
            putmask(new, mask, vertex)
            product(hk_left, new_vec, hc_new)


def _sweep(
    h: np.ndarray, block: np.ndarray, states: np.ndarray, cap: int
) -> list[PerturbationSolution]:
    """Iterate the target states' columns on one coupling block until each stops.

    block holds the block's indices into h, states the targets' positions
    within it.  Every operation sees only the block submatrix; finished
    columns are scattered back to full length, zero outside the block.
    The columns are stored one state per row, and the products are stacks
    of matrix-vector and dot products rather than one matrix-matrix
    product, or plain ones for a single column, so that every column is
    rounded exactly as when swept alone: the cycle test compares bits, and
    iterate_solve_all must stop each state at the same sweep, with the same
    result, as iterate_solve.
    """
    a = h[np.ix_(block, block)]
    # The residual gate's block-sized products go through einsum, not BLAS:
    # a multithreaded BLAS call per solve cost the 400 x 400 osc2d blocks
    # more than its flops (np.linalg.norm of a block took milliseconds while
    # the other core was busy).
    residual_bound = _RESIDUAL_TOL * np.sqrt(np.einsum("ij,ij->", a, a))
    rotations = _rotate_tied_groups(a)
    results: list[PerturbationSolution | None] = [None] * states.size

    def finish(j: int, column, e: float, it: int, status, detail=None) -> None:
        column = column.copy()
        column[st.ks[j]] = 1.0
        for g, v in rotations:
            column[g] = v @ column[g]
        coefficients = np.zeros(h.shape[0])
        coefficients[block] = column
        results[st.slots[j]] = PerturbationSolution(
            state=int(block[st.ks[j]]),
            energy=float(e),
            coefficients=coefficients,
            iterations=it,
            status=status,
            detail=detail,
        )

    # Divergent columns can push intermediates past the floating-point range
    # before the guard stops them, and they share every array operation with
    # healthy columns; the stopping tests below handle inf/nan correctly, so
    # arithmetic warnings are suppressed rather than surfaced per sweep.  The
    # vertex roots of tiny couplings in _Stack can overflow too.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the last two committed columns and their sums_l H[k, l] c[l]; entry
        # k implicitly 1, kept 0.  nan never compares equal, so no column
        # can match the first one on the first sweep.  The sums are -0.0, as
        # x + -0.0 is x for every x: the first energy is H[k, k] to the bit.
        two_cols = np.zeros((2, states.size, a.shape[0]))
        two_cols[0] = np.nan
        carry = two_cols, np.full((2, states.size, 1), -0.0)
        st = _Stack(a, states, np.arange(states.size), carry, cap)
        it = ran = 0  # ran: sweeps since the last stop
        while True:
            steps = min(len(st.sweeps), cap - it, _BATCH if ran < _LONG_AFTER else _LONG_BATCH)
            st.run(a, steps)

            # The stop rules on every sweep of the batch, one row per sweep.
            cols, hcs = st.cols[: steps + 2], st.hcs[: steps + 2, :, 0]
            news, olds = cols[2:], cols[1:-1]
            energies = st.ek + hcs[1:]
            e0, e1 = energies[:-1], energies[1:]
            converged = np.abs(e1 - e0) <= _HALF_TOL * np.abs(e1 + e0)
            if converged.any():
                hit = np.nonzero(converged)
                o, w = olds[hit], news[hit]
                converged[hit] = ~((np.abs(o - w) - _HALF_TOL * np.abs(o + w)) > _NOISE).any(axis=1)
            # Equal columns have equal sums, whichever stack width computed
            # them, so only those columns are compared whole; so are those
            # whose sum overflowed to nan, which needs |H[k, l]| near 1e300.
            cycling = hcs[2:] == hcs[:-2]
            cycling |= np.isnan(hcs[2:])
            if cycling.any():
                hit = np.nonzero(cycling)
                cycling[hit] = (news[hit] == cols[:-2][hit]).all(axis=1)
            stop = converged | cycling
            blown = None
            if not (-DIVERGENCE_GUARD <= news.min() and news.max() <= DIVERGENCE_GUARD):
                blown = ~(np.abs(news).max(axis=2) <= DIVERGENCE_GUARD)  # nan-safe
                stop |= blown
            if it + steps == cap:
                stop[-1] = True

            # Each column stops at its first stopping sweep; later sweeps are dropped.
            first = stop.argmax(axis=0)
            done = stop.any(axis=0)
            for j in np.flatnonzero(done):
                s = first[j]
                sweep = int(it + s + 1)
                if converged[s, j]:
                    c = news[s, j].copy()
                    c[st.ks[j]] = 1.0
                    r = np.einsum("ij,j->i", a, c) - e1[s, j] * c
                    residual = np.linalg.norm(r) / np.linalg.norm(c)
                    if residual <= residual_bound:
                        finish(j, news[s, j], e1[s, j], sweep, SolveStatus.CONVERGED)
                    else:  # nan-safe
                        finish(j, news[s, j], e1[s, j], sweep, SolveStatus.ALGORITHM_FAILURE,
                               f"stalled: residual {residual:.2e}")
                elif cycling[s, j]:
                    finish(j, news[s, j], e1[s, j], sweep, SolveStatus.ALGORITHM_FAILURE,
                           f"period-2 cycle at sweep {sweep}")
                elif blown is not None and blown[s, j]:
                    finish(j, olds[s, j], e0[s, j], sweep, SolveStatus.ALGORITHM_FAILURE,
                           f"coefficient magnitude exceeded {DIVERGENCE_GUARD:.1e}")
                else:
                    finish(j, news[s, j], e1[s, j], sweep, SolveStatus.MAX_ITERATIONS_EXCEEDED)
            it += steps
            if not done.any():
                ran += steps
                st.cols[:2], st.hcs[:2, :, 0] = cols[-2:], hcs[-2:]
                continue
            keep = ~done
            if not keep.any():
                return results
            # A stop rebuilds the stack for the running rows.  Copy them out,
            # then drop the old stack and the views of its history before the
            # next one is built, so that no buffer is held twice.
            ran = 0
            ks, slots = st.ks[keep], st.slots[keep]
            carry = cols[-2:, keep], hcs[-2:, keep, None]
            del st, cols, news, olds
            st = _Stack(a, ks, slots, carry, cap - it)
