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
swept together, so a sweep costs one matrix-vector product per column and
one pass of elementwise operations for every state still running.  Columns
never mix: iterate_solve is the sweep of one column, iterate_solve_all one
sweep per coupling block over all its states, and a column leaves the sweep
at the end of the batch (below) in which it stops.  Both see the same block
submatrix, so they give the same result per state.  A column stops when

1. converged: |E - E_prev| <= RELATIVE_TOL * |E + E_prev| / 2, and
   the same test passes for every coefficient.  A coefficient step that
   misses its test by less than 4 ulps of 1, the state's own coefficient,
   is rounding noise and passes: tiny coefficients jitter at that level in
   relative terms forever.  The column is then CONVERGED if its residual
   |H c - E c| / |c| on the block is at most 1e-9 times the block's
   Frobenius norm; otherwise it has stalled on no eigenpair
   (ALGORITHM_FAILURE).  The residual is measured by linalg.residual_rows,
   the rule of residual_norm.  The rotation below is orthogonal, so the
   residual is the same in the rotated basis;
2. cycle: it failed the tests and its new column equals exactly the column
   from two sweeps back.  The update depends only on the committed column and
   both tests are symmetric, so it would alternate unconverged until the cap
   (ALGORITHM_FAILURE);
3. guard: a new coefficient is non-finite or exceeds DIVERGENCE_GUARD in
   magnitude (ALGORITHM_FAILURE);
4. cap: max_iterations sweeps have run (MAX_ITERATIONS_EXCEEDED).

The first rule in this order that holds wins.  The guard keeps the last
committed column and its energy, so every reported column is finite; the
failures carry their reason in detail.  RELATIVE_TOL and DIVERGENCE_GUARD
are linalg's, the expansion's as well.

Every rule is relative or reads the dimensionless coefficients, so h
times a power of two gives the same sweeps, statuses and coefficients, and
energies scaled by that power.  A block whose squared Frobenius norm is
below 1 is swept as the block times 2**-e, with e the exponent of its
largest entry, as the Jacobi oracle does: otherwise d^2 + 4 H[k, l] y[l]
and the squared norm of the residual gate underflow on entries near
1e-162, still inside the input range.  Its energies and the residual of a
stalled column are scaled back by 2**e.

The rules are tested once per batch of sweeps, not after every sweep: the
batch keeps every column it computes, the rules are evaluated on all of its
sweeps at once, and each column stops at its first stopping sweep.  The
sweeps a column ran past that point are discarded, so every result, down to
the bits and the sweep count, is the one that testing after every sweep
gives.  A batch is 16 sweeps, so that a run stopping after a dozen sweeps
wastes few; once the running columns have gone 256 sweeps without a stop,
batches are 64 sweeps, so that a long run tests the rules a quarter as
often.  A batch never runs past the cap, and on wide blocks it is shorter,
so that its column history stays within a fixed size.  The step, cycle
and guard tests read whole columns only where they can hold.  The step
test reads them only where the energy test passes, and first reads one
witness per column: the index of a coefficient that failed its step test
when the column was last tested whole, at first the state's own entry,
which never moves.  One take of the history gathers the witnesses of every
sweep of the batch; where a witness moved, its column fails the step test
without being read, and a column that fails when read whole names its
first failing entry as its new witness.  A nan witness refutes nothing, as
a nan step passes the test.  On the linear oscillator at beta 0.5 and dim
30, states 13, 14 and 15 pass the energy test on every sweep from sweeps
1,553, 7,995 and 9,589 on, while their coefficients move by 0.1-0.25 a
sweep: 202 of the solve's 222 batches have an energy candidate, and 25 of
them read columns whole.  Equal columns have equal sums_l H[k, l] c[l],
whichever stack width computed them (below), so the cycle test compares a
column with the one from two sweeps back only where their sums are equal
or nan; the batch carries the last two sums as well as the last two
columns, so this holds on its first sweep too.  The guard is
linalg.beyond_guard, the expansion's as well: it first compares the
batch's largest and smallest coefficient with DIVERGENCE_GUARD
(linalg.within_guard), and takes the per-column maxima only when either
is outside or nan.  Most batches stop no column, so a batch first runs a
quick test: the energy test with its witnesses and whole columns, the
equal sums, the cap, and only if none of them holds, within_guard.  It
writes its energies, their changes and half-sums, and its flags into
buffers of the stack, through views bound once per batch length, and
reduces the flags with np.logical_or.reduce, not ndarray.any, which runs
a Python wrapper.  Only a batch with a candidate left goes on to the full
pass, which tests the cycle candidates whole, calls beyond_guard and finds
each column's first stop; so such a batch still runs the guard's two
reductions once.  On the linear oscillator, 16 of the 222 batches do.

A column carries c[k] as 1, and the sweeps read the block B with its
diagonal zeroed, so that one matrix-vector product gives the whole linear
part of the update, (B c)[l] = H[l, k] + sum_{j != k, l} H[l, j] c[j], and
y = B c - c * (sum_l H[k, l] c[l] - H[k, l] c[l]).  Row k of that product
is (B c)[k] = sum_l H[k, l] c[l] itself, so the sum of every column, the
one its update needs and the one its energy is, is read off the product,
with no dot product of its own.  On entry k, q is set to -inf and the
vertex root to 1, so the update writes the 1 back.  The diagonal is zeroed
in place on the block, which is a copy of the caller's matrix, and put back
only around the residual gate, which reads the block itself.

The sweeps run in one stack object per set of running columns, built when
the sweep starts and rebuilt when a column stops: the constants of the
update, a column history sized for a 64-sweep batch, every intermediate
array, and the views each sweep reads and writes, bound once, so that a
one-column sweep is 13 numpy calls (15 on a block with an exact tie), a
wider one 14 (16), none of them through an __array_function__ dispatcher.
Each batch takes its length from the sweeps run since the last stop and
fills the front of that history.  A batch starts by copying the last two
columns of the previous one and their sums_l H[k, l] c[l] to the front of
the history, and takes every energy from those sums.  A sweep reads the
sum of the column it updates off its own mat-vec, so the sum of a batch's
last column costs one more product, and the first sweep of a batch writes
its product aside, so that the carried sum stays: the start column's is
-0.0, as x + -0.0 is x for every x, and a guard stop on the first sweep
reports H[k, k] to the bit, where row k of the product would be +0.0.
Each elementwise product, H[k, l] * c, 4 H[k, l] * y and 2 s * y, is its
own call on factors stored at the shape of the columns: numpy takes about
three times as long over a call that broadcasts its operands.  A stack of
one column, which is every iterate_solve and an iterate_solve_all block
once one column is left running, works on 1-D rows, writes each sweep's
product into a slot of its own through the dot method of the block, bound
once per stack, and reads the sum through a 0-d view of its entry k, with
no copy.  A wider stack hands its m x n rows to np.matvec, a gufunc, as
they are, and gathers their entries k with the bound take method of the
product, one call more: np.take, through its dispatcher, took three times
as long at m = n = 30.  Both
products run the BLAS gemv kernel for each column, so a column is rounded
the same whichever stack it runs in.  At 14 calls, the cost left in a
one-column sweep was not their number but the __array_function__
dispatcher that np.dot and np.putmask pass their arguments through: at
n = 50, on a 2-vCPU host, it took a quarter or more of each call's time.
So a sweep calls ndarray.dot and the implementation behind np.putmask
directly, the same BLAS and masking code.
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

import math
from functools import partial
from types import SimpleNamespace

import numpy as np

from .linalg import DIVERGENCE_GUARD, RELATIVE_TOL, PerturbationSolution, SolveStatus
from .linalg import as_square_matrix, beyond_guard, check_count, check_state, residual_rows
from .linalg import within_guard

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
# np.putmask itself, without the __array_function__ dispatcher in front of it
_PUTMASK = np.putmask._implementation
# A column that passes the step tests is an eigenpair only if its residual is
# at most this times the block's Frobenius norm (stop rule 1).
_RESIDUAL_TOL = 1.0e-9


def iterate_solve(h, state: int, max_iterations: int = 10000) -> PerturbationSolution:
    """Solve one eigenpair of h by the quadratic coefficient iteration.

    max_iterations caps the sweeps.
    """
    check_count("max_iterations", max_iterations, 1)
    a = as_square_matrix(h)
    check_state(state, a.shape[0])
    block = _component(a != 0.0, state)
    return _sweep(a, block, np.flatnonzero(block == state), max_iterations)[0]


def iterate_solve_all(h, max_iterations: int = 10000) -> list[PerturbationSolution]:
    """Solve every state of h, one sweep per coupling block.

    Failures stay per-state.
    """
    check_count("max_iterations", max_iterations, 1)
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
    is c = Q c' in the original basis.  A diagonal without an exact tie
    returns before np.unique.
    """
    ordered = np.sort(np.diag(a))
    if not (ordered[1:] == ordered[:-1]).any():
        return []
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

    a is the block with its diagonal zeroed, diag that diagonal.  Row j of
    every m x n array belongs to the state at position ks[j] of the
    block, whose result goes to slots[j].  Everything here depends only on
    that set of states, so the stack is reused from batch to batch and
    rebuilt only when a column stops.  cols[s + 2] is the column after
    sweep s of a batch and hcs[s + 2] its sum_l H[k, l] c[l]; cols[:2] and
    hcs[:2] carry the last two columns of the previous batch and their
    sums, so the energies of a batch are ek + hcs[1:].  Each sum is entry k
    of the column's product with a, and the batch's last column takes one
    more product for it.  The views of each sweep are bound once, and every
    ufunc writes into a buffer; so do the stop rules, through the views
    that batch binds once per batch length.  witness[j] is the entry of
    column j that the step test reads first, one that failed when the
    column was last read whole (refute names new ones), and watch holds its
    flat index in every history column.  A stack of one column binds 1-D
    row views of every m x n array, a product slot per history column and
    0-d views of their entries k as the sums; a wider stack takes its m x n
    rows to np.matvec and gathers the sums with work.take.  Both run BLAS
    gemv for each column, so a column is rounded alike whether it runs
    alone or not.
    """

    def __init__(
        self, a: np.ndarray, diag: np.ndarray, ks: np.ndarray, slots: np.ndarray,
        witness: np.ndarray, carry, cap: int
    ) -> None:
        m, n = ks.size, a.shape[0]
        self.ks, self.slots, self.witness = ks, slots, witness
        self.own = own = np.arange(m) * n + ks  # entry k of each state's row, flat
        self.ek = diag[ks]
        hk = a[ks]  # H[k, l], 0 at l = k
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
        # On entry k, q = -inf + 0 y[k] < 0, so the vertex root writes the
        # column's 1 back wherever y[k] is finite.  Up to a column's first
        # stop it is: y[k] is the mat-vec's sum_l H[k, l] c[l] less itself,
        # 0, on an input column that passed the guard.
        gap2.ravel()[own] = -np.inf
        vertex.ravel()[own] = 1.0

        # The history holds a long batch, at most cap sweeps, the number left,
        # and about _BATCH_ENTRIES coefficients.
        steps = min(_LONG_BATCH, max(1, _BATCH_ENTRIES // (m * n)), cap)
        self.cols = np.empty((steps + 2, m, n))
        row = (n,) if m == 1 else (m, n)
        self.hk, self.hk4 = hk.reshape(row), hk4.reshape(row)
        self.sign2 = sign2.reshape(row)
        self.tie_sign = sign.reshape(row) if tied.any() else None
        self.gap2, self.abs_gap = gap2.reshape(row), abs_gap.reshape(row)
        self.vertex = vertex.reshape(row)
        self.first, self.second, self.work = np.empty(row), np.empty(row), np.empty(row)
        self.mask = np.empty(row, dtype=bool)
        # Column i of the history has product slot i and sum hcs[i]; the
        # first sweep of a batch multiplies cols[1] into the spare last slot,
        # so that the sum carried in hcs[1] stays.  One column's sums are 0-d
        # views of entry k of its slots, so hcs is a strided view of them;
        # more columns share work as their slot, gather their sums into hcs
        # and read them as m x 1 columns where they meet the rows.  The views
        # of the history slots are made once, by iterating over the history.
        rows = list(self.cols.reshape((-1,) + row))
        if m == 1:
            k = int(ks[0])
            products = np.empty((steps + 3, n))
            self.hcs = products[:, k : k + 1]
            self.matvec, self.take = a.dot, None
            outs, hc_outs = list(products), [None] * (steps + 3)
            sums = [p[k, ...] for p in products]
        else:
            self.hcs = np.empty((steps + 3, m))
            self.matvec, self.take = partial(np.matvec, a), self.work.take
            outs, hc_outs = [self.work] * (steps + 3), list(self.hcs)
            sums = list(self.hcs[:, :, None])
        self.cols[:2], self.hcs[:2] = carry
        slots_of = list(zip(rows, outs, hc_outs, sums))
        reads = [(rows[1], outs[-1], hc_outs[-1], sums[-1]), *slots_of[2:]]
        self.sweeps = [(*read, new) for read, new in zip(reads, rows[2:])]
        # the sum of a batch's last column costs one more product
        self.ends = [slot[:3] for slot in slots_of]

        # The quick test's buffers, a row per sweep of a batch: the energies,
        # their changes and half-sums, and the flags.
        self.energies = np.empty((steps + 1, m))
        self.change, self.level = np.empty((steps, m)), np.empty((steps, m))
        self.converged, self.cycling, self.flag = np.empty((3, steps, m), dtype=bool)
        # the witnesses' flat indices into the history, one row per history
        # column, and their values
        self.history_rows = np.arange(0, (steps + 2) * m * n, n).reshape(steps + 2, m)
        self.watch = self.history_rows + witness
        self.watched = np.empty((steps + 1, m))
        self.batches = {}

    def batch(self, steps: int) -> SimpleNamespace:
        """The views that the stop rules of a batch of steps sweeps read, made once per length."""
        views = self.batches.get(steps)
        if views is None:
            cols, hcs = self.cols[: steps + 2], self.hcs[: steps + 2]
            energies, watched = self.energies[: steps + 1], self.watched[: steps + 1]
            views = self.batches[steps] = SimpleNamespace(
                cols=cols, news=cols[2:], olds=cols[1:-1],
                hcs=hcs, sums=hcs[1:], new_sums=hcs[2:], old_sums=hcs[:-2],
                energies=energies, e0=energies[:-1], e1=energies[1:],
                change=self.change[:steps], level=self.level[:steps], flag=self.flag[:steps],
                converged=self.converged[:steps], cycling=self.cycling[:steps],
                watch=self.watch[1 : steps + 2], watched=watched, w0=watched[:-1], w1=watched[1:],
            )
        return views

    def refute(self, columns: np.ndarray, entries: np.ndarray) -> None:
        """Make entries the witnesses of the running columns at positions columns."""
        self.witness[columns] = entries
        np.add(self.history_rows, self.witness, self.watch)

    def run(self, steps: int) -> None:
        """Sweep steps times from cols[1]: fill cols[2 : steps + 2] and hcs[2 : steps + 2]."""
        hk, hk4, sign2 = self.hk, self.hk4, self.sign2
        gap2, abs_gap, vertex, tie_sign = self.gap2, self.abs_gap, self.vertex, self.tie_sign
        first, second, work, mask = self.first, self.second, self.work, self.mask
        matvec, take, own = self.matvec, self.take, self.own
        multiply, subtract, add = np.multiply, np.subtract, np.add
        sqrt, divide, equal, less, putmask = np.sqrt, np.divide, np.equal, np.less, _PUTMASK
        for c, product, hc_out, hc, new in self.sweeps[:steps]:
            # H[l, k] + sum_{j != k, l} H[l, j] c[j], and on l = k sum_l H[k, l] c[l]
            matvec(c, product)
            if take is not None:
                take(own, None, hc_out, "clip")
            multiply(hk, c, second)
            subtract(hc, second, second)
            multiply(c, second, second)
            subtract(product, second, work)  # y
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
        c, product, hc_out = self.ends[steps + 1]
        matvec(c, product)
        if take is not None:
            take(own, None, hc_out, "clip")


def _spread(a: np.ndarray, b: np.ndarray, change=None, level=None) -> tuple:
    """|b - a| and RELATIVE_TOL * |b + a| / 2, written into change and level if given."""
    change = np.subtract(b, a, change)
    level = np.add(b, a, level)
    np.absolute(change, change)
    np.multiply(np.absolute(level, level), _HALF_TOL, level)
    return change, level


def _moved(a: np.ndarray, b: np.ndarray, change=None, level=None, out=None) -> np.ndarray:
    """Where a coefficient fails its step test from a to b (stop rule 1); nan passes.

    change and level are _spread's buffers, overwritten.
    """
    change, level = _spread(a, b, change, level)
    return np.greater(np.subtract(change, level, change), _NOISE, out)


def _sweep(
    h: np.ndarray, block: np.ndarray, states: np.ndarray, cap: int
) -> list[PerturbationSolution]:
    """Iterate the target states' columns on one coupling block until each stops.

    block holds the block's indices into h, states the targets' positions
    within it.  Every operation sees only the block submatrix; finished
    columns are scattered back to full length, zero outside the block.
    The columns are stored one state per row, and the products are one
    matrix-vector product per column rather than one matrix-matrix
    product, so that every column is rounded exactly as when
    swept alone: the cycle test compares bits, and iterate_solve_all must
    stop each state at the same sweep, with the same result, as
    iterate_solve.
    """
    a = h[np.ix_(block, block)]
    # The block's squared norm goes through einsum, not BLAS: a multithreaded
    # BLAS call per solve cost the 400 x 400 osc2d blocks more than its flops
    # (np.linalg.norm of a block took milliseconds while the other core was
    # busy).
    norm2 = np.einsum("ij,ij->", a, a)
    # a tiny block is swept scaled up by a power of two, exactly
    scale = math.frexp(float(np.max(np.abs(a))))[1] if norm2 < 1.0 else 0
    if scale:
        np.ldexp(a, -scale, out=a)
        norm2 = np.einsum("ij,ij->", a, a)
    residual_bound = _RESIDUAL_TOL * np.sqrt(norm2)
    rotations = _rotate_tied_groups(a)
    # The sweeps read the block with its diagonal zeroed, the residual gate
    # with it put back, both in place, so that a solve holds one copy of the
    # block.
    diag = a.diagonal().copy()
    np.fill_diagonal(a, 0.0)
    results: list[PerturbationSolution | None] = [None] * states.size

    def finish(j: int, column, e: float, it: int, status, detail=None) -> None:
        coefficients = np.zeros(h.shape[0])
        coefficients[block] = column
        for g, v in rotations:
            coefficients[block[g]] = v @ column[g]
        results[st.slots[j]] = PerturbationSolution(
            state=int(block[st.ks[j]]),
            energy=math.ldexp(e, scale),
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
        # the last two committed columns and their sums_l H[k, l] c[l], with
        # c[k] = 1.  nan never compares equal, so no column can match the
        # first one on the first sweep.  The sums are -0.0, as x + -0.0 is x
        # for every x: the first energy is H[k, k] to the bit.
        two_cols = np.zeros((2, states.size, a.shape[0]))
        two_cols[0] = np.nan
        two_cols[1, np.arange(states.size), states] = 1.0
        carry = two_cols, np.full((2, states.size), -0.0)
        st = _Stack(a, diag, states, np.arange(states.size), states.copy(), carry, cap)
        it = ran = 0  # ran: sweeps since the last stop
        while True:
            steps = min(len(st.sweeps), cap - it, _BATCH if ran < _LONG_AFTER else _LONG_BATCH)
            st.run(steps)

            # The stop rules on every sweep of the batch, one row per sweep.
            # A quick test first: the energy test, with its candidates tested
            # at their witnesses and then whole, equal sums, the cap and the
            # guard on the whole batch.  Only if one of them holds is every
            # column's first stop found.
            it += steps
            v = st.batch(steps)
            cols, hcs, news, olds, e0, e1 = v.cols, v.hcs, v.news, v.olds, v.e0, v.e1
            np.add(st.ek, v.sums, v.energies)
            _spread(e0, e1, v.change, v.level)
            converged = np.less_equal(v.change, v.level, v.converged)
            # Equal columns have equal sums, whichever stack width computed
            # them, so only those columns are compared whole; so are those
            # whose sum overflowed to nan, which needs |H[k, l]| near 1e300.
            cycling = np.equal(v.new_sums, v.old_sums, v.cycling)
            np.logical_or(cycling, np.isnan(v.new_sums, v.flag), cycling)
            may_converge = np.logical_or.reduce(converged, None)
            if may_converge:
                # Each column's witness, an entry that failed its step test
                # when the column was last tested whole, is tested on every
                # sweep first: where it moved, the column fails too.  Only
                # the rest are tested whole, and a column that fails there
                # names a new witness.  A nan witness passes its step test,
                # as it would in the whole column.
                st.cols.take(v.watch, None, v.watched, "clip")
                moved = _moved(v.w0, v.w1, v.change, v.level, v.flag)
                np.logical_and(converged, np.logical_not(moved, moved), converged)
                may_converge = np.logical_or.reduce(converged, None)
                if may_converge:
                    hit = np.nonzero(converged)
                    moved = _moved(olds[hit], news[hit])
                    failed = moved.any(axis=1)
                    converged[hit] = ~failed
                    st.refute(hit[1][failed], moved[failed].argmax(axis=1))
                    may_converge = not failed.all()
            may_cycle = np.logical_or.reduce(cycling, None)
            stopping = may_converge or may_cycle or it == cap or not within_guard(news)
            if stopping:
                if may_cycle:
                    hit = np.nonzero(cycling)
                    cycling[hit] = (news[hit] == cols[:-2][hit]).all(axis=1)
                blown = beyond_guard(news)
                stop = converged | cycling | blown
                if it == cap:
                    stop[-1] = True
                done = stop.any(axis=0)
                stopping = done.any()
            if not stopping:
                ran += steps
                st.cols[:2], st.hcs[:2] = cols[-2:], hcs[-2:]
                continue

            # Each column stops at its first stopping sweep; later sweeps are dropped.
            first = stop.argmax(axis=0)
            for j in np.flatnonzero(done):
                s = first[j]
                sweep = int(it - steps + s + 1)
                if converged[s, j]:
                    np.fill_diagonal(a, diag)
                    residual = residual_rows(a, e1[s, j], news[s, j])
                    np.fill_diagonal(a, 0.0)
                    if residual <= residual_bound:
                        finish(j, news[s, j], e1[s, j], sweep, SolveStatus.CONVERGED)
                    else:  # nan-safe
                        finish(j, news[s, j], e1[s, j], sweep, SolveStatus.ALGORITHM_FAILURE,
                               f"stalled: residual {math.ldexp(residual, scale):.2e}")
                elif cycling[s, j]:
                    finish(j, news[s, j], e1[s, j], sweep, SolveStatus.ALGORITHM_FAILURE,
                           f"period-2 cycle at sweep {sweep}")
                elif blown[s, j]:
                    finish(j, olds[s, j], e0[s, j], sweep, SolveStatus.ALGORITHM_FAILURE,
                           f"coefficient magnitude exceeded {DIVERGENCE_GUARD:.1e}")
                else:
                    finish(j, news[s, j], e1[s, j], sweep, SolveStatus.MAX_ITERATIONS_EXCEEDED)
            keep = ~done
            if not keep.any():
                return results
            # A stop rebuilds the stack for the running rows.  Copy them out,
            # then drop the old stack and the views of its history before the
            # next one is built, so that no buffer is held twice.
            ran = 0
            ks, slots, witness = st.ks[keep], st.slots[keep], st.witness[keep]
            carry = cols[-2:, keep], hcs[-2:, keep]
            del st, v, cols, news, olds
            st = _Stack(a, diag, ks, slots, witness, carry, cap - it)
