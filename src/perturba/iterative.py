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
quick test.  It writes the energies, their changes |E - E_prev|, their
levels RELATIVE_TOL * |E + E_prev| / 2 and the changes of the sums over
two sweeps into buffers made once per batch length, the last three rows
of one contiguous block that one np.absolute takes whole.  One reduction,
the least of the sums' changes and of the margins change - level, then
decides both tests: where it is above 0, no energy passes its test and no
two sums are equal or nan.  Only otherwise are the energy test's flags
reduced, its candidates tested at their witnesses and then whole, and the
sums' changes reduced alone.  Then the cap and, if nothing holds yet,
within_guard.  Flags are reduced with np.logical_or.reduce, not
ndarray.any, which runs a Python wrapper.  Only a batch with a candidate
left goes on to the full pass, which flags the equal sums, tests the
cycle candidates whole, calls beyond_guard and finds each column's first
stop; so such a batch still runs the guard's two reductions once.  On the
linear oscillator, 16 of the 222 batches do.

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
A stack of one column selects its row k with an int, so that its
constants come out as 1-D rows, with no reshape, and without an exact tie
the sign rule is one np.copysign: it is built in about 30 numpy calls and
one view per history column and array.  Around its sweeps, a one-column
solve pays the checks of its input, the breadth-first search for its
block, the copy of the block and one stack, and per batch the quick
test's nine calls and within_guard's two reductions, the carry's two
copies and the views of its length, bound once.
Each batch takes its length from the sweeps run since the last stop and
fills the front of that history.  A sweep updates a column from that
column's product, which the sweep before it made, and ends with the
product of the column it made, so a one-column solve makes one mat-vec
per sweep and one for its start column.  A batch starts from the last two
columns of the previous one, their sums_l H[k, l] c[l] and the last one's
product, copied to the front of the history, and takes every energy from
those sums.  A stack makes the product of the column it starts from when
it is built, then writes the carried sums over its row k: the start
column's sum is -0.0, as x + -0.0 is x for every x, so its energy is
H[k, k] to the bit, and a guard stop on the first sweep reports that,
where row k of the product is +0.0.  The -0.0 could change only the sign
of a zero y[l] whose product entry is -0.0 too, which a BLAS sum started
at +0.0 never is.
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

import numpy as np

from .linalg import DIVERGENCE_GUARD, RELATIVE_TOL, PerturbationSolution, SolveStatus
from .linalg import as_square_matrix, beyond_guard, check_count, check_state, residual_rows
from .linalg import within_guard

# A coefficient step below a few ulps of the state's own unit coefficient
# is rounding noise, not movement (stop rule 1).
_NOISE = 4.0 * np.finfo(float).eps
# The relative tests compare against the half-sum of successive iterates.
_HALF_TOL = np.full((), 0.5 * RELATIVE_TOL)
# The stop rules are tested once per batch of at most _BATCH sweeps, or
# _LONG_BATCH once the running columns have gone _LONG_AFTER sweeps without
# a stop, and a batch keeps at most about _BATCH_ENTRIES coefficients of
# column history.
_BATCH = 16
_LONG_BATCH = 64
_LONG_AFTER = 256
_BATCH_ENTRIES = 1 << 16
# Comparing with a 0-d array, or multiplying by one, skips the conversion of a
# Python float per call.
_ZERO = np.zeros(())
# np.putmask itself, without the __array_function__ dispatcher in front of it
_PUTMASK = np.putmask._implementation
# The calls of a sweep, bound to names of _Stack.run in one unpacking.
_SWEEP_CALLS = (
    np.multiply, np.subtract, np.add, np.sqrt, np.divide, np.equal, np.less, _PUTMASK
)
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
    return _sweep(a, block, block.searchsorted([state]), max_iterations)[0]


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
    member[seed] = True
    frontier, reached_by = member, np.logical_or.reduce
    while True:
        # the states linked to the frontier, by a row or a column, that are
        # not members yet (True > False)
        frontier = (reached_by(nonzero[frontier], 0) | reached_by(nonzero[:, frontier], 1)) > member
        if not reached_by(frontier, None):
            return np.flatnonzero(member)
        member = member | frontier


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
    ordered = np.sort(a.diagonal())
    if not np.logical_or.reduce(ordered[1:] == ordered[:-1], None):
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
    every m x n array belongs to the state at position ks[j] of the block,
    whose result goes to slots[j]; a stack of one column selects its row
    with an int, so that its constants and buffers are 1-D rows.
    Everything here depends only on that set of states, so the stack is
    reused from batch to batch and rebuilt only when a column stops.
    cols[s + 2] is the column after sweep s of a batch and hcs[s + 2] its
    sum_l H[k, l] c[l]; cols[:2] and hcs[:2] carry the last two columns of
    the previous batch and their sums, so the energies of a batch are
    ek + hcs[1:].  carry holds those two columns and sums for a rebuilt
    stack, and is None for the start columns.  Each sum is entry k of the
    column's product with a, which the sweep that made the column makes;
    the stack makes the product of cols[1] when it is built.  A stack of
    one column keeps a product per history column and reads its sums
    through 0-d views of their entries k; the products are what it
    carries, the rows a batch copies to the front for the next.  A wider
    stack keeps one product, which a batch leaves holding its last column's,
    gathers the sums into hcs with the product's take, and carries hcs.
    Both run BLAS gemv for each column, so a column is rounded alike
    whether it runs alone or not.  The views of each sweep are bound once,
    and every ufunc writes into a buffer; so do the stop rules, through the
    views that batch binds once per batch length.  witness[j] is the entry
    of column j that the step test reads first, one that failed when the
    column was last read whole (refute names new ones), and watch holds its
    flat index in every history column.
    """

    def __init__(
        self, a: np.ndarray, diag: np.ndarray, ks: np.ndarray, slots: np.ndarray,
        witness: np.ndarray, carry, cap: int
    ) -> None:
        m, n = ks.size, a.shape[0]
        self.ks, self.slots, self.witness = ks, slots, witness
        # One column selects its row k with an int, so that every constant
        # and buffer is a 1-D row; more columns take m x n rows.  own is
        # entry k of each row, flat.
        if m == 1:
            own = sel = int(ks[0])
        else:
            own, sel = np.arange(0, m * n, n) + ks, ks
        self.ek = ek = diag[ks]
        hk = a[sel]  # H[k, l], 0 at l = k
        gap = (ek if m == 1 else ek[:, None]) - diag
        # 2 s y / (sqrt(q) + |d|) rounds as s y / ((sqrt(q) + |d|) / 2), one
        # product fewer.  s is the sign of d, or of k - l at a tie, where the
        # denominator can vanish too: s itself is kept for those entries only
        # if there are any.  Entry k of the update is the vertex root's 1
        # (below), so 2 s there is whatever np.copysign gives.
        sign2 = np.copysign(2.0, gap)
        tied = np.equal(gap, 0.0)
        tied.put(own, False)
        tie_sign = None
        if np.logical_or.reduce(tied, None):
            tie_sign = np.sign(ks[:, None] - np.arange(float(n))).reshape(gap.shape)
            _PUTMASK(sign2, tied, 2.0 * tie_sign)
        abs_gap, gap2 = np.absolute(gap), gap * gap
        # The vertex root -d / (2 H[k, l]) is taken only where q < 0, which
        # needs H[k, l] != 0; elsewhere it is whatever the division gives.
        vertex = gap / (-2.0 * hk)
        # On entry k, q = -inf + 0 y[k] < 0, so the vertex root writes the
        # column's 1 back wherever y[k] is finite.  Up to a column's first
        # stop it is: y[k] is the mat-vec's sum_l H[k, l] c[l] less itself,
        # 0, on an input column that passed the guard.
        gap2.put(own, -np.inf)
        vertex.put(own, 1.0)
        first, second, work = np.empty((3,) + gap.shape)
        mask = np.empty(gap.shape, dtype=bool)

        # The history holds a long batch, at most cap sweeps, the number left,
        # and about _BATCH_ENTRIES coefficients.
        self.steps = steps = min(_LONG_BATCH, max(1, _BATCH_ENTRIES // (m * n)), cap)
        self.cols = np.empty((steps + 2, m, n))
        rows = list(self.cols.reshape((-1,) + gap.shape))
        # Column i of the history has its product with a and its sum hcs[i].
        # One column keeps a product per history column, and its sums are
        # 0-d views of their entries k, so hcs is a strided view of them.
        # More columns share one product, gather its entries k into hcs and
        # read them as m x 1 columns where they meet the rows.  The views of
        # the history are made once, by iterating over it.
        if m == 1:
            products = np.empty((steps + 2, n))
            self.hcs, self.carried = products[:, own : own + 1], products
            outs, hc_outs = list(products), [None] * (steps + 2)
            sums = [p[own, ...] for p in products]
            matvec, take = a.dot, None
        else:
            self.hcs = self.carried = np.empty((steps + 2, m))
            product = np.empty((m, n))
            outs, hc_outs = [product] * (steps + 2), list(self.hcs)
            sums = list(self.hcs[:, :, None])
            matvec, take = partial(np.matvec, a), product.take
        # sweep s reads column s + 1, its product and sum, and writes column
        # s + 2 and its product and sum
        self.sweeps = list(zip(rows[1:], outs[1:], sums[1:], rows[2:], outs[2:], hc_outs[2:]))
        self.bound = (
            hk, 4.0 * hk, sign2, gap2, abs_gap, vertex, tie_sign,
            first, second, work, mask, matvec, take, own,
        )
        # The carried column's product is made here; a batch leaves the
        # product of its last column for the next.  The carried sums are
        # written after it: the start column's stays -0.0, where row k of
        # its product is +0.0.
        if carry is None:
            self.cols[0] = np.nan  # never equal: no cycle on the first sweep
            self.cols[1] = 0.0
            rows[1].put(own, 1.0)
            carried_sums = -0.0
        else:
            self.cols[:2], carried_sums = carry
        matvec(rows[1], outs[1])
        self.hcs[:2] = carried_sums

        # the witnesses' flat indices into the history, one row per history
        # column
        self.history_rows = np.arange(0, (steps + 2) * m * n, n).reshape(steps + 2, m)
        self.watch = self.history_rows + witness
        self.batches = {}

    def batch(self, steps: int) -> tuple:
        """The views that the stop rules of a batch of steps sweeps read, bound once per length.

        In order: the history, its new columns and the ones before them; the
        sums of the columns after the first, of the new ones and of the ones
        two sweeps before them; the energies and those before and after each
        sweep; the spread, its first three rows, its first two, each of its
        four rows and its last two; the flags converged, cycling and flag;
        the witnesses' indices, their values and those before and after each
        sweep; and for the carry, the first two history columns and the last
        two, and the same of carried.  The quick test's buffers, a row per
        sweep, are made for each length, so that each of its calls runs over
        one contiguous block.
        """
        views = self.batches.get(steps)
        if views is None:
            m = self.ks.size
            cols, hcs, carried = self.cols[: steps + 2], self.hcs[: steps + 2], self.carried
            energies, watched = np.empty((2, steps + 1, m))
            spread = np.empty((4, steps, m))
            views = self.batches[steps] = (
                cols, cols[2:], cols[1:-1], hcs[1:], hcs[2:], hcs[:-2],
                energies, energies[:-1], energies[1:], spread[:3], spread[:2], *spread, spread[2:],
                *np.empty((3, steps, m), dtype=bool), self.watch[1 : steps + 2], watched,
                watched[:-1], watched[1:], self.cols[:2], cols[-2:], carried[:2],
                carried[steps : steps + 2],
            )
        return views

    def refute(self, columns: np.ndarray, entries: np.ndarray) -> None:
        """Make entries the witnesses of the running columns at positions columns."""
        self.witness[columns] = entries
        np.add(self.history_rows, self.witness, self.watch)

    def run(self, steps: int) -> None:
        """Sweep steps times from cols[1]: fill cols[2 : steps + 2], their products and sums."""
        (hk, hk4, sign2, gap2, abs_gap, vertex, tie_sign,
         first, second, work, mask, matvec, take, own) = self.bound
        multiply, subtract, add, sqrt, divide, equal, less, putmask = _SWEEP_CALLS
        for c, product, hc, new, new_product, hc_out in self.sweeps[:steps]:
            # with product = B c: H[l, k] + sum_{j != k, l} H[l, j] c[j], and
            # on l = k sum_l H[k, l] c[l], whose entry k is hc
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
            matvec(new, new_product)
            if take is not None:
                take(own, None, hc_out, "clip")


def _spread(a: np.ndarray, b: np.ndarray, spread: np.ndarray, change, level) -> None:
    """Write |b - a| into change and RELATIVE_TOL * |b + a| / 2 into level, rows of spread.

    One np.absolute takes every row of spread, so a difference written into
    another row of it beforehand is made absolute as well.
    """
    np.subtract(b, a, change)
    np.add(b, a, level)
    np.absolute(spread, spread)
    np.multiply(level, _HALF_TOL, level)


def _moved(a: np.ndarray, b: np.ndarray, spread=None, out=None) -> np.ndarray:
    """Where a coefficient fails its step test from a to b (stop rule 1); nan passes.

    spread is a buffer of two rows of a's shape, overwritten.
    """
    if spread is None:
        spread = np.empty((2,) + a.shape)
    change, level = spread
    _spread(a, b, spread, change, level)
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
    residual_bound = _RESIDUAL_TOL * math.sqrt(norm2)
    rotations = _rotate_tied_groups(a)
    # The sweeps read the block with its diagonal zeroed, the residual gate
    # with it put back, both in place through a view of the diagonal, so
    # that a solve holds one copy of the block.
    diagonal = a.reshape(-1)[:: a.shape[0] + 1]
    diag = diagonal.copy()
    diagonal[...] = 0.0
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
        st = _Stack(a, diag, states, np.arange(states.size), states.copy(), None, cap)
        it = ran = 0  # ran: sweeps since the last stop
        while True:
            steps = min(st.steps, cap - it, _BATCH if ran < _LONG_AFTER else _LONG_BATCH)
            st.run(steps)

            # The stop rules on every sweep of the batch, one row per sweep.
            # A quick test first: the energy test, with its candidates tested
            # at their witnesses and then whole, equal sums, the cap and the
            # guard on the whole batch.  Only if one of them holds is every
            # column's first stop found.
            it += steps
            (cols, news, olds, sums, new_sums, old_sums, energies, e0, e1,
             spread, pair, change, level, sum_change, margin, tested,
             converged, cycling, flag, watch, watched, w0, w1,
             head, last, carried_head, carried_last) = st.batch(steps)
            np.add(st.ek, sums, energies)
            np.subtract(new_sums, old_sums, sum_change)
            _spread(e0, e1, spread, change, level)  # and |sum_change|
            np.less_equal(change, level, converged)
            # One reduction looks for a candidate of either test.  The energy
            # test holds only where change - level is <= 0 or nan.  Equal
            # columns have equal sums, whichever stack width computed them,
            # so a column can cycle only where its sum's change over two
            # sweeps is 0, or nan, as where a sum overflowed to nan, which
            # needs |H[k, l]| near 1e300.
            np.subtract(change, level, margin)
            candidate = not np.minimum.reduce(tested, None) > 0.0
            may_converge = candidate and np.logical_or.reduce(converged, None)
            if may_converge:
                # Each column's witness, an entry that failed its step test
                # when the column was last tested whole, is tested on every
                # sweep first: where it moved, the column fails too.  Only
                # the rest are tested whole, and a column that fails there
                # names a new witness.  A nan witness passes its step test,
                # as it would in the whole column.
                st.cols.take(watch, None, watched, "clip")
                moved = _moved(w0, w1, pair, flag)
                np.logical_and(converged, np.logical_not(moved, moved), converged)
                may_converge = np.logical_or.reduce(converged, None)
                if may_converge:
                    hit = np.nonzero(converged)
                    moved = _moved(olds[hit], news[hit])
                    failed = moved.any(axis=1)
                    converged[hit] = ~failed
                    st.refute(hit[1][failed], moved[failed].argmax(axis=1))
                    may_converge = not failed.all()
            may_cycle = candidate and not np.minimum.reduce(sum_change, None) > 0.0
            stopping = may_converge or may_cycle or it == cap or not within_guard(news)
            if stopping:
                np.equal(new_sums, old_sums, cycling)
                np.logical_or(cycling, np.isnan(new_sums, flag), cycling)
                if may_cycle:
                    hit = np.nonzero(cycling)
                    cycling[hit] = (news[hit] == cols[:-2][hit]).all(axis=1)
                blown = beyond_guard(news)
                stop = converged | cycling | blown
                if it == cap:
                    stop[-1] = True
                done = np.logical_or.reduce(stop, 0)
                stopping = np.logical_or.reduce(done, None)
            if not stopping:
                # the last two columns, with their sums, and for one column
                # their products, start the next batch
                ran += steps
                head[...] = last
                carried_head[...] = carried_last
                continue

            # Each column stops at its first stopping sweep; later sweeps are dropped.
            first = stop.argmax(axis=0)
            for j in done.nonzero()[0]:
                s = first[j]
                sweep = int(it - steps + s + 1)
                if converged[s, j]:
                    diagonal[...] = diag
                    residual = residual_rows(a, e1[s, j], news[s, j])
                    diagonal[...] = 0.0
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
            if np.logical_and.reduce(done, None):
                return results
            # A stop rebuilds the stack for the running rows, which only a
            # stack of more columns has.  Copy them out, then drop the old
            # stack and the views of its history before the next one is
            # built, so that no history is held twice.
            ran, keep = 0, ~done
            ks, slots, witness = st.ks[keep], st.slots[keep], st.witness[keep]
            carry = last[:, keep], carried_last[:, keep]
            del st, cols, news, olds, head, last
            st = _Stack(a, diag, ks, slots, witness, carry, cap - it)
