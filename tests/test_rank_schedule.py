"""The rank pass on a height schedule (`spatial._forward_pass` with `live`)
against a verbatim copy of the pass it replaced, which ran every member
through every column until every row held a pivot.

Members come tallest first and `live[p]` counts those taller than p rows;
a member that has pivoted in all of its rows leaves the lock step, and the
pass ends when no member is left.  Every member must keep the earlier
pass's bits, signed zeros included, and its rank: on the benchmark's sweep
model at seeds 1-3 and its 16 configurations, as the kinematic plan runs
it, and on generated batches with rank-deficient members, members whose
nonzero rows end before their height (so they run out of rows out of
height order), all-zero members, and the solve's pass that stops at the
first refusal.
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import perfbench_workloads
from test_elimination_kernel import TOLERANCES
from test_elimination_routes import route_counts
from urdfplus.constraints import RANK_TOL, _eliminated
from urdfplus.spatial import _forward_pass, _row_reduce_batch

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
extra = pytest.importorskip("hypothesis.extra.numpy")


# -- the pass before the height schedule, copied verbatim ----------------------


def forward_pass_before(a: np.ndarray, thresholds, stop_at_refusal: bool = False) -> np.ndarray:
    """Forward elimination with partial pivoting of a batch of matrices
    (members, rows, cols) in lock step, in place; returns their ranks.

    In each column c < len(thresholds) (later ones are carried along), every
    member takes the largest entry at or below its next pivot row, accepts
    it when it exceeds its entry of thresholds[c], swaps it into place and
    eliminates below it; every other row keeps its bits.  While every member
    has accepted every column, a column needs no mask.  With
    stop_at_refusal the pass ends after the first column that some member
    refuses, leaving that member as it was."""
    count, rows, cols = a.shape
    if not a.size:  # no member, row or column: nothing to eliminate
        return np.zeros(count, dtype=np.intp)
    t = a.transpose(1, 0, 2).copy()  # row r of member k is by_id[r * count + k]
    by_id = t.reshape(rows * count, cols)
    ids = np.arange(rows * count).reshape(rows, count)
    slot = np.arange(count)  # the id of each member's next pivot row
    lead = 0  # every member has pivoted in each of the first `lead` columns
    for col, threshold in enumerate(thresholds):
        if lead == rows:  # every row holds a pivot
            break
        column = np.abs(t[lead:, :, col])  # the rows above `lead` hold pivots
        if lead < col:  # a member has refused a column: hide its later pivot rows
            column[ids[lead:] < slot] = -1.0
        pivot = column.argmax(axis=0) * count + ids[0]  # ids[0]: the member indices
        accept = column.take(pivot) > threshold
        pivot += lead * count
        accepted = np.count_nonzero(accept)
        if accepted == count and lead == col:  # unmasked: slot is ids[lead]
            pivot_rows = by_id.take(pivot, axis=0)
            by_id[pivot] = t[lead]
            t[lead] = pivot_rows
            rest = t[lead + 1 :]
            rest -= rest[:, :, col, None] / pivot_rows[:, col, None] * pivot_rows
            rest[:, :, col] = 0.0
            slot += count
            lead += 1
        elif accepted:  # masked: only rows below an accepted pivot get factors and products
            pivot_rows = by_id.take(pivot, axis=0)
            dest = np.where(accept, slot, pivot)  # a member that refuses keeps its rows
            by_id[pivot] = by_id.take(dest, axis=0)
            by_id[dest] = pivot_rows
            rest = t[lead + 1 :]  # the rows below every member's pivot
            below = ids[lead + 1 :] > np.where(accept, slot, ids.size)
            where = below[:, :, None]  # elsewhere x - 0.0 * p can turn -0.0 into 0.0
            # out=None: unset outside `where`, and never read there
            factors = np.divide(rest[:, :, col, None], pivot_rows[:, col, None], out=None,
                                where=where)
            np.subtract(rest, np.multiply(factors, pivot_rows, out=None, where=where),
                        out=rest, where=where)
            rest[:, :, col][below] = 0.0
            np.add(slot, count, out=slot, where=accept)
        if stop_at_refusal and accepted < count:
            break
    a[...] = t.transpose(1, 0, 2)
    return slot // count


# -- checks ----------------------------------------------------------------------


def schedule(heights):
    """`live` of members of these heights, tallest first."""
    return tuple(sum(h > p for h in heights) for p in range(max(heights, default=0) + 1))


def check_against_before(batch, tol, live):
    """The scheduled pass and the one before it on copies of `batch`: the
    same reduced batch, byte for byte, and the same ranks."""
    threshold = tol * np.abs(batch).max(axis=(1, 2), initial=0.0)
    want = batch.copy()
    with np.errstate(all="ignore"):
        want_ranks = forward_pass_before(want, [threshold] * batch.shape[2])
        got = batch.copy()
        got_ranks = _row_reduce_batch(got, tol, live)
    assert got_ranks.dtype == want_ranks.dtype
    assert got_ranks.tolist() == want_ranks.tolist()
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sweep_batches_keep_the_bits(seed, monkeypatch):
    """The plan's lock-step members of the sweep model, as `_Record.eliminated`
    reduces them: every column unmasked, and no column after the tallest
    member's last row; the record's reduced batch and ranks equal the
    earlier pass's over the same members."""
    workloads = perfbench_workloads(monkeypatch)
    _, numbered, graph, _, qs = workloads.sweep_model(seed, workloads.SWEEP_BODIES,
                                                     workloads.SWEEP_LOOPS)
    groups = numbered._kinematics.check(graph).groups
    assert list(groups.live) == sorted(groups.live, reverse=True) and groups.live[-1] == 0
    assert groups.live[0] == len(groups.lock_step) and groups.live[-2] < groups.live[0]
    for q in qs:
        record, reduced, ranks = _eliminated(numbered, graph, q, RANK_TOL)
        batch = record.rows.take(groups.lock_step, axis=0)
        with route_counts() as counts:
            check_against_before(batch, RANK_TOL, groups.live)
        assert counts == {"unmasked": len(groups.live) - 1, "masked": 0}
        want = record.rows.copy()
        threshold = RANK_TOL * np.abs(batch).max(axis=(1, 2), initial=0.0)
        want_ranks = np.zeros(len(want), dtype=np.intp)
        want_ranks[groups.lock_step] = forward_pass_before(batch, [threshold] * batch.shape[2])
        want[groups.lock_step] = batch
        first = want[groups.one_row, :1]
        largest = np.abs(first).max(axis=(1, 2), initial=0.0)
        want_ranks[groups.one_row] = largest > RANK_TOL * largest
        assert reduced.tobytes() == want.tobytes()
        assert ranks.tolist() == want_ranks.tolist()


# small integers make exact ties, cancellations and rank deficiency common;
# magnitudes stay within [1e-6, 1e3], so no elimination step overflows
ENTRIES = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-1e3, 1e3).filter(lambda v: v == 0.0 or abs(v) >= 1e-6),
    st.just(-0.0),
)
KINDS = ("any", "rank-deficient", "ends early", "zero")


@st.composite
def scheduled_batches(draw):
    """A zero-padded batch of members tallest first, and their heights: each
    member any matrix of its height, one with a row that repeats a multiple
    of an earlier one, one whose nonzero rows end before its height, or an
    all-zero one."""
    cols = draw(st.integers(1, 6))
    heights = sorted(draw(st.lists(st.integers(0, 6), min_size=1, max_size=6)), reverse=True)
    batch = np.zeros((len(heights), max(heights), cols))
    for k, height in enumerate(heights):
        member = draw(extra.arrays(float, (height, cols), elements=ENTRIES))
        kind = draw(st.sampled_from(KINDS))
        if kind == "rank-deficient" and height > 1:
            row = draw(st.integers(1, height - 1))
            scale = draw(st.sampled_from([-2.0, 1.0, 0.5]))
            member[row] = member[draw(st.integers(0, row - 1))] * scale
        elif kind == "ends early" and height:
            member[draw(st.integers(0, height - 1)) :] = draw(st.sampled_from([0.0, -0.0]))
        elif kind == "zero":
            member[...] = 0.0
        batch[k, :height] = member
    return batch, heights


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(scheduled_batches(), st.sampled_from(TOLERANCES))
def test_scheduled_batches_keep_the_bits(drawn, tol):
    batch, heights = drawn
    check_against_before(batch, tol, schedule(heights))


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(scheduled_batches(), st.data())
def test_pass_stopping_at_refusal_keeps_the_bits(drawn, data):
    """With no schedule, as the solve for G runs it: per-column thresholds,
    zero in some columns (as for the solve's identity lead), and the pass
    stops after the first column some member refuses."""
    batch, _ = drawn
    count, _, cols = batch.shape
    thresholds = [np.array(data.draw(st.lists(st.sampled_from([0.0, 1e-3, 0.5, 2.0]),
                                              min_size=count, max_size=count)))
                  for _ in range(cols)]
    want, got = batch.copy(), batch.copy()
    want_ranks = forward_pass_before(want, thresholds, stop_at_refusal=True)
    got_ranks = _forward_pass(got, thresholds, stop_at_refusal=True)
    assert got_ranks.tolist() == want_ranks.tolist()
    assert got.tobytes() == want.tobytes()


def test_a_short_member_leaves_the_lock_step_unmasked():
    """A full 3 x 3 member beside one whose only row pivots in column 0: the
    earlier pass took one unmasked column and two masked ones; on the
    schedule the short member leaves after column 0, and all three columns
    are unmasked, with the same bits."""
    rng = np.random.default_rng(5)
    batch = np.zeros((2, 3, 3))
    batch[0] = rng.normal(size=(3, 3))
    batch[1, 0] = rng.normal(size=3)
    with route_counts() as counts:
        check_against_before(batch, RANK_TOL, schedule([3, 1]))
    assert counts == {"unmasked": 3, "masked": 0}
