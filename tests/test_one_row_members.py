"""One-row members of the loop groups' batch skip the lock-step elimination.

A member whose rows past its first are +0.0 padding (a coupling's own
group, or a coupling's own member beside a larger group) gets rank
int(max|row| > tol * max|row|) and keeps its row: the bits the lock step
gives it.  The oracle is `_row_reduce_batch` over the full batch, which
`tests/test_elimination_kernel.py` pins to the verbatim one-matrix
elimination: the ranks and the reduced batch must be byte-equal.
"""

from __future__ import annotations

from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import urdfplus.constraints
from conftest import load_pipeline
from helpers import perfbench_workloads
from test_elimination_kernel import outcome
from test_kinematic_plan import MODEL_FILES, loadable
from urdfplus.constraints import (
    RANK_TOL,
    _eliminated,
    _Record,
    explicit_jacobian_for_model,
    independent_coordinate_check,
)
from urdfplus.graphs import build_pipeline
from urdfplus.model import regular_numbering
from urdfplus.spatial import _row_reduce_batch
from urdfplus.xmlio import parse_urdf_plus

TINY = 5e-324  # the smallest subnormal
# one-row members' rows, three columns wide
ROWS = [
    [0.0, 0.0, 0.0],
    [-0.0, -0.0, -0.0],
    [-0.0, 1.0, -0.0],
    [TINY, -TINY, -0.0],
    [0.0, 1e-310, -2e-310],
    [TINY, 1.0, 0.0],
    [1e300, -3e299, 0.0],
    [0.0, 1.7e308, -1.7e308],
    [1.0, -2.5, 0.0],
]
TOLERANCES = (RANK_TOL, 1e-3, 0.3, 1.0, 2.0, 1e10)


def split_elimination(batch, tall, tol):
    """`_Record.eliminated` on `batch`, the members where `tall` is true in
    the lock step and the others, whose rows past the first are +0.0, not;
    with no height schedule (`live`), each lock-step member is as tall as
    the batch."""
    groups = SimpleNamespace(lock_step=np.flatnonzero(tall),
                             one_row=np.flatnonzero(np.logical_not(tall)), live=None)
    record = SimpleNamespace(plan=SimpleNamespace(groups=groups), rows=batch, _bases={})
    record.evaluate = lambda: record
    return _Record.eliminated(record, tol)


def full_elimination(batch, tol):
    """The lock step over every member, as the batch was reduced before."""
    reduced = batch.copy()
    with np.errstate(all="ignore"):  # tol * max|row| may overflow to inf
        ranks = _row_reduce_batch(reduced, tol)
    return reduced, ranks


def assert_same_elimination(got, want):
    (got_batch, got_ranks), (want_batch, want_ranks) = got, want
    assert got_ranks.dtype == want_ranks.dtype
    assert got_ranks.tolist() == want_ranks.tolist()
    assert got_batch.shape == want_batch.shape
    assert got_batch.tobytes() == want_batch.tobytes()


def batch_of(members, height, width):
    """The (members, height, width) batch of `members`, zero-padded with +0.0."""
    batch = np.zeros((len(members), height, width))
    for k, m in enumerate(members):
        batch[k, : len(m), : len(m[0]) if len(m) else 0] = m
    return batch


@pytest.mark.parametrize("tol", TOLERANCES)
@pytest.mark.parametrize("height", [1, 4])
def test_each_row_alone(tol, height):
    for row in ROWS:
        batch = batch_of([[row]], height, 3)
        assert_same_elimination(split_elimination(batch, [False], tol),
                                full_elimination(batch, tol))


@pytest.mark.parametrize("tol", TOLERANCES)
def test_rows_beside_lock_step_members(tol):
    rng = np.random.default_rng(5)
    tall = [rng.normal(size=(4, 3)), np.array([[2.0, 1.0, 0.0], [4.0, 2.0, 0.0]]),
            np.zeros((3, 3))]
    members = [*tall, *([row] for row in ROWS)]
    batch = batch_of(members, 4, 3)
    flags = [True] * len(tall) + [False] * len(ROWS)
    assert_same_elimination(split_elimination(batch, flags, tol), full_elimination(batch, tol))


@pytest.mark.parametrize("seed", range(30))
def test_random_batches(seed):
    """Lock-step and one-row members in any order, rows of any width up to
    the batch's, drawn from ROWS, a normal distribution or small integers."""
    rng = np.random.default_rng(seed)
    width = int(rng.integers(1, 6))
    height = int(rng.integers(1, 6))
    members, flags = [], []
    for _ in range(int(rng.integers(1, 9))):
        cols = int(rng.integers(0, width + 1))
        if height > 1 and rng.random() < 0.5:
            rows = int(rng.integers(2, height + 1))
            members.append(rng.normal(size=(rows, cols)))
            flags.append(True)
            continue
        kind = rng.integers(3)
        if kind == 0 and cols == 3:
            row = ROWS[int(rng.integers(len(ROWS)))]
        elif kind == 1:
            row = rng.integers(-2, 3, cols).astype(float)
        else:
            row = rng.normal(size=cols)
        members.append(np.array([row], dtype=float).reshape(1, cols))
        flags.append(False)
    batch = batch_of(members, height, width)
    for tol in TOLERANCES:
        assert_same_elimination(split_elimination(batch, flags, tol),
                                full_elimination(batch, tol))


@pytest.fixture
def eliminations(monkeypatch):
    """The member count of each lock-step elimination `constraints` makes."""
    calls = []
    original = urdfplus.constraints._row_reduce_batch

    def counted(batch, tol, *schedule):
        calls.append(batch.shape[0])
        return original(batch, tol, *schedule)

    monkeypatch.setattr(urdfplus.constraints, "_row_reduce_batch", counted)
    return calls


def check_against_full_lock_step(numbered, graph, q, tol=RANK_TOL):
    """The record's elimination, and G, equal those of the full lock step."""
    record, reduced, ranks = _eliminated(numbered, graph, q, tol)
    assert_same_elimination((reduced, ranks), full_elimination(record.rows, tol))
    groups = record.plan.groups
    got = outcome(lambda: explicit_jacobian_for_model(numbered, graph, q, tol))
    if got[0] == "value":
        want_reduced, _ = full_elimination(record.rows, tol)
        want = groups.explicit(want_reduced, tol)
        assert got[1].row_coordinates == want.row_coordinates
        assert got[1].matrix.tobytes() == want.matrix.tobytes()
    return got


def test_belt_makes_no_elimination_call(eliminations):
    """The belt's one group is its coupling's row."""
    pipe = load_pipeline("belt.urdf")
    groups = pipe.numbered._kinematics.check(pipe.graph).groups
    assert groups.lock_step.tolist() == [] and groups.one_row.tolist() == [0]
    rng = np.random.default_rng(3)
    for q in [np.zeros(pipe.numbered.total_dof), *rng.uniform(-1, 1, (3, 3))]:
        assert independent_coordinate_check(pipe.numbered, pipe.graph, pipe.lacg, q).passed
        assert check_against_full_lock_step(pipe.numbered, pipe.graph, q)[0] == "value"
    assert eliminations == []


def flagged_mimic_gripper():
    """models/mimic_gripper.urdf with the drive declared independent."""
    text = (Path(__file__).resolve().parent.parent / "models" / "mimic_gripper.urdf").read_text()
    for name, flag in (("drive", "true"), ("follower", "false"), ("gear", "false")):
        text = text.replace(f'<joint name="{name}" type="revolute">',
                            f'<joint name="{name}" type="revolute" independent="{flag}">')
    numbered = regular_numbering(parse_urdf_plus(text).model)
    graph, _, _, lacg = build_pipeline(numbered)
    return numbered, graph, lacg


def test_mimic_gripper_matches_the_full_lock_step(eliminations):
    """Two couplings in one group of two rows: the group in the lock step,
    each coupling's own member beside it not."""
    numbered, graph, lacg = flagged_mimic_gripper()
    groups = numbered._kinematics.check(graph).groups
    assert groups.shape == (3, 2, 3)
    assert groups.lock_step.tolist() == [0] and groups.one_row.tolist() == [1, 2]
    rng = np.random.default_rng(11)
    qs = [np.zeros(numbered.total_dof), *rng.uniform(-1, 1, (3, numbered.total_dof))]
    for tol in (RANK_TOL, 1.0):
        for q in qs:
            report = independent_coordinate_check(numbered, graph, lacg, q, tol)
            got = check_against_full_lock_step(numbered, graph, q, tol)
            if tol == RANK_TOL:
                assert report.passed and got[0] == "value"
                assert [info.rank for info in report.loops] == [1, 1]
    # one per configuration and tolerance, over the group alone
    assert eliminations == [1] * len(qs) * 2


def test_models_and_the_sweep_model_match_the_full_lock_step(monkeypatch):
    """Every loadable model file, and the benchmark's sweep model (ten loop
    groups in the lock step beside three couplings' groups)."""
    cases = []
    for pipe in map(loadable, MODEL_FILES):
        if pipe is not None:
            rng = np.random.default_rng(len(pipe.numbered.loop_entries))
            cases.append((pipe.numbered, pipe.graph,
                          [np.zeros(pipe.numbered.total_dof),
                           *rng.uniform(-1, 1, (3, pipe.numbered.total_dof))]))
    workloads = perfbench_workloads(monkeypatch)
    _, numbered, graph, _, qs = workloads.sweep_model(1, workloads.SWEEP_BODIES,
                                                      workloads.SWEEP_LOOPS)
    groups = numbered._kinematics.check(graph).groups
    assert groups.lock_step.size and groups.one_row.size
    cases.append((numbered, graph, qs[:4]))
    for numbered, graph, qs in cases:
        for q in qs:
            check_against_full_lock_step(numbered, graph, q)
