"""The two column routes of `spatial._forward_pass` against the verbatim
one-matrix oracle of test_elimination_kernel.py.

While every member of a batch has pivoted in every column so far and
accepts the current one, the pass eliminates the column with no mask;
after that, only the rows below an accepted pivot get factors, products
and the subtract.  Seeded batches mix members that accept every column,
members that refuse one mid-way, members that run out of rows and exact
ties, through the row reduction and the solve (which stops at the first
refusal); every member keeps the oracle's bits, signed zeros included,
and both routes run.
"""

from __future__ import annotations

import inspect
import sys
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import perfbench_workloads
from test_elimination_kernel import (
    TOLERANCES,
    check_row_reduce_batch,
    check_solve_batch,
    oracle_row_reduce_basis,
)
from urdfplus import spatial
from urdfplus.constraints import RANK_TOL
from urdfplus.spatial import _row_reduce_batch

# a line that only the unmasked route runs, and one that only the masked route runs
ROUTE_LINES = {"unmasked": "lead += 1", "masked": "dest = np.where(accept, slot, pivot)"}


@contextmanager
def route_counts():
    """Counts of the columns `_forward_pass` eliminates by each route while
    the context is open, by tracing its two route lines."""
    code = spatial._forward_pass.__code__
    lines, first = inspect.getsourcelines(spatial._forward_pass)
    at = {}
    for route, text in ROUTE_LINES.items():
        [offset] = [k for k, line in enumerate(lines) if line.strip().startswith(text)]
        at[first + offset] = route
    counts = dict.fromkeys(ROUTE_LINES, 0)

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno in at:
            counts[at[frame.f_lineno]] += 1
        return local

    def calls(frame, event, arg):
        return local if frame.f_code is code else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        yield counts
    finally:
        sys.settrace(previous)


def member(rng, kind, rows, cols):
    """One rows x cols member of a kind: "full" accepts every column while
    it has rows, "refusing" repeats an earlier column (or has a zero one)
    mid-way, "short" has fewer nonzero rows than the batch, "ties" holds
    small integers, so that pivot candidates of equal magnitude are common."""
    if kind == "ties":
        return rng.integers(-2, 3, size=(rows, cols)).astype(float)
    m = rng.normal(size=(rows, cols))
    if kind == "refusing" and cols > 1:
        j = int(rng.integers(1, cols))
        m[:, j] = m[:, int(rng.integers(j))] * float(rng.integers(-2, 3))
    if kind == "short":
        m[int(rng.integers(rows)) if rows else 0 :] = 0.0
    if rng.random() < 0.3:  # signed zeros among the entries
        m[rng.random(m.shape) < 0.2] = -0.0
    return m


KINDS = ("full", "refusing", "short", "ties")


def random_members(rng, count, rows, cols):
    """Members of random kinds; the first one is "full"."""
    return [member(rng, "full" if k == 0 else KINDS[int(rng.integers(len(KINDS)))], rows, cols)
            for k in range(count)]


def test_both_routes_run_and_keep_the_oracle_bits():
    rng = np.random.default_rng(20261019)
    with route_counts() as reduce_routes:
        for _ in range(150):
            rows, cols = (int(v) for v in rng.integers(1, 8, 2))
            count = int(rng.integers(1, 7))
            matrices = random_members(rng, count, rows, cols)
            if rng.random() < 0.3:  # every member full: the unmasked route alone
                matrices = [member(rng, "full", rows, cols) for _ in range(count)]
            check_row_reduce_batch(matrices, TOLERANCES[int(rng.integers(3))])
    with route_counts() as solve_routes:
        for _ in range(150):
            width = int(rng.integers(1, 4))
            systems = []
            for _ in range(int(rng.integers(1, 6))):
                n = int(rng.integers(1, 6))
                kind = KINDS[int(rng.integers(len(KINDS)))] if rng.random() < 0.4 else "full"
                systems.append((member(rng, kind, n, n), rng.normal(size=(n, width))))
            check_solve_batch(systems, TOLERANCES[int(rng.integers(3))])
    # the solve has a masked column only where some member refuses, and stops there
    for counts in (reduce_routes, solve_routes):
        assert counts["unmasked"] > 1000 and counts["masked"] > 50, counts


def test_route_counts_of_small_batches():
    """Two full 3 x 3 members: three unmasked columns.  A member with one
    nonzero row beside a full one: one unmasked column, then the full
    member's two masked ones."""
    rng = np.random.default_rng(5)
    full = [member(rng, "full", 3, 3) for _ in range(2)]
    short = np.zeros((3, 3))
    short[0] = rng.normal(size=3)
    for matrices, want in ((full, {"unmasked": 3, "masked": 0}),
                           ([full[0], short], {"unmasked": 1, "masked": 2})):
        with route_counts() as counts:
            _row_reduce_batch(np.stack(matrices), RANK_TOL)
        assert counts == want
        check_row_reduce_batch(matrices, RANK_TOL)


@pytest.mark.parametrize("seed", [1, 2])
def test_far_sweep_batch_computes_no_discarded_product(seed, monkeypatch):
    """The benchmark's sweep model with every coordinate at 1e200: the rank
    pass's masked columns used to multiply every row by the pivot row and
    discard the rows above the pivots and those of a refusing member, and
    those products alone overflowed.  Now nothing overflows or turns
    invalid, and every member keeps the one-matrix oracle's bytes (which
    the earlier kernel gave too, warnings aside)."""
    workloads = perfbench_workloads(monkeypatch)
    _, numbered, graph, _, _ = workloads.sweep_model(seed, workloads.SWEEP_BODIES,
                                                     workloads.SWEEP_LOOPS)
    plan = numbered._kinematics.check(graph)
    rows = plan.record(np.full(numbered.total_dof, 1e200)).evaluate().rows
    batch = plan.groups.batch(rows)
    reduced = batch.copy()
    with np.errstate(over="raise", invalid="raise"):
        ranks = _row_reduce_batch(reduced, RANK_TOL)
        for k, matrix in enumerate(batch):
            want = oracle_row_reduce_basis(matrix.copy(), RANK_TOL)
            assert ranks[k] == len(want)
            assert reduced[k, : ranks[k]].tobytes() == want.tobytes()
