"""One layout for the loop rows: the record's `rows` is the loop groups'
unreduced elimination batch, into which the couplings' template and the
loop assembly write each entry's rows once per place.

On every loadable `models/` file, the kinematic-plan oracle's generated
models and the benchmark's sweep model, each loop joint's K_l is a view of
`rows`, nothing outside the blocks of `groups.places` is written (+0.0
there), every place of an entry holds the same bytes, and neither the
count check nor G changes `rows`.
"""

from __future__ import annotations

import numpy as np

from helpers import perfbench_workloads
from test_kinematic_plan import MODEL_FILES, generated_pipelines, loadable
from urdfplus.constraints import explicit_jacobian_for_model, independent_coordinate_check
from urdfplus.errors import CountMismatchError, SingularDependentBlockError

SEEDED = 3  # configurations per model file besides q = 0


def check_layout(numbered, graph, lacg, q) -> int:
    """The layout of the record of q; returns the number of entries in a
    group of several, whose rows sit at two places."""
    plan = numbered._kinematics.check(graph)
    record = plan.record(q).evaluate()
    groups, rows = plan.groups, record.rows
    assert rows.shape == groups.shape and not rows.flags.writeable
    written = np.zeros(rows.shape, dtype=bool)
    shared = 0
    for entry, ((jac, _), places) in enumerate(zip(record.terms, groups.places)):
        height = jac.matrix.shape[0]
        if entry < plan.loop_count:
            assert jac.matrix.base is rows  # a view, even when it is empty
        own = rows[groups.entry_member[entry], :height, : jac.matrix.shape[1]]
        assert own.tobytes() == jac.matrix.tobytes()
        for member, first, columns in places:
            block = rows[member, first : first + height][:, columns]
            assert block.tobytes() == own.tobytes()
            written[member, first : first + height, columns] = True
        shared += len(places) > 1
    outside = rows[~written]
    assert not (outside.any() or np.signbit(outside).any())
    before = rows.tobytes()
    independent_coordinate_check(numbered, graph, lacg, q)
    try:
        explicit_jacobian_for_model(numbered, graph, q)
    except (CountMismatchError, SingularDependentBlockError):
        pass
    assert plan.record(q) is record and rows.tobytes() == before
    return shared


def test_model_files():
    shared = {}
    for name in MODEL_FILES:
        pipe = loadable(name)
        if pipe is None:
            continue
        rng = np.random.default_rng(sum(map(ord, name)))
        qs = [np.zeros(pipe.numbered.total_dof),
              *(rng.uniform(-1.0, 1.0, pipe.numbered.total_dof) for _ in range(SEEDED))]
        shared[name] = sum(check_layout(pipe.numbered, pipe.graph, pipe.lacg, q) for q in qs)
    # the wrist, nested and overlapping loops each share a group
    assert all(shared[name] for name in ("wrist.urdf", "nested.urdf", "overlapping.urdf"))


def test_generated_models():
    shared = 0
    for numbered, graph, lacg, qs in generated_pipelines():
        for q in qs[:SEEDED]:
            shared += check_layout(numbered, graph, lacg, q)
    assert shared


def test_sweep_model(monkeypatch):
    workloads = perfbench_workloads(monkeypatch)
    _, numbered, graph, lacg, qs = workloads.sweep_model(1, workloads.SWEEP_BODIES,
                                                         workloads.SWEEP_LOOPS)
    assert len(qs) == 16
    for q in qs:
        check_layout(numbered, graph, lacg, q)
