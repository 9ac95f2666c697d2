"""The record's residuals, from one stacked log and one padded product,
against the per-entry loop they replaced.

The oracle below is that loop, copied verbatim from `_Record.evaluate`
(with the `so3_log` it called, which read the 3 x 3 as Python floats, and
the lines of `_LoopAssembly.evaluate` that gave it the closure poses):
one `so3_log`, one `concatenate` and one `psi.T @ v` per loop joint, and
one row product per coupling.  Every residual must keep its bytes, the
half-turn entries their messages, and every array the record hands out
must be read-only.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from helpers import perfbench_workloads
from test_constraints import HALF_TURN, pipeline
from test_kinematic_plan import MODEL_FILES, configurations, generated_pipelines, loadable
from urdfplus.constraints import (
    LoopJacobian,
    _read_only,
    implicit_loop_jacobian,
    independent_coordinate_check,
    loop_residual,
)
from urdfplus.errors import AntipodalRotationError
from urdfplus.spatial import ANTIPODAL_TOL, _composed
from urdfplus.xmlio import parse_urdf_plus

# -- oracle ----------------------------------------------------------------------


def so3_log(r: np.ndarray) -> np.ndarray:
    """Rotation vector (axis * angle) of a rotation matrix, angle in [0, pi].

    Raises AntipodalRotationError within ANTIPODAL_TOL of a half-turn,
    where the direction of the axis becomes numerically meaningless for
    differentiation purposes.  The 3 x 3 is read as Python floats and
    summed and scaled in the order np.trace and numpy's elementwise
    products use, so the result has the bits of the array expression.
    """
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = np.asarray(r, dtype=float).tolist()
    # NaN passes through the clamp, as through np.clip
    angle = math.acos(min(max(((r00 + r11) + r22 - 1.0) * 0.5, -1.0), 1.0))
    if angle < 1e-12:
        # first-order: log(R) ~ vee(R - R^T)/2
        return np.array([0.5 * (r21 - r12), 0.5 * (r02 - r20), 0.5 * (r10 - r01)])
    if math.pi - angle < ANTIPODAL_TOL:
        raise AntipodalRotationError(
            f"rotation angle {angle} is within {ANTIPODAL_TOL} of pi"
        )
    scale = angle / (2.0 * math.sin(angle))
    return np.array([(r21 - r12) * scale, (r02 - r20) * scale, (r10 - r01) * scale])


def closure_poses(self, record):
    """Each successor frame's rotation and translation in its predecessor
    frame, as `_LoopAssembly.evaluate` gave them (`self` is the assembly)."""
    (rot, trans), q, joints = record.poses, record.q, record.plan.tree.joints
    p, s = self.predecessor, self.successor
    rot_p, trans_p = _composed(rot[p], trans[p], *self.predecessor_origins)
    to_loop_trans = -(rot_p.transpose(0, 2, 1) @ trans_p[:, :, None])[:, :, 0]
    frame_s = _composed(rot[s], trans[s], *self.successor_origins)
    return _composed(rot_p.transpose(0, 2, 1), to_loop_trans, *frame_s)


def per_entry_evaluate(self, rows):
    """(residuals, terms, failed) of the record `self` by the per-entry
    loop, with `rows` the record's rows, the loop groups' batch."""
    plan, q = self.plan, self.q
    steps = plan.loops
    # the loop assembly's place of each loop joint, by entry index: loop
    # joints are numbered before couplings, so loop joint l is at l
    position = {index: index for index, step in enumerate(steps)
                if not isinstance(step, LoopJacobian)}
    residuals = np.zeros((len(steps), 6))
    terms, failed = [], {}
    with np.errstate(all="ignore"):  # an overflow is reported below, by entry
        if position:
            rel_rot, rel_trans = closure_poses(plan.assembly, self)
        for index, step in enumerate(steps):
            if isinstance(step, LoopJacobian):
                residual = residuals[index, :1]
                # a coupling is linear in q: its row times q is the relation itself
                np.matmul(step.scatter(plan._slices, len(q)), q, out=residual)
                terms.append((step, _read_only(residual)))
                continue
            i = position[index]
            residual = residuals[index, : step.psi.shape[1]]
            try:
                log = so3_log(rel_rot[i])
            except AntipodalRotationError as exc:
                failed[index] = str(exc)
            else:
                np.matmul(step.psi.T, np.concatenate([log, rel_trans[i]]), out=residual)
            matrix = rows[plan.groups.entry_member[i], : step.psi.shape[1], : step.width]
            terms.append((LoopJacobian(step.number, step.name, "loop", step.joint_numbers,
                                       step.joint_columns, matrix), _read_only(residual)))
    return residuals, terms, failed


# -- end of the oracle -------------------------------------------------------------


# `flip` half a turn about an axis 1 away from the base: its closure has a translation
HALF_TURN_AWAY = HALF_TURN.replace('<joint name="ja" type="revolute">',
                                   '<joint name="ja" type="revolute"><origin xyz="1 0 0"/>')

FAR_FLOATING_LOOP = """<robot name="far_float">
  <link name="base"/><link name="a"/><link name="b"/>
  <joint name="slide1" type="prismatic"><parent link="base"/><child link="a"/>
    <axis xyz="1 0 0"/></joint>
  <joint name="slide2" type="prismatic"><parent link="a"/><child link="b"/>
    <axis xyz="1 0 0"/></joint>
  <loop name="free" type="floating"><predecessor name="base"/><successor name="b"/></loop>
</robot>"""


def check_record(numbered, graph, q, seen):
    """The record of q against the oracle; `seen` counts the coupling,
    small-angle and half-turn entries met."""
    record = numbered._kinematics.check(graph).record(q).evaluate()
    residuals, terms, failed = per_entry_evaluate(record, record.rows)
    assert record.residuals.tobytes() == residuals.tobytes()
    assert record.failed == failed
    assert len(record.terms) == len(terms)
    for (jac, residual), (want_jac, want_residual) in zip(record.terms, terms):
        for name in ("number", "name", "kind", "joint_numbers", "joint_columns"):
            assert getattr(jac, name) == getattr(want_jac, name)
        assert jac.matrix.tobytes() == want_jac.matrix.tobytes()
        assert residual.shape == want_residual.shape
        assert residual.tobytes() == want_residual.tobytes()
        assert not (jac.matrix.flags.writeable or residual.flags.writeable)
        seen["coupling"] += jac.kind == "coupling"
    assert not (record.rows.flags.writeable or record.residuals.flags.writeable)
    seen["half-turn"] += len(failed)
    if record.plan.loop_count:
        with np.errstate(all="ignore"):
            rel_rot, _ = closure_poses(record.plan.assembly, record)
        for r in rel_rot:
            seen["small angle"] += math.acos(min(max((np.trace(r) - 1.0) * 0.5, -1.0),
                                                 1.0)) < 1e-12
    return record


def test_model_files_and_generated_models():
    seen = dict.fromkeys(("coupling", "small angle", "half-turn"), 0)
    for pipe in filter(None, map(loadable, MODEL_FILES)):
        qs = configurations(np.random.default_rng(sum(map(ord, pipe.numbered.model.name))),
                            pipe.numbered)
        for q in [np.zeros(pipe.numbered.total_dof), *qs]:
            check_record(pipe.numbered, pipe.graph, q, seen)
    for numbered, graph, _, qs in generated_pipelines():
        for q in qs:
            check_record(numbered, graph, q, seen)
    for text in (HALF_TURN, HALF_TURN_AWAY):
        numbered, graph, _ = pipeline(parse_urdf_plus(text).model)
        for q in ([math.pi, 0.0], [math.pi, 0.3], [0.2, 0.3]):
            check_record(numbered, graph, np.array(q), seen)
    assert seen["coupling"] > 50 and seen["small angle"] > 5 and seen["half-turn"] == 4


@pytest.mark.parametrize("seed", [1, 2])
def test_sweep_model(seed, monkeypatch):
    """The benchmark's sweep model (ten loop joints and three couplings) at
    its 16 configurations."""
    workloads = perfbench_workloads(monkeypatch)
    _, numbered, graph, _, qs = workloads.sweep_model(seed, workloads.SWEEP_BODIES,
                                                      workloads.SWEEP_LOOPS)
    seen = dict.fromkeys(("coupling", "small angle", "half-turn"), 0)
    for q in qs:
        check_record(numbered, graph, q, seen)
    assert seen["coupling"] == 3 * len(qs)


def test_half_turn_entry_raises_only_when_asked_for():
    """`flip` at a half-turn keeps a zero residual row and raises when asked
    for; `calm` at zero takes the first-order log, and its rows and
    residual come out read-only."""
    numbered, graph, _ = pipeline(parse_urdf_plus(HALF_TURN).model)
    q = np.array([math.pi, 0.0])
    record = check_record(numbered, graph, q, dict.fromkeys(("coupling", "small angle",
                                                               "half-turn"), 0))
    flip, calm = (number for number, _ in numbered.loop_entries)
    assert list(record.failed) == [0] and not record.residuals[0].any()
    with pytest.raises(AntipodalRotationError, match="^rotation angle "):
        loop_residual(numbered, graph, flip, q)
    for array in (loop_residual(numbered, graph, calm, q),
                  implicit_loop_jacobian(numbered, graph, calm, q).matrix):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 1.0


def test_a_half_turn_with_a_translation_keeps_a_zero_residual():
    """`flip` half a turn about an axis 1 away: its pose error has a
    translation, but its residual row stays zero, as the per-entry loop,
    which never computed it, left it."""
    numbered, graph, _ = pipeline(parse_urdf_plus(HALF_TURN_AWAY).model)
    record = check_record(numbered, graph, np.array([math.pi, 0.3]),
                          dict.fromkeys(("coupling", "small angle", "half-turn"), 0))
    assert list(record.failed) == [0] and not record.residuals[0].any()


def test_a_floating_loop_has_no_residual_to_overflow():
    """A floating loop joint constrains nothing: with its successor 2e308
    away its rows and residual are empty, so nothing it reports overflows.
    The padded rows of its products hold NaN (0 * inf), which used to end
    the finiteness check in StopIteration; they are never written into the
    loop groups' batch, which `rows` is, nor into `residuals`."""
    numbered, graph, lacg = pipeline(parse_urdf_plus(FAR_FLOATING_LOOP).model)
    q = np.array([1e308, 1e308])
    record = check_record(numbered, graph, q,
                          dict.fromkeys(("coupling", "small angle", "half-turn"), 0))
    assert not np.isfinite(record.poses[1]).all() and np.isfinite(record.rows).all()
    [number] = (number for number, _ in numbered.loop_entries)
    assert loop_residual(numbered, graph, number, q).shape == (0,)
    report = independent_coordinate_check(numbered, graph, lacg, q)
    assert (report.n_i, report.max_residual, report.loops[0].residual_norm) == (2, 0.0, 0.0)
