"""Differential test of the per-model kinematic plan, and its lifetime.

The oracle below is the earlier implementation, copied verbatim: the
per-call `forward_kinematics` and loop-entry assembly of `constraints`,
which re-derived axes, subspaces, Psi, layouts and signs at every
configuration, and the parts of `spatial` they used that have since
changed or left the library (`skew`, `rot_x`, `rot_y`, `rotation_about_axis`,
`compose`, `invert`, `motion_map`, `motion_subspace_at`, `joint_transform`,
`so3_log`).  Poses, every K_l, every residual and G must be
bit-identical (`np.array_equal`) on every `models/` file and on seeded
generated models with all six joint types on loop paths.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

import urdfplus.constraints
from conftest import MODELS_DIR, load_pipeline
from helpers import far_fourbar
from test_elimination_kernel import oracle_explicit_from_implicit
from urdfplus.constraints import (
    LoopJacobian,
    all_loop_jacobians,
    coupling_row,
    explicit_jacobian_for_model,
    forward_kinematics,
    implicit_loop_jacobian,
    independent_coordinate_check,
    independent_coordinate_indices,
    loop_residual,
    parse_configuration,
    stack_jacobians,
)
from urdfplus.errors import (
    AntipodalRotationError,
    ConfigurationError,
    DimensionMismatchError,
    UrdfPlusError,
)
from urdfplus.graphs import ConnectivityGraph, build_pipeline
from urdfplus.model import (
    Coupling,
    Link,
    LoopJoint,
    NumberedModel,
    RobotModel,
    TreeJoint,
    regular_numbering,
)
from urdfplus.spatial import (
    ANTIPODAL_TOL,
    JointType,
    SpatialTransform,
    _as_vec3,
    _check_unit_axis,
    _require_axes,
    constraint_force_subspace,
    motion_subspace,
    rot_from_rpy,
)
from urdfplus.xmlio import parse_urdf_plus

# -- oracle: spatial -----------------------------------------------------------


def skew(v) -> np.ndarray:
    """Cross-product matrix: skew(v) @ w == cross(v, w)."""
    x, y, z = _as_vec3(v)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def rot_x(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def motion_map(x: SpatialTransform, v) -> np.ndarray:
    """Re-express a 6D spatial motion vector in the parent frame of `x`.

    `v` is given in the child frame of `x` with its reference point at the
    child origin; the result is expressed in the parent frame with its
    reference point at the parent origin.  The linear part picks up the
    lever-arm term trans x (rot @ omega), the sign of which is pinned by the
    finite-difference point-velocity oracle in the test suite.
    """
    v = np.asarray(v, dtype=float)
    if v.shape[0] != 6:
        raise DimensionMismatchError(f"expected 6 rows, got shape {v.shape}")
    w = x.rot @ v[:3]
    return np.concatenate([w, x.rot @ v[3:] + skew(x.trans) @ w], axis=0)


def so3_log(r: np.ndarray) -> np.ndarray:
    """Rotation vector (axis * angle) of a rotation matrix, angle in [0, pi].

    Raises AntipodalRotationError within ANTIPODAL_TOL of a half-turn,
    where the direction of the axis becomes numerically meaningless for
    differentiation purposes.
    """
    r = np.asarray(r, dtype=float)
    cos_angle = np.clip((np.trace(r) - 1.0) * 0.5, -1.0, 1.0)
    angle = math.acos(cos_angle)
    if angle < 1e-12:
        # first-order: log(R) ~ vee(R - R^T)/2
        return 0.5 * np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    if math.pi - angle < ANTIPODAL_TOL:
        raise AntipodalRotationError(
            f"rotation angle {angle} is within {ANTIPODAL_TOL} of pi"
        )
    w = np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    return w * (angle / (2.0 * math.sin(angle)))


def rotation_about_axis(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation about a unit axis."""
    axis = _check_unit_axis(axis)
    k = skew(axis)
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def compose(a: SpatialTransform, b: SpatialTransform) -> SpatialTransform:
    """Pose composition: the result maps coordinates through b, then a."""
    return SpatialTransform(a.rot @ b.rot, a.rot @ b.trans + a.trans)


def invert(x: SpatialTransform) -> SpatialTransform:
    rt = x.rot.T
    return SpatialTransform(rt, -(rt @ x.trans))


def motion_subspace_at(jt: JointType, axis, axis2, q) -> np.ndarray:
    """Motion subspace at joint position q, expressed in the child frame.

    Identical to motion_subspace() for joints whose subspace does not move
    with the configuration (fixed, revolute, continuous, prismatic).  For a
    universal joint the first axis is carried back through the second
    rotation; for a floating joint the angular columns are the fixed-axis
    X-Y-Z rate directions and the linear columns are the parent-side
    translation rates re-expressed in the child frame.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if q.shape[0] != jt.dof:
        raise DimensionMismatchError(
            f"joint type {jt.value} takes {jt.dof} coordinates, got {q.shape[0]}"
        )
    if jt is JointType.UNIVERSAL:
        a1, a2 = _require_axes(jt, axis, axis2)
        s = np.zeros((6, 2))
        s[:3, 0] = rotation_about_axis(a2, q[1]).T @ a1
        s[:3, 1] = a2
        return s
    if jt is JointType.FLOATING:
        roll, pitch = q[0], q[1]
        r = rot_from_rpy(q[0], q[1], q[2])
        s = np.zeros((6, 6))
        s[:3, 0] = np.array([1.0, 0.0, 0.0])
        s[:3, 1] = rot_x(roll).T @ np.array([0.0, 1.0, 0.0])
        s[:3, 2] = rot_x(roll).T @ rot_y(pitch).T @ np.array([0.0, 0.0, 1.0])
        s[3:, 3:] = r.T
        return s
    return motion_subspace(jt, axis, axis2)


def joint_transform(jt: JointType, axis, axis2, q) -> SpatialTransform:
    """Pose of the child-side joint frame for joint position q."""
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if q.shape[0] != jt.dof:
        raise DimensionMismatchError(
            f"joint type {jt.value} takes {jt.dof} coordinates, got {q.shape[0]}"
        )
    a1, a2 = _require_axes(jt, axis, axis2)
    if jt is JointType.FIXED:
        return SpatialTransform.identity()
    if jt in (JointType.REVOLUTE, JointType.CONTINUOUS):
        return SpatialTransform(rotation_about_axis(a1, q[0]))
    if jt is JointType.PRISMATIC:
        return SpatialTransform(trans=q[0] * a1)
    if jt is JointType.UNIVERSAL:
        return SpatialTransform(
            rotation_about_axis(a1, q[0]) @ rotation_about_axis(a2, q[1])
        )
    # floating: rotate by rpy, place the child origin at xyz
    return SpatialTransform(rot_from_rpy(q[0], q[1], q[2]), q[3:6])


# -- oracle: constraints -------------------------------------------------------


def _joint_axes(joint: TreeJoint | LoopJoint):
    axis = None if joint.axis is None else np.asarray(joint.axis, dtype=float)
    axis2 = None if joint.axis2 is None else np.asarray(joint.axis2, dtype=float)
    return axis, axis2


def oracle_forward_kinematics(
    numbered: NumberedModel, q: np.ndarray
) -> list[SpatialTransform]:
    """World pose of every body frame; entry 0 (the root) is the identity."""
    q = np.asarray(q, dtype=float)
    if q.shape != (numbered.total_dof,):
        raise DimensionMismatchError(
            f"configuration has {q.shape} entries, model takes "
            f"({numbered.total_dof},)"
        )
    slices = numbered.coordinate_slices()
    poses = [SpatialTransform.identity()]
    for body in range(1, numbered.n_bodies + 1):
        joint = numbered.tree_joint_of[body]
        axis, axis2 = _joint_axes(joint)
        x_joint = joint_transform(joint.joint_type, axis, axis2, q[slices[body]])
        poses.append(
            compose(poses[numbered.parent[body]], compose(joint.origin, x_joint))
        )
    return poses


def loop_side_frames(
    numbered: NumberedModel,
    loop: LoopJoint,
    poses: list[SpatialTransform],
) -> tuple[SpatialTransform, SpatialTransform]:
    """World poses of the predecessor-side and successor-side loop frames."""
    p = numbered.body_index(loop.predecessor)
    s = numbered.body_index(loop.successor)
    return (
        compose(poses[p], loop.predecessor_origin),
        compose(poses[s], loop.successor_origin),
    )


def _involved_layout(numbered: NumberedModel, bodies: list[int]):
    joints = sorted(bodies)
    columns = []
    offset = 0
    for j in joints:
        width = numbered.tree_joint_of[j].joint_type.dof
        columns.append((offset, offset + width))
        offset += width
    return joints, columns, offset


def _coupling_rows(
    numbered: NumberedModel, graph: ConnectivityGraph, index: int
) -> LoopJacobian:
    """Single row of the coupling at `index` of the loop entries: +1 on
    predecessor-subchain joints, -ratio on successor-subchain joints.  A
    0-DoF joint adds no entry."""
    number, coupling = numbered.loop_entries[index]
    _, nu_p, nu_s = graph.subchains[index]
    joints, columns, width = _involved_layout(numbered, nu_p + nu_s)
    row = np.zeros((1, width))
    for joint_number, (start, stop) in zip(joints, columns):
        if start < stop:
            row[0, start] = 1.0 if joint_number in nu_p else -coupling.ratio
    return LoopJacobian(
        number=number,
        name=coupling.name,
        kind="coupling",
        joint_numbers=tuple(joints),
        joint_columns=tuple(columns),
        matrix=row,
    )


def _loop_joint_terms(
    numbered: NumberedModel,
    graph: ConnectivityGraph,
    index: int,
    q: np.ndarray,
    poses: list[SpatialTransform],
) -> tuple[LoopJacobian, np.ndarray]:
    """Constraint rows and closure residual of the loop joint at `index` of
    the loop entries, given the world poses at q.

    Block column j is sign * Psi^T * S_j with S_j carried into the
    predecessor-side loop frame along the kinematic chain; the sign is -1
    on the predecessor subchain and +1 on the successor subchain.
    """
    number, loop = numbered.loop_entries[index]
    _, nu_p, nu_s = graph.subchains[index]
    joints, columns, width = _involved_layout(numbered, nu_p + nu_s)
    frame_p, frame_s = loop_side_frames(numbered, loop, poses)
    world_to_loop = invert(frame_p)
    psi = constraint_force_subspace(loop.joint_type, *_joint_axes(loop))

    slices = numbered.coordinate_slices()
    matrix = np.zeros((psi.shape[1], width))
    for joint_number, (start, stop) in zip(joints, columns):
        if start == stop:
            continue
        joint = numbered.tree_joint_of[joint_number]
        s_local = motion_subspace_at(
            joint.joint_type, *_joint_axes(joint), q[slices[joint_number]]
        )
        x = compose(world_to_loop, poses[joint_number])
        sign = -1.0 if joint_number in nu_p else 1.0
        matrix[:, start:stop] = sign * (psi.T @ motion_map(x, s_local))
    rel = compose(world_to_loop, frame_s)
    residual = psi.T @ np.concatenate([so3_log(rel.rot), rel.trans])
    jacobian = LoopJacobian(
        number=number,
        name=loop.name,
        kind="loop",
        joint_numbers=tuple(joints),
        joint_columns=tuple(columns),
        matrix=matrix,
    )
    return jacobian, residual


def _loop_terms(
    numbered: NumberedModel,
    graph: ConnectivityGraph,
    index: int,
    q: np.ndarray,
    poses: list[SpatialTransform] | None,
) -> tuple[LoopJacobian, np.ndarray]:
    """Rows and residual of any loop entry; `poses` are the world poses at
    q, computed here when not given and the entry is a loop joint."""
    q = np.asarray(q, dtype=float)
    if isinstance(numbered.loop_entries[index][1], Coupling):
        row = _coupling_rows(numbered, graph, index)
        # a coupling is linear in q: its row times q is the relation itself
        return row, row.scatter(numbered.coordinate_slices(), numbered.total_dof) @ q
    if poses is None:
        poses = oracle_forward_kinematics(numbered, q)
    return _loop_joint_terms(numbered, graph, index, q, poses)


# -- end of the oracle ---------------------------------------------------------

CONFIGURATIONS = 20
PER_ENTRY = 3  # configurations per model that also check each entry alone
GENERATED_MODELS = 40
ALL_TYPES = set(JointType)
LOOP_TYPES = tuple(JointType)


def outcome(fn):
    """The value of fn(), or the type and message of the error it raised."""
    try:
        return "value", fn()
    except UrdfPlusError as exc:
        return "error", (type(exc), str(exc))


def assert_same(got, want):
    """Equal outcomes, with arrays compared by np.array_equal."""
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1] == want[1]
    else:
        assert_same_value(got[1], want[1])


def assert_same_value(got, want):
    if isinstance(want, (list, tuple)):
        assert type(got) is type(want) and len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_value(g, w)
    elif isinstance(want, SpatialTransform):
        assert np.array_equal(got.rot, want.rot)
        assert np.array_equal(got.trans, want.trans)
    elif isinstance(want, LoopJacobian):
        def layout(jac):
            return (jac.number, jac.name, jac.kind, jac.joint_numbers,
                    jac.joint_columns)

        assert layout(got) == layout(want)
        assert got.matrix.shape == want.matrix.shape
        assert np.array_equal(got.matrix, want.matrix)
    elif isinstance(want, np.ndarray):
        assert got.shape == want.shape and np.array_equal(got, want)
    else:
        assert got == want


def check_against_oracle(numbered, graph, lacg, q, per_entry=True):
    """Library against oracle at q; `per_entry` adds the one-entry functions,
    which run forward kinematics once per entry on each side."""
    entries = range(len(numbered.loop_entries))
    numbers = [number for number, _ in numbered.loop_entries]

    def oracle_terms():
        poses = oracle_forward_kinematics(numbered, q)
        return [_loop_terms(numbered, graph, index, q, poses) for index in entries]

    want_terms = outcome(oracle_terms)
    want_jacobians = want_terms
    if want_terms[0] == "value":
        want_jacobians = "value", [jac for jac, _ in want_terms[1]]
    assert_same(outcome(lambda: forward_kinematics(numbered, q)),
                outcome(lambda: oracle_forward_kinematics(numbered, q)))
    assert_same(outcome(lambda: all_loop_jacobians(numbered, graph, q)), want_jacobians)
    for index, number in zip(entries, numbers) if per_entry else ():
        assert_same(outcome(lambda: implicit_loop_jacobian(numbered, graph, number, q)),
                    outcome(lambda: _loop_terms(numbered, graph, index, q, None)[0]))
        assert_same(outcome(lambda: loop_residual(numbered, graph, number, q)),
                    outcome(lambda: _loop_terms(numbered, graph, index, q, None)[1]))

    got_report = outcome(lambda: independent_coordinate_check(numbered, graph, lacg, q))
    assert got_report[0] == want_terms[0]
    if want_terms[0] == "error":
        assert got_report[1] == want_terms[1]
        return
    report = got_report[1]
    assert_same_value(list(report.jacobians), want_jacobians[1])
    for info, (_, residual) in zip(report.loops, want_terms[1]):
        want_norm = float(np.abs(residual).max()) if residual.size else 0.0
        assert info.residual_norm == want_norm

    def oracle_g():
        k_full = stack_jacobians(numbered, want_jacobians[1])
        return oracle_explicit_from_implicit(k_full, independent_coordinate_indices(numbered))

    got_g = outcome(lambda: explicit_jacobian_for_model(numbered, graph, q))
    want_g = outcome(oracle_g)
    assert got_g[0] == want_g[0]
    if want_g[0] == "error":
        assert got_g[1] == want_g[1]
    else:
        assert got_g[1].row_coordinates == want_g[1].row_coordinates
        assert np.array_equal(got_g[1].matrix, want_g[1].matrix)


def configurations(rng, numbered):
    return [rng.uniform(-1.0, 1.0, numbered.total_dof) for _ in range(CONFIGURATIONS)]


MODEL_FILES = sorted(
    str(path.relative_to(MODELS_DIR)) for path in MODELS_DIR.rglob("*.urdf")
)


def loadable(name):
    try:
        return load_pipeline(name)
    except UrdfPlusError:
        return None


@pytest.mark.parametrize("name", MODEL_FILES)
def test_model_files_match_oracle(name):
    pipe = loadable(name)
    if pipe is None:
        assert name.startswith("errors/")
        return
    rng = np.random.default_rng(sum(map(ord, name)))
    qs = [np.zeros(pipe.numbered.total_dof), *configurations(rng, pipe.numbered)]
    for k, q in enumerate(qs):
        check_against_oracle(pipe.numbered, pipe.graph, pipe.lacg, q, k < PER_ENTRY)


def _unit(rng):
    v = rng.normal(size=3)
    return tuple(v / np.linalg.norm(v))


def _orthogonal_unit(rng, axis):
    a = np.asarray(axis)
    v = rng.normal(size=3)
    v -= np.dot(v, a) * a
    return tuple(v / np.linalg.norm(v))


def _origin(rng):
    return SpatialTransform.from_rpy_xyz(rng.uniform(-math.pi, math.pi, 3),
                                         rng.uniform(-0.5, 0.5, 3))


def _axes(rng, jtype):
    """(axis, axis2) for a joint type; a universal joint goes without an
    axis2 half the time, so its default second axis is covered too."""
    if not jtype.requires_axis:
        return None, None
    axis = _unit(rng)
    if jtype is JointType.UNIVERSAL and rng.random() < 0.5:
        return axis, _orthogonal_unit(rng, axis)
    return axis, None


def random_kinematic_model(rng) -> RobotModel:
    """A random tree of every joint type with random origins and axes,
    closed by loop joints of every type between random bodies, plus now
    and then a coupling across two revolute joints."""
    n_bodies = int(rng.integers(2, 10))
    links = tuple(Link(name=f"b{i}") for i in range(n_bodies + 1))
    joints = []
    for i in range(1, n_bodies + 1):
        jtype = LOOP_TYPES[int(rng.integers(len(LOOP_TYPES)))]
        axis, axis2 = _axes(rng, jtype)
        flag = (None, True, False)[int(rng.integers(3))]
        joints.append(TreeJoint(
            name=f"j{i}", joint_type=jtype, parent=f"b{int(rng.integers(i))}",
            child=f"b{i}", origin=_origin(rng), axis=axis, axis2=axis2,
            independent=flag))
    loops = []
    for k in range(int(rng.integers(1, 4))):
        a, b = rng.choice(n_bodies + 1, size=2, replace=False)
        jtype = LOOP_TYPES[int(rng.integers(len(LOOP_TYPES)))]
        axis, axis2 = _axes(rng, jtype)
        loops.append(LoopJoint(
            name=f"loop{k}", joint_type=jtype, predecessor=f"b{a}",
            successor=f"b{b}", predecessor_origin=_origin(rng),
            successor_origin=_origin(rng), axis=axis, axis2=axis2))
    couplings = ()
    revolute = [j.child for j in joints if j.joint_type is JointType.REVOLUTE
                and j.parent == "b0"]
    if len(revolute) >= 2 and rng.random() < 0.5:
        couplings = (Coupling("gear", revolute[0], revolute[1],
                              float(rng.uniform(0.5, 2.0))),)
    return RobotModel(name="random", links=links, tree_joints=tuple(joints),
                      loop_joints=tuple(loops), couplings=couplings)


def generated_pipelines():
    rng = np.random.default_rng(20240613)
    out = []
    while len(out) < GENERATED_MODELS:
        numbered = regular_numbering(random_kinematic_model(rng))
        graph, _, _, lacg = build_pipeline(numbered)
        out.append((numbered, graph, lacg, configurations(rng, numbered)))
    return out


def test_generated_models_match_oracle():
    pipelines = generated_pipelines()
    on_loop_paths = set()
    loop_types = set()
    for numbered, graph, lacg, qs in pipelines:
        for (_, nu_p, nu_s), (_, entry) in zip(graph.subchains, numbered.loop_entries):
            if isinstance(entry, LoopJoint):
                loop_types.add(entry.joint_type)
                on_loop_paths |= {numbered.tree_joint_of[b].joint_type
                                  for b in nu_p + nu_s}
        for k, q in enumerate(qs):
            check_against_oracle(numbered, graph, lacg, q, k < PER_ENTRY)
    # every type moves a loop Jacobian column, and closes a loop
    assert on_loop_paths == ALL_TYPES
    assert loop_types == ALL_TYPES
    assert any(numbered.model.couplings for numbered, *_ in pipelines)


# -- plan lifetime --------------------------------------------------------------


@pytest.fixture
def plan_builds(monkeypatch):
    """Counts of KinematicPlan objects, tree parts and loop steps built, and
    of loop assemblies and loop group sets, once one is built."""
    counts = {"plans": 0, "tree_joints": 0, "loop_steps": 0}
    plan_class = urdfplus.constraints.KinematicPlan
    init, loop_step = plan_class.__init__, plan_class._loop_step
    joint_kinematics = urdfplus.constraints.JointKinematics

    def counting_init(self, numbered):
        counts["plans"] += 1
        init(self, numbered)

    def counting_loop_step(self, index):
        counts["loop_steps"] += 1
        return loop_step(self, index)

    def counting_joint_kinematics(*args):
        counts["tree_joints"] += 1
        return joint_kinematics(*args)

    def counting_part(key, part_init):
        def counting_init(self, *args):
            counts[key] = counts.get(key, 0) + 1
            part_init(self, *args)
        return counting_init

    for part, key in ((urdfplus.constraints._LoopAssembly, "assemblies"),
                      (urdfplus.constraints._LoopGroups, "group_sets")):
        monkeypatch.setattr(part, "__init__", counting_part(key, part.__init__))
    monkeypatch.setattr(plan_class, "__init__", counting_init)
    monkeypatch.setattr(plan_class, "_loop_step", counting_loop_step)
    monkeypatch.setattr(urdfplus.constraints, "JointKinematics",
                        counting_joint_kinematics)
    return counts


@pytest.mark.parametrize("command", ["info", "graph"])
def test_structural_commands_never_build_the_plan(plan_builds, command, capsys):
    from urdfplus.cli import main

    assert main([command, str(MODELS_DIR / "wrist.urdf")]) == 0
    capsys.readouterr()
    assert plan_builds == {"plans": 0, "tree_joints": 0, "loop_steps": 0}


@pytest.mark.parametrize("command", ["validate", "constraints"])
def test_count_check_commands_build_the_plan_once(plan_builds, command, capsys):
    """`validate` and `constraints` run the count check, on a model loaded
    for the call: one plan each."""
    from urdfplus.cli import main

    assert main([command, str(MODELS_DIR / "wrist.urdf")]) == 0
    capsys.readouterr()
    assert plan_builds == {"plans": 1, "tree_joints": 4, "loop_steps": 2,
                           "assemblies": 1, "group_sets": 1}


def test_repeated_calls_build_the_plan_once(plan_builds):
    """Each part is built once, from the first graph checked, whichever of
    two equal graphs a call is given."""
    pipe = load_pipeline("wrist.urdf")  # a model of its own, plan not built
    rebuilt, *_ = build_pipeline(pipe.numbered)
    assert rebuilt is not pipe.graph and rebuilt == pipe.graph
    rng = np.random.default_rng(5)
    for k in range(4):
        graph = (pipe.graph, rebuilt)[k % 2]
        q = rng.uniform(-1.0, 1.0, pipe.numbered.total_dof)
        independent_coordinate_check(pipe.numbered, graph, pipe.lacg, q)
        explicit_jacobian_for_model(pipe.numbered, graph)
        all_loop_jacobians(pipe.numbered, graph, q)
    assert plan_builds == {"plans": 1, "tree_joints": pipe.numbered.n_bodies,
                           "loop_steps": len(pipe.numbered.loop_entries),
                           "assemblies": 1, "group_sets": 1}


def test_coupling_only_model_builds_no_tree_part(plan_builds):
    pipe = load_pipeline("belt.urdf")
    for _ in range(2):
        all_loop_jacobians(pipe.numbered, pipe.graph, np.zeros(pipe.numbered.total_dof))
    assert plan_builds == {"plans": 1, "tree_joints": 0,
                           "loop_steps": len(pipe.numbered.loop_entries), "group_sets": 1}


# -- the last configuration's record ------------------------------------------


@pytest.fixture
def fk_calls(monkeypatch):
    """Counts the pose passes (`_Tree.poses` calls), the forward kinematics
    that every function taking q shares."""
    calls = []
    original = urdfplus.constraints._Tree.poses

    def counted(tree, q):
        calls.append(q)
        return original(tree, q)

    monkeypatch.setattr(urdfplus.constraints._Tree, "poses", counted)
    return calls


FOURBAR_CLOSED = np.array([0.4, 0.4, -0.4])  # crank = rocker = -coupler


@pytest.mark.parametrize("name,q", [("wrist.urdf", None),
                                    ("fourbar.urdf", FOURBAR_CLOSED)])
def test_check_and_g_at_one_q_share_one_evaluation(fk_calls, name, q):
    pipe = load_pipeline(name)
    numbered, graph = pipe.numbered, pipe.graph
    if q is None:
        q = np.zeros(numbered.total_dof)
    report = independent_coordinate_check(numbered, graph, pipe.lacg, q)
    explicit_jacobian_for_model(numbered, graph, q)
    for number, _ in numbered.loop_entries:
        implicit_loop_jacobian(numbered, graph, number, q)
        loop_residual(numbered, graph, number, q)
    assert list(all_loop_jacobians(numbered, graph, list(q))) == list(report.jacobians)
    assert len(fk_calls) == 1


@pytest.mark.parametrize("name", ["wrist.urdf", "belt.urdf"])
def test_forward_kinematics_reads_the_record(fk_calls, name):
    """After the count check and G at q, forward_kinematics at q makes no
    pose pass (wrist.urdf) or makes the one it is asked for (belt.urdf, whose
    coupling needs none), and returns views of the record's pose arrays."""
    pipe = load_pipeline(name)
    numbered, graph = pipe.numbered, pipe.graph
    q = np.zeros(numbered.total_dof)
    independent_coordinate_check(numbered, graph, pipe.lacg, q)
    explicit_jacobian_for_model(numbered, graph, q)
    assert len(fk_calls) == (name == "wrist.urdf")
    for _ in range(2):
        poses = forward_kinematics(numbered, list(q))
        rot, trans = numbered._kinematics.record(q).poses
        assert len(poses) == len(rot) == numbered.n_bodies + 1
        assert all(pose.rot.base is rot and pose.trans.base is trans for pose in poses)
        assert len(fk_calls) == 1


def test_record_keeps_its_own_q():
    """The record copies q: on belt.urdf the count check makes no poses, so
    forward_kinematics at the checked values, asked for after the checked
    array was changed in place, computes them from the record's copy."""
    pipe = load_pipeline("belt.urdf")
    q = np.array([0.3, -0.2, 0.4])
    independent_coordinate_check(pipe.numbered, pipe.graph, pipe.lacg, q)
    checked = q.copy()
    q[:] = 0.0
    assert_same_value(forward_kinematics(pipe.numbered, checked),
                      oracle_forward_kinematics(pipe.numbered, checked))


def far_fourbar_pipeline(length):
    numbered = regular_numbering(parse_urdf_plus(far_fourbar(length)).model)
    graph, _, _, lacg = build_pipeline(numbered)
    return SimpleNamespace(numbered=numbered, graph=graph, lacg=lacg)


@pytest.mark.parametrize("make,q", [
    (lambda: load_pipeline("mimic_gripper.urdf"), "drive: 1e308\nfollower: -1e308\ngear: 1e308\n"),
    (lambda: far_fourbar_pipeline(5e307), [2.1, -2.0, -2.0]),  # the rank elimination
    (lambda: far_fourbar_pipeline(1e300), [0.0, 0.0, 1e-9]),  # G's solve
], ids=["residual", "rank elimination", "solve for G"])
def test_an_overflow_leaves_no_half_made_record(make, q):
    """A q whose values overflow raises ConfigurationError each time it is
    asked for, and the next q gives what a model that never saw it gives."""
    pipe = make()
    if isinstance(q, str):
        q = parse_configuration(q, pipe.numbered)
    for _ in range(2):
        with pytest.raises(ConfigurationError, match="^configuration overflows: "):
            explicit_jacobian_for_model(pipe.numbered, pipe.graph, q)
    good = np.full(pipe.numbered.total_dof, 0.1)
    got, want = evaluate(pipe, good), evaluate(make(), good)
    assert_same_value(got[:3], want[:3])
    assert_same(got[3], want[3])


def evaluate(pipe, q):
    """Every configuration-dependent output at q."""
    numbered, graph = pipe.numbered, pipe.graph
    report = independent_coordinate_check(numbered, graph, pipe.lacg, q)
    residuals = [loop_residual(numbered, graph, number, q)
                 for number, _ in numbered.loop_entries]
    g = outcome(lambda: explicit_jacobian_for_model(numbered, graph, q).matrix)
    return report.jacobians, residuals, [info.rank for info in report.loops], g


@pytest.mark.parametrize("name", ["wrist.urdf", "fourbar.urdf", "belt.urdf",
                                  "nested.urdf"])
def test_each_configuration_matches_a_fresh_model(name):
    """A new q, and a q changed in place between calls, are evaluated anew:
    the outputs equal those of a model that never saw another q."""
    shared = load_pipeline(name)
    rng = np.random.default_rng(11)
    q = rng.uniform(-1.0, 1.0, shared.numbered.total_dof)
    other = rng.uniform(-1.0, 1.0, shared.numbered.total_dof)
    for step in range(4):
        if step == 1:
            q[0] += 0.25  # the same array, a new configuration
        current = other if step == 2 else q
        got = evaluate(shared, current)
        want = evaluate(load_pipeline(name), current.copy())
        assert_same_value(got[:3], want[:3])
        assert_same(got[3], want[3])


@pytest.mark.parametrize("name", ["wrist.urdf", "belt.urdf"])
def test_returned_rows_and_residuals_are_read_only(name):
    pipe = load_pipeline(name)
    numbered, graph = pipe.numbered, pipe.graph
    q = np.zeros(numbered.total_dof)
    report = independent_coordinate_check(numbered, graph, pipe.lacg, q)
    for jac in report.jacobians:
        rows = implicit_loop_jacobian(numbered, graph, jac.number, q)
        residual = loop_residual(numbered, graph, jac.number, q)
        for array in (jac.matrix, rows.matrix, residual):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        if jac.kind == "coupling":
            with pytest.raises(ValueError, match="read-only"):
                coupling_row(numbered, graph, jac.number).matrix[0, 0] = 5.0
