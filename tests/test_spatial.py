import math
from typing import NamedTuple

import numpy as np
import pytest

import urdfplus.spatial as sp
from test_kinematic_plan import rot_x, rot_y
from urdfplus.errors import (
    AntipodalRotationError,
    ConfigurationError,
    DimensionMismatchError,
    NonUnitAxisError,
)
from urdfplus.spatial import JointType

RNG = np.random.default_rng(20240817)

# Poses are (rot, trans) pairs that go through the engine's stacked kernels
# one at a time; an inverse is built inline, as the engine builds its own.
IDENTITY = (np.eye(3), np.zeros(3))


class Joint(NamedTuple):
    """The joint record _JointStack reads."""

    joint_type: JointType
    axis: object = None
    axis2: object = None


def joint_stack(jt: JointType, axis=None, axis2=None) -> sp._JointStack:
    """The engine's kinematics of one joint whose coordinates start at q[0]."""
    return sp._JointStack([Joint(jt, axis, axis2)], [0])


def turns(axes, angles) -> np.ndarray:
    """Rotations (K, 3, 3) about the unit rows of `axes` by `angles`, as the
    engine's revolute joints make them."""
    joints = [Joint(JointType.REVOLUTE, axis) for axis in axes]
    return sp._JointStack(joints, range(len(joints))).transforms(
        np.asarray(angles, dtype=float))[0]


def turn(axis, angle: float) -> np.ndarray:
    return turns([axis], [angle])[0]


def composed(a, b):
    """_composed of one pose pair: maps coordinates through b, then a."""
    rot, trans = sp._composed(a[0][None], a[1][None], b[0][None], b[1][None])
    return rot[0], trans[0]


def inverse(x):
    rot_t = x[0].T
    return rot_t, -(rot_t @ x[1])


def is_identity(x, tol: float = 0.0) -> bool:
    rot, trans = x
    return bool(np.abs(rot - np.eye(3)).max() <= tol and np.abs(trans).max() <= tol)


def motion_map(x, v) -> np.ndarray:
    """_motion_maps of one pose and a 6-vector or a 6 x k matrix."""
    v = np.asarray(v, dtype=float)
    return sp._motion_maps(x[0][None], x[1][None], v.reshape(6, -1)[None])[0].reshape(v.shape)


def random_transform(rng=RNG):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(-math.pi + 0.1, math.pi - 0.1)
    return turn(axis, angle), rng.normal(size=3)


def rot_z(a: float) -> np.ndarray:
    """The z factor of _rpy_factors (yaw a)."""
    return sp._rpy_factors([(0.0, 0.0, a)])[0, 0]


class TestRotations:
    def test_rpy_zero_is_identity(self):
        assert np.allclose(sp.rot_from_rpy(0, 0, 0), np.eye(3))

    def test_quarter_turn_about_z_maps_x_to_y(self):
        r = sp.rot_from_rpy(0, 0, math.pi / 2)
        assert np.allclose(r @ [1, 0, 0], [0, 1, 0], atol=1e-15)

    def test_generic_rpy_is_orthonormal(self):
        r = sp.rot_from_rpy(0.1, 0.2, 0.3)
        assert np.abs(r.T @ r - np.eye(3)).max() < 1e-12
        assert abs(np.linalg.det(r) - 1.0) < 1e-12

    def test_rpy_matches_axis_rotation_factors(self):
        r = sp.rot_from_rpy(0.1, -0.4, 2.0)
        z, y, x = turns([[0, 0, 1], [0, 1, 0], [1, 0, 0]], [2.0, -0.4, 0.1])
        assert np.abs(r - z @ y @ x).max() < 1e-12

    def test_rpy_round_trip(self):
        for _ in range(100):
            rpy = RNG.uniform(-1.4, 1.4, size=3)
            r = sp.rot_from_rpy(*rpy)
            back = sp.rot_from_rpy(*sp._rpy_from_rows(r.tolist()))
            assert np.abs(r - back).max() < 1e-12

    def test_so3_log_round_trip(self):
        axes = RNG.normal(size=(100, 3))
        axes /= np.linalg.norm(axes, axis=1)[:, None]
        angles = RNG.uniform(1e-6, math.pi - 1e-3, size=100)
        logs, failed = sp._so3_logs(turns(axes, angles))
        assert not failed
        assert np.abs(logs - axes * angles[:, None]).max() < 1e-9

    def test_so3_log_rejects_half_turn(self):
        logs, failed = sp._so3_logs(turn([0, 0, 1], math.pi)[None])
        assert list(failed) == [0] and failed[0].startswith("rotation angle ")
        assert not logs.any()


def log_outcome(log, r):
    """The bytes of log(r), or the type and message of its error."""
    try:
        return "value", log(r).tobytes()
    except AntipodalRotationError as exc:
        return "error", (type(exc), str(exc))


def stacked_outcomes(rotations) -> list:
    """log_outcome of each rotation, all from one _so3_logs call: a flagged
    half-turn is the error the engine raises with its message."""
    logs, failed = sp._so3_logs(np.asarray(rotations, dtype=float))
    assert not logs[list(failed)].any()  # a half-turn's row is zero
    return [("error", (AntipodalRotationError, failed[k])) if k in failed
            else ("value", logs[k].tobytes()) for k in range(len(logs))]


def rodrigues_stack(axes, angles):
    """Rotations about the rows of `axes` by `angles`, as one (K, 3, 3)
    array; any rounding will do, both logs get the same matrices."""
    k = sp._skews(axes / np.linalg.norm(axes, axis=1)[:, None])
    return (np.eye(3) + np.sin(angles)[:, None, None] * k
            + (1.0 - np.cos(angles))[:, None, None] * (k @ k))


class TestSo3LogAgainstPinnedOracle:
    """_so3_logs reads each 3 x 3 as Python floats; the array version it
    replaced, pinned in the kinematic-plan oracle, must give the same bits
    or the same error for every member of a stack."""

    def test_seeded_rotations(self):
        from test_kinematic_plan import so3_log as oracle

        rng = np.random.default_rng(314159)
        count = 100_000
        angles = np.concatenate([
            rng.uniform(0.0, math.pi, count - 2_000),
            10.0 ** rng.uniform(-16.0, -11.0, 1_000),  # the first-order branch
            math.pi - 10.0 ** rng.uniform(-12.0, -7.0, 1_000),  # near a half-turn
        ])
        rotations = rodrigues_stack(rng.normal(size=(count, 3)), angles)
        # off-orthogonal by rounding-sized noise too, as composed poses are
        rotations[::2] += rng.normal(scale=1e-15, size=rotations[::2].shape)
        outcomes = {"value": 0, "error": 0}
        for r, got in zip(rotations, stacked_outcomes(rotations)):
            want = log_outcome(oracle, r)
            assert got == want, r.tolist()
            outcomes[want[0]] += 1
        assert outcomes["error"] > 0 and outcomes["value"] > count - 2_000

    def test_first_order_branch(self):
        from test_kinematic_plan import so3_log as oracle

        tiny = rodrigues_stack(np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 1.0]]),
                               np.array([1e-13, 5e-15]))
        over = np.eye(3) + np.diag([1e-15, 2e-16, 0.0])  # trace above 3: clamped
        skewed = np.eye(3) + np.array([[0.0, -3e-14, 1e-14],
                                       [3e-14, 0.0, -2e-14],
                                       [-1e-14, 2e-14, 0.0]])
        signed = np.where(np.eye(3) == 1.0, 1.0, -0.0)  # negative zeros off the diagonal
        rotations = (np.eye(3), *tiny, over, skewed, signed)
        for r, got in zip(rotations, stacked_outcomes(rotations)):
            angle = math.acos(min(max((np.trace(r) - 1.0) * 0.5, -1.0), 1.0))
            assert angle < 1e-12
            assert got == log_outcome(oracle, r)

    def test_half_turn_error(self):
        from test_kinematic_plan import so3_log as oracle

        turns_ = rodrigues_stack(np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]),
                                 np.array([math.pi, math.pi - 1e-10]))
        rotations = (*turns_, np.diag([1.0, -1.0, -1.0]))
        for r, got in zip(rotations, stacked_outcomes(rotations)):
            assert got[0] == "error" and got == log_outcome(oracle, r)
            assert got[1][1].startswith("rotation angle ")

    def test_rot_z_quarter_turn(self):
        assert np.allclose(rot_z(math.pi / 2) @ [1, 0, 0], [0, 1, 0], atol=1e-15)
        assert np.allclose(rot_z(0.3), turn([0, 0, 1], 0.3), atol=1e-15)


class TestPublicArgumentErrors:
    def test_fixed_joint_moves_nothing(self):
        assert JointType.FIXED.motion_kind == "none"

    @pytest.mark.parametrize("v", [[1.0, 2.0], np.zeros((2, 2))])
    def test_not_a_3_vector(self, v):
        with pytest.raises(DimensionMismatchError, match="^expected a 3-vector, got shape"):
            sp.SpatialTransform(trans=v)

    def test_rotation_not_3x3(self):
        with pytest.raises(DimensionMismatchError, match=r"^rotation must be 3x3, got \(2, 2\)$"):
            sp.SpatialTransform(rot=np.eye(2))

    def test_joint_type_requires_an_axis(self):
        with pytest.raises(NonUnitAxisError, match="^joint type prismatic requires an axis$"):
            sp.motion_subspace(JointType.PRISMATIC)

    def test_universal_axes_not_orthogonal(self):
        with pytest.raises(NonUnitAxisError, match="^universal joint axes must be orthogonal$"):
            sp.motion_subspace(JointType.UNIVERSAL, [1, 0, 0], [0.6, 0.8, 0])


class TestTransforms:
    def test_compose_identity(self):
        x = random_transform()
        rot, trans = composed(IDENTITY, x)
        assert np.abs(rot - x[0]).max() < 1e-15
        assert np.abs(trans - x[1]).max() < 1e-15

    def test_compose_with_inverse_is_identity(self):
        x = random_transform()
        assert is_identity(composed(x, inverse(x)), 1e-12)

    def test_translations_commute(self):
        a = (np.eye(3), np.array([1.0, 0.0, 0.0]))
        b = (np.eye(3), np.array([0.0, 2.0, 0.0]))
        assert np.allclose(composed(a, b)[1], [1, 2, 0])

    def test_invert_identity(self):
        assert is_identity(composed(inverse(IDENTITY), IDENTITY))

    def test_invert_pure_translation(self):
        x = (np.eye(3), np.array([1.0, -2.0, 3.0]))
        assert np.allclose(composed(inverse(x), IDENTITY)[1], [-1.0, 2.0, -3.0])
        assert is_identity(composed(inverse(x), x))

    def test_inverse_composes_to_identity_in_bulk(self):
        # one stacked call over every pose, as the engine makes them
        poses = [random_transform() for _ in range(1000)]
        rot, trans = (np.array(part) for part in zip(*poses))
        rot_t = rot.transpose(0, 2, 1)
        back_rot, back_trans = sp._composed(rot_t, -(rot_t @ trans[:, :, None])[:, :, 0],
                                            rot, trans)
        for pose in zip(back_rot, back_trans):
            assert is_identity(pose, 1e-12)


class TestMotionMap:
    """_motion_maps: a motion vector given in a pose's child frame about the
    child origin, re-expressed in its parent frame about the parent origin."""

    def test_identity_map(self):
        v = RNG.normal(size=6)
        assert np.allclose(motion_map(IDENTITY, v), v)

    def test_pure_rotation_rotates_angular_part(self):
        x = (turn([0, 0, 1], math.pi / 2), np.zeros(3))
        out = motion_map(x, [1, 0, 0, 0, 0, 0])
        assert np.abs(out - [0, 1, 0, 0, 0, 0]).max() < 1e-15

    def test_lever_arm_matches_point_velocity_finite_difference(self):
        # A body rotates about the child-frame origin sitting at r.  The
        # mapped linear part must equal the velocity of the body-fixed point
        # that currently coincides with the parent origin.
        r = np.array([0.3, -0.7, 0.2])
        w = np.array([0.4, 1.1, -0.6])
        mapped = motion_map((np.eye(3), r), np.concatenate([w, np.zeros(3)]))
        h = 1e-7
        axis, speed = w / np.linalg.norm(w), np.linalg.norm(w)
        p_plus = r + turn(axis, speed * h) @ (-r)
        p_minus = r + turn(axis, -speed * h) @ (-r)
        fd = (p_plus - p_minus) / (2 * h)
        assert np.abs(mapped[3:] - fd).max() < 1e-6
        assert np.abs(mapped[:3] - w).max() < 1e-15

    def test_linearity(self):
        x = random_transform()
        u, v = RNG.normal(size=6), RNG.normal(size=6)
        a, b = 0.7, -2.3
        lhs = motion_map(x, a * u + b * v)
        rhs = a * motion_map(x, u) + b * motion_map(x, v)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_matrix_columns_map_like_vectors(self):
        x = random_transform()
        m = RNG.normal(size=(6, 4))
        mapped = motion_map(x, m)
        # the same pose four times over, one column each
        columns = sp._motion_maps(np.repeat(x[0][None], 4, axis=0),
                                  np.repeat(x[1][None], 4, axis=0), m.T[:, :, None])
        for k in range(4):
            assert np.allclose(mapped[:, k], columns[k, :, 0])


UNIT_AXES = {
    JointType.REVOLUTE: ([0.0, 0.0, 1.0], None),
    JointType.CONTINUOUS: ([1.0, 0.0, 0.0], None),
    JointType.PRISMATIC: ([0.0, 1.0, 0.0], None),
    JointType.UNIVERSAL: ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]),
    JointType.FIXED: (None, None),
    JointType.FLOATING: (None, None),
}


class TestSubspaces:
    def test_revolute_about_z(self):
        s = sp.motion_subspace(JointType.REVOLUTE, [0, 0, 1])
        assert s.shape == (6, 1)
        assert np.allclose(s[:, 0], [0, 0, 1, 0, 0, 0])

    def test_fixed_has_no_columns(self):
        assert sp.motion_subspace(JointType.FIXED).shape == (6, 0)

    def test_floating_is_full_identity(self):
        assert np.allclose(sp.motion_subspace(JointType.FLOATING), np.eye(6))

    def test_constraint_complement_of_revolute_z(self):
        s = sp.motion_subspace(JointType.REVOLUTE, [0, 0, 1])
        psi = sp.constraint_force_subspace(JointType.REVOLUTE, [0, 0, 1])
        assert psi.shape == (6, 5)
        assert np.abs(psi.T @ s).max() == 0.0

    def test_fixed_constraint_space_is_identity(self):
        assert np.allclose(sp.constraint_force_subspace(JointType.FIXED), np.eye(6))

    def test_universal_constraint_space(self):
        psi = sp.constraint_force_subspace(JointType.UNIVERSAL, [1, 0, 0], [0, 1, 0])
        s = sp.motion_subspace(JointType.UNIVERSAL, [1, 0, 0], [0, 1, 0])
        assert psi.shape == (6, 4)
        assert np.abs(psi.T @ s).max() < 1e-12

    @pytest.mark.parametrize("jtype", list(JointType))
    def test_complementarity_over_random_axes(self, jtype):
        for _ in range(50):
            axis = RNG.normal(size=3)
            axis /= np.linalg.norm(axis)
            axis2 = None
            if jtype is JointType.UNIVERSAL:
                axis2 = np.cross(axis, RNG.normal(size=3))
                axis2 /= np.linalg.norm(axis2)
            args = (axis, axis2) if jtype.requires_axis else (None, None)
            s = sp.motion_subspace(jtype, *args)
            psi = sp.constraint_force_subspace(jtype, *args)
            assert s.shape[1] + psi.shape[1] == 6
            assert s.shape[1] == jtype.dof
            if psi.shape[1] and s.shape[1]:
                assert np.abs(psi.T @ s).max() < 1e-10
            if psi.shape[1]:
                gram = psi.T @ psi
                assert np.abs(gram - np.eye(psi.shape[1])).max() < 1e-12

    def test_non_unit_axis_rejected(self):
        with pytest.raises(NonUnitAxisError):
            sp.motion_subspace(JointType.REVOLUTE, [0, 0, 2])

    @pytest.mark.parametrize("axis", [[math.nan, 0, 0], [0, 0, math.inf]])
    def test_non_finite_axis_rejected(self, axis):
        with pytest.raises(NonUnitAxisError):
            sp.motion_subspace(JointType.REVOLUTE, axis)

    def test_universal_without_second_axis_uses_default(self):
        s = sp.motion_subspace(JointType.UNIVERSAL, [0, 0, 1])
        psi = sp.constraint_force_subspace(JointType.UNIVERSAL, [0, 0, 1])
        assert np.allclose(s[:3, 1], [1, 0, 0])  # deterministic completion
        assert np.abs(psi.T @ s).max() < 1e-12

    def test_default_second_axis_is_orthogonal_unit(self):
        for _ in range(50):
            axis = RNG.normal(size=3)
            axis /= np.linalg.norm(axis)
            second = sp.orthonormal_complement_2(axis)[0]
            assert abs(np.linalg.norm(second) - 1) < 1e-12
            assert abs(np.dot(second, axis)) < 1e-12


def motion_subspace_oracle(jt: JointType, axis=None, axis2=None) -> np.ndarray:
    """motion_subspace as it was before it read _JointStack, verbatim."""
    a1, a2 = sp._require_axes(jt, axis, axis2)
    if jt is JointType.FIXED:
        return np.zeros((6, 0))
    if jt in (JointType.REVOLUTE, JointType.CONTINUOUS):
        return np.concatenate([a1, np.zeros(3)]).reshape(6, 1)
    if jt is JointType.PRISMATIC:
        return np.concatenate([np.zeros(3), a1]).reshape(6, 1)
    if jt is JointType.UNIVERSAL:
        return np.concatenate([np.stack([a1, a2], axis=1), np.zeros((3, 2))])
    return np.eye(6)  # floating


def subspace_cases():
    """(type, axis, axis2): 200 random unit axes per joint type (a universal
    joint's second axis given in half of them), the axis-aligned axes, and
    axes holding -0.0 where motion_subspace copies it."""
    rng, cases = np.random.default_rng(30), []
    aligned = [list(row) for row in np.eye(3)] + [list(-row + 0.0) for row in np.eye(3)]
    for jt in JointType:
        for k in range(200):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            axis2 = None
            if jt is JointType.UNIVERSAL and k % 2:
                axis2 = np.cross(axis, rng.normal(size=3))
                axis2 /= np.linalg.norm(axis2)
            cases.append((jt, axis, axis2) if jt.requires_axis else (jt, None, None))
        if jt.requires_axis:
            cases += [(jt, axis, None) for axis in aligned]
    for jt in (JointType.REVOLUTE, JointType.CONTINUOUS, JointType.PRISMATIC):
        cases.append((jt, [-0.0, 0.6, -0.8], None))
    cases.append((JointType.UNIVERSAL, [1.0, 0.0, 0.0], [-0.0, 0.6, -0.8]))
    return cases


class TestMotionSubspaceAgainstOracle:
    """motion_subspace is _JointStack's subspace at q = 0, with the bytes of
    the per-type expressions it replaced."""

    def test_bytes_match_the_oracle(self):
        cases = subspace_cases()
        assert len(cases) == 6 * 200 + 4 * 6 + 4
        for jt, axis, axis2 in cases:
            got, want = sp.motion_subspace(jt, axis, axis2), motion_subspace_oracle(jt, axis, axis2)
            assert (got.dtype, got.shape) == (want.dtype, want.shape), (jt, axis, axis2)
            assert got.tobytes() == want.tobytes(), (jt, axis, axis2)

    def test_universal_first_axis_zero_sign_is_the_engines(self):
        """The engine carries a universal joint's first axis back through the
        second rotation, identity at q = 0, which reads a -0.0 as 0.0."""
        axis, axis2 = [-0.0, 0.6, -0.8], [1.0, 0.0, -0.0]
        got = sp.motion_subspace(JointType.UNIVERSAL, axis, axis2)
        want = motion_subspace_oracle(JointType.UNIVERSAL, axis, axis2)
        assert np.array_equal(got, want)
        assert math.copysign(1.0, got[0, 0]) == 1.0 and math.copysign(1.0, got[2, 1]) == -1.0
        engine = joint_stack(JointType.UNIVERSAL, axis, axis2).subspaces(np.zeros(2), [0])[0]
        assert got.tobytes() == engine.tobytes()


class TestJointTransform:
    """_JointStack's transforms and subspaces of one joint."""

    def test_revolute_zero_is_identity(self):
        rot, trans = joint_stack(JointType.REVOLUTE, [0, 0, 1]).transforms(np.array([0.0]))
        assert is_identity((rot[0], trans[0]))

    def test_prismatic_translates_along_axis(self):
        rot, trans = joint_stack(JointType.PRISMATIC, [1, 0, 0]).transforms(np.array([2.5]))
        assert np.allclose(trans[0], [2.5, 0, 0])
        assert np.allclose(rot[0], np.eye(3))

    def test_universal_composes_two_axis_rotations(self):
        stack = joint_stack(JointType.UNIVERSAL, [1, 0, 0], [0, 1, 0])
        rot, _ = stack.transforms(np.array([0.3, 0.4]))
        expected = rot_x(0.3) @ rot_y(0.4)
        assert np.abs(rot[0] - expected).max() < 1e-12

    def test_floating_orders_rotation_then_translation(self):
        q = np.array([0.1, 0.2, 0.3, 1.0, 2.0, 3.0])
        rot, trans = joint_stack(JointType.FLOATING).transforms(q)
        assert np.abs(rot[0] - sp.rot_from_rpy(0.1, 0.2, 0.3)).max() < 1e-12
        assert np.allclose(trans[0], [1, 2, 3])

    def test_universal_subspace_tracks_configuration(self):
        # first axis carried back through the second rotation
        stack = joint_stack(JointType.UNIVERSAL, [1, 0, 0], [0, 1, 0])
        s = stack.subspaces(np.array([0.0, 0.5]), [0])[0]
        expected = rot_y(0.5).T @ np.array([1.0, 0.0, 0.0])
        assert np.abs(s[:3, 0] - expected).max() < 1e-12
        assert np.allclose(s[:3, 1], [0, 1, 0])

    def test_floating_subspace_matches_finite_difference(self):
        stack = joint_stack(JointType.FLOATING)

        def pose(q):
            rot, trans = stack.transforms(q)
            return rot[0], trans[0]

        q = np.array([0.4, -0.3, 0.8, 0.5, -1.0, 2.0])
        s = stack.subspaces(q, [0])[0]
        x0_rot = pose(q)[0]
        h = 1e-7
        for k in range(6):
            dq = np.zeros(6)
            dq[k] = h
            a, b = pose(q + dq), pose(q - dq)
            rel_rot, _ = composed(inverse(b), a)  # motion seen in the child frame
            logs, failed = sp._so3_logs(rel_rot[None])
            assert not failed
            w = logs[0] / (2 * h)
            # translation rate of the child origin, expressed in child coords
            v = x0_rot.T @ (a[1] - b[1]) / (2 * h)
            assert np.abs(s[:3, k] - w).max() < 1e-6
            assert np.abs(s[3:, k] - v).max() < 1e-6


class TestNumericalRank:
    def test_zero_matrix(self):
        assert sp.numerical_rank(np.zeros((5, 3))) == 0

    def test_identity(self):
        assert sp.numerical_rank(np.eye(6)) == 6

    def test_belt_explicit_jacobian_shape(self):
        # dependent row is the half-ratio combination of the two independent
        # coordinates, so the three rows only span two directions
        g = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        assert sp.numerical_rank(g) == 2

    def test_known_rank_products(self):
        for _ in range(50):
            rows, cols = RNG.integers(2, 8, size=2)
            r = int(RNG.integers(0, min(rows, cols) + 1))
            m = RNG.normal(size=(rows, r)) @ RNG.normal(size=(r, cols))
            assert sp.numerical_rank(m) == r

    def test_invariance_under_row_permutation_and_scaling(self):
        for _ in range(50):
            m = RNG.normal(size=(5, 4))
            m[RNG.integers(0, 5)] = 0.0  # plant a dependent row
            rank = sp.numerical_rank(m)
            perm = RNG.permutation(5)
            scales = RNG.uniform(0.5, 2.0, size=5)
            scaled = (m[perm].T * scales).T
            assert sp.numerical_rank(scaled) == rank

    def test_near_zero_row_below_tolerance(self):
        m = np.array([[1.0, 0.0], [0.0, 1e-14]])
        assert sp.numerical_rank(m, tol=1e-10) == 1
        assert sp.numerical_rank(m, tol=1e-16) == 2

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        # 0.0 and inf used to give rank 0 here, nan and -1.0 rank 2
        with pytest.raises(ConfigurationError, match="finite number > 0"):
            sp.numerical_rank([[1.0, 0.0], [0.0, 0.0]], tol)
        with pytest.raises(ConfigurationError, match="finite number > 0"):
            sp.row_reduce_basis(np.eye(2), tol)
        with pytest.raises(ConfigurationError, match="finite number > 0"):
            sp.solve_with_pivoting(np.eye(2), np.ones(2), tol)

    def test_row_reduce_basis_spans_row_space(self):
        m = RNG.normal(size=(3, 5))
        stacked = np.vstack([m, m[0] + 2 * m[1], 3 * m[2]])
        basis = sp.row_reduce_basis(stacked)
        assert basis.shape[0] == 3
        # every original row must be reproducible from the basis
        coeffs, residual, *_ = np.linalg.lstsq(basis.T, stacked.T, rcond=None)
        assert np.abs(basis.T @ coeffs - stacked.T).max() < 1e-10

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_raise(self, bad):
        # these read rank 0 and an empty basis before
        m = [[bad, 1.0], [1.0, 1.0]]
        with pytest.raises(ConfigurationError, match="^matrix entries must be finite real"):
            sp.numerical_rank(m)
        with pytest.raises(ConfigurationError, match="^matrix entries must be finite real"):
            sp.row_reduce_basis(np.array(m))

    @pytest.mark.parametrize("m", [[["1", "0"], ["0", "1"]], [[1j, 0.0], [0.0, 1.0]],
                                   [[1.0, None], [0.0, 1.0]]],
                             ids=["string", "complex", "none"])
    def test_non_real_entries_raise(self, m):
        # ValueError or TypeError before, or a silent rank for numeric strings
        for view in (sp.numerical_rank, sp.row_reduce_basis):
            with pytest.raises(ConfigurationError, match="^matrix entries must be finite real"):
                view(m)

    def test_more_than_two_dimensions_raise(self):
        # a bare "too many values to unpack" before
        cube = np.zeros((2, 2, 2))
        for view in (sp.numerical_rank, sp.row_reduce_basis):
            with pytest.raises(DimensionMismatchError,
                               match=r"^expected at most 2 dimensions, got shape \(2, 2, 2\)$"):
                view(cube)

    def test_bool_int_and_float_inputs_keep_their_bits(self):
        cases = [[[True, False], [True, True]], [[1, 2, 3], [2, 4, 6], [1, 0, 1]],
                 np.arange(6, dtype=np.int32).reshape(2, 3),
                 np.array([[0.5, 0.25], [1.0, 0.5]], dtype=np.float32), [1.0, 2.0]]
        for m in cases:
            as_float = np.array(m, dtype=float, ndmin=2)
            assert sp.numerical_rank(m) == sp.numerical_rank(as_float)
            assert np.array_equal(sp.row_reduce_basis(m), sp.row_reduce_basis(as_float))
        assert sp.numerical_rank([[True, False], [True, True]]) == 2


class TestSolve:
    def test_solves_random_systems(self):
        for _ in range(20):
            a = RNG.normal(size=(5, 5))
            b = RNG.normal(size=(5, 2))
            x = sp.solve_with_pivoting(a.copy(), b.copy())
            assert np.abs(a @ x - b).max() < 1e-9

    def test_rejects_singular_matrix(self):
        from urdfplus.errors import SingularDependentBlockError

        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularDependentBlockError):
            sp.solve_with_pivoting(a, np.zeros(2))

    def test_non_finite_input_raises(self):
        # a right-hand side with inf solved to [nan nan] with a RuntimeWarning
        with pytest.raises(ConfigurationError, match="^matrix entries must be finite real"):
            sp.solve_with_pivoting(np.eye(2), [math.inf, 1.0])
        with pytest.raises(ConfigurationError, match="^matrix entries must be finite real"):
            sp.solve_with_pivoting([[math.nan, 0.0], [0.0, 1.0]], [1.0, 1.0])

    def test_non_real_or_three_dimensional_input_raises(self):
        with pytest.raises(ConfigurationError):
            sp.solve_with_pivoting(np.eye(2), ["1", "a"])
        with pytest.raises(ConfigurationError):
            sp.solve_with_pivoting(np.eye(2) * 1j, [1.0, 1.0])
        with pytest.raises(DimensionMismatchError, match="^expected at most 2 dimensions"):
            sp.solve_with_pivoting(np.eye(2), np.ones((2, 1, 1)))

    def test_scalar_right_hand_side(self):
        # an IndexError before
        assert np.array_equal(sp.solve_with_pivoting([[2.0]], 4.0), [2.0])

    def test_int_input_keeps_its_bits(self):
        a, b = [[2, 1], [1, 3]], [1, 2]
        assert np.array_equal(sp.solve_with_pivoting(a, b),
                              sp.solve_with_pivoting(np.array(a, dtype=float),
                                                     np.array(b, dtype=float)))
