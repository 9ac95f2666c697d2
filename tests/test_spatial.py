import math

import numpy as np
import pytest

import urdfplus.spatial as sp
from urdfplus.errors import (
    AntipodalRotationError,
    ConfigurationError,
    DimensionMismatchError,
    NonUnitAxisError,
)
from urdfplus.spatial import JointType

RNG = np.random.default_rng(20240817)


def random_transform(rng=RNG) -> sp.SpatialTransform:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(-math.pi + 0.1, math.pi - 0.1)
    return sp.SpatialTransform(
        sp.rotation_about_axis(axis, angle), rng.normal(size=3)
    )


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
        expected = (
            sp.rotation_about_axis([0, 0, 1], 2.0)
            @ sp.rotation_about_axis([0, 1, 0], -0.4)
            @ sp.rotation_about_axis([1, 0, 0], 0.1)
        )
        assert np.abs(r - expected).max() < 1e-12

    def test_rpy_round_trip(self):
        for _ in range(100):
            rpy = RNG.uniform(-1.4, 1.4, size=3)
            r = sp.rot_from_rpy(*rpy)
            back = sp.rot_from_rpy(*sp.rpy_from_rot(r))
            assert np.abs(r - back).max() < 1e-12

    def test_so3_log_round_trip(self):
        for _ in range(100):
            axis = RNG.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = RNG.uniform(1e-6, math.pi - 1e-3)
            w = sp.so3_log(sp.rotation_about_axis(axis, angle))
            assert np.abs(w - axis * angle).max() < 1e-9

    def test_so3_log_rejects_half_turn(self):
        with pytest.raises(AntipodalRotationError):
            sp.so3_log(sp.rotation_about_axis([0, 0, 1], math.pi))


def log_outcome(log, r):
    """The bytes of log(r), or the type and message of its error."""
    try:
        return "value", log(r).tobytes()
    except AntipodalRotationError as exc:
        return "error", (type(exc), str(exc))


def rodrigues_stack(axes, angles):
    """Rotations about the rows of `axes` by `angles`, as one (K, 3, 3)
    array; any rounding will do, both logs get the same matrices."""
    k = sp._skews(axes / np.linalg.norm(axes, axis=1)[:, None])
    return (np.eye(3) + np.sin(angles)[:, None, None] * k
            + (1.0 - np.cos(angles))[:, None, None] * (k @ k))


class TestSo3LogAgainstPinnedOracle:
    """so3_log reads the 3 x 3 as Python floats; the array version it
    replaced, pinned in the kinematic-plan oracle, must give the same bits
    or the same error."""

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
        for r in rotations:
            want = log_outcome(oracle, r)
            assert log_outcome(sp.so3_log, r) == want, r.tolist()
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
        for r in (np.eye(3), *tiny, over, skewed, signed):
            angle = math.acos(min(max((np.trace(r) - 1.0) * 0.5, -1.0), 1.0))
            assert angle < 1e-12
            assert log_outcome(sp.so3_log, r) == log_outcome(oracle, r)

    def test_half_turn_error(self):
        from test_kinematic_plan import so3_log as oracle

        turns = rodrigues_stack(np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]),
                                np.array([math.pi, math.pi - 1e-10]))
        for r in (*turns, np.diag([1.0, -1.0, -1.0])):
            got, want = log_outcome(sp.so3_log, r), log_outcome(oracle, r)
            assert got[0] == "error" and got == want
            assert got[1][1].startswith("rotation angle ")


class TestTransforms:
    def test_compose_identity(self):
        x = random_transform()
        out = sp.compose(sp.SpatialTransform.identity(), x)
        assert np.abs(out.rot - x.rot).max() < 1e-15
        assert np.abs(out.trans - x.trans).max() < 1e-15

    def test_compose_with_inverse_is_identity(self):
        x = random_transform()
        assert sp.compose(x, sp.invert(x)).is_identity(1e-12)

    def test_translations_commute(self):
        a = sp.SpatialTransform(trans=[1, 0, 0])
        b = sp.SpatialTransform(trans=[0, 2, 0])
        assert np.allclose(sp.compose(a, b).trans, [1, 2, 0])

    def test_invert_identity(self):
        assert sp.invert(sp.SpatialTransform.identity()).is_identity()

    def test_invert_pure_translation(self):
        x = sp.SpatialTransform(trans=[1.0, -2.0, 3.0])
        assert np.allclose(sp.invert(x).trans, [-1.0, 2.0, -3.0])

    def test_inverse_composes_to_identity_in_bulk(self):
        for _ in range(1000):
            x = random_transform()
            assert sp.compose(sp.invert(x), x).is_identity(1e-12)


class TestMotionMap:
    def test_identity_map(self):
        v = RNG.normal(size=6)
        assert np.allclose(sp.motion_map(sp.SpatialTransform.identity(), v), v)

    def test_pure_rotation_rotates_angular_part(self):
        x = sp.SpatialTransform(sp.rotation_about_axis([0, 0, 1], math.pi / 2))
        out = sp.motion_map(x, [1, 0, 0, 0, 0, 0])
        assert np.abs(out - [0, 1, 0, 0, 0, 0]).max() < 1e-15

    def test_lever_arm_matches_point_velocity_finite_difference(self):
        # A body rotates about the child-frame origin sitting at r.  The
        # mapped linear part must equal the velocity of the body-fixed point
        # that currently coincides with the parent origin.
        r = np.array([0.3, -0.7, 0.2])
        w = np.array([0.4, 1.1, -0.6])
        x = sp.SpatialTransform(trans=r)
        mapped = sp.motion_map(x, np.concatenate([w, np.zeros(3)]))
        h = 1e-7
        p_plus = r + sp.rotation_about_axis(w / np.linalg.norm(w),
                                            np.linalg.norm(w) * h) @ (-r)
        p_minus = r + sp.rotation_about_axis(w / np.linalg.norm(w),
                                             -np.linalg.norm(w) * h) @ (-r)
        fd = (p_plus - p_minus) / (2 * h)
        assert np.abs(mapped[3:] - fd).max() < 1e-6
        assert np.abs(mapped[:3] - w).max() < 1e-15

    def test_linearity(self):
        x = random_transform()
        u, v = RNG.normal(size=6), RNG.normal(size=6)
        a, b = 0.7, -2.3
        lhs = sp.motion_map(x, a * u + b * v)
        rhs = a * sp.motion_map(x, u) + b * sp.motion_map(x, v)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_matrix_columns_map_like_vectors(self):
        x = random_transform()
        m = RNG.normal(size=(6, 4))
        mapped = sp.motion_map(x, m)
        for k in range(4):
            assert np.allclose(mapped[:, k], sp.motion_map(x, m[:, k]))


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
            second = sp.default_second_axis(axis)
            assert abs(np.linalg.norm(second) - 1) < 1e-12
            assert abs(np.dot(second, axis)) < 1e-12


class TestJointTransform:
    def test_revolute_zero_is_identity(self):
        x = sp.joint_transform(JointType.REVOLUTE, [0, 0, 1], None, [0.0])
        assert x.is_identity()

    def test_prismatic_translates_along_axis(self):
        x = sp.joint_transform(JointType.PRISMATIC, [1, 0, 0], None, [2.5])
        assert np.allclose(x.trans, [2.5, 0, 0])
        assert np.allclose(x.rot, np.eye(3))

    def test_universal_composes_two_axis_rotations(self):
        x = sp.joint_transform(
            JointType.UNIVERSAL, [1, 0, 0], [0, 1, 0], [0.3, 0.4]
        )
        expected = sp.rot_x(0.3) @ sp.rot_y(0.4)
        assert np.abs(x.rot - expected).max() < 1e-12

    def test_floating_orders_rotation_then_translation(self):
        q = [0.1, 0.2, 0.3, 1.0, 2.0, 3.0]
        x = sp.joint_transform(JointType.FLOATING, None, None, q)
        assert np.abs(x.rot - sp.rot_from_rpy(0.1, 0.2, 0.3)).max() < 1e-12
        assert np.allclose(x.trans, [1, 2, 3])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            sp.joint_transform(JointType.REVOLUTE, [0, 0, 1], None, [0.1, 0.2])

    def test_universal_subspace_tracks_configuration(self):
        # first axis carried back through the second rotation
        s = sp.motion_subspace_at(
            JointType.UNIVERSAL, [1, 0, 0], [0, 1, 0], [0.0, 0.5]
        )
        expected = sp.rot_y(0.5).T @ np.array([1.0, 0.0, 0.0])
        assert np.abs(s[:3, 0] - expected).max() < 1e-12
        assert np.allclose(s[:3, 1], [0, 1, 0])

    def test_floating_subspace_matches_finite_difference(self):
        q = np.array([0.4, -0.3, 0.8, 0.5, -1.0, 2.0])
        s = sp.motion_subspace_at(JointType.FLOATING, None, None, q)
        h = 1e-7
        for k in range(6):
            dq = np.zeros(6)
            dq[k] = h
            a = sp.joint_transform(JointType.FLOATING, None, None, q + dq)
            b = sp.joint_transform(JointType.FLOATING, None, None, q - dq)
            rel = sp.compose(sp.invert(b), a)  # motion seen in the child frame
            w = sp.so3_log(rel.rot) / (2 * h)
            # translation rate of the child origin, expressed in child coords
            x0 = sp.joint_transform(JointType.FLOATING, None, None, q)
            v = x0.rot.T @ (a.trans - b.trans) / (2 * h)
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
