"""Minimal spatial-vector and dense-matrix kernel.

3D rotations, rigid transforms, 6D motion re-expression, joint motion /
constraint-force subspaces, and tolerance-based numerical rank, with the
lock-step Gaussian elimination of a batch of matrices behind it.  All
6-vectors use Plucker coordinates with the angular part in rows 0-2 and the
linear part in rows 3-5.
"""

from __future__ import annotations

import enum
import math
from functools import cached_property

import numpy as np

from .errors import (
    AntipodalRotationError,
    ConfigurationError,
    DimensionMismatchError,
    NonUnitAxisError,
    SingularDependentBlockError,
)

UNIT_AXIS_TOL = 1e-9
ORTHOGONAL_AXES_TOL = 1e-9  # |axis . axis2| allowed for a universal joint
ANTIPODAL_TOL = 1e-9  # so3_log refuses angles this close to pi
_EYE3 = np.eye(3)  # an operand only, never handed out


class JointType(enum.Enum):
    """A URDF joint type; its derived attributes are cached on the member, as
    reading members off the class costs a reader or validator per joint."""

    FIXED = "fixed"
    REVOLUTE = "revolute"
    CONTINUOUS = "continuous"
    PRISMATIC = "prismatic"
    UNIVERSAL = "universal"
    FLOATING = "floating"

    @cached_property
    def dof(self) -> int:
        return _JOINT_DOF[self]

    @cached_property
    def constraint_count(self) -> int:
        return 6 - _JOINT_DOF[self]

    @cached_property
    def requires_axis(self) -> bool:
        return self in (
            JointType.REVOLUTE,
            JointType.CONTINUOUS,
            JointType.PRISMATIC,
            JointType.UNIVERSAL,
        )

    @cached_property
    def motion_kind(self) -> str:
        """"rotation", "translation", "mixed", or "none" for a fixed joint
        (used by coupling checks)."""
        if self in (JointType.REVOLUTE, JointType.CONTINUOUS, JointType.UNIVERSAL):
            return "rotation"
        if self is JointType.PRISMATIC:
            return "translation"
        if self is JointType.FIXED:
            return "none"
        return "mixed"


_JOINT_DOF = {
    JointType.FIXED: 0,
    JointType.REVOLUTE: 1,
    JointType.CONTINUOUS: 1,
    JointType.PRISMATIC: 1,
    JointType.UNIVERSAL: 2,
    JointType.FLOATING: 6,
}


def _as_vec3(v) -> np.ndarray:
    a = np.asarray(v, dtype=float).reshape(-1)
    if a.shape != (3,):
        raise DimensionMismatchError(f"expected a 3-vector, got shape {a.shape}")
    return a


def _check_unit_axis(axis: np.ndarray) -> np.ndarray:
    axis = _as_vec3(axis)
    if not abs(np.linalg.norm(axis) - 1.0) <= UNIT_AXIS_TOL:  # NaN fails too
        raise NonUnitAxisError(f"axis {axis.tolist()} is not unit-norm")
    return axis


def skew(v) -> np.ndarray:
    """Cross-product matrix: skew(v) @ w == cross(v, w)."""
    return _skews(_as_vec3(v)[None])[0]


def rot_x(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rot_from_rpy(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Fixed-axis X-Y-Z rotation: Rz(yaw) @ Ry(pitch) @ Rx(roll)."""
    return _rots_from_rpy([(roll, pitch, yaw)])[0]


def _rots_from_rpy(triples) -> np.ndarray:
    """rot_from_rpy of each (roll, pitch, yaw) triple, as one (K, 3, 3) array.

    One stacked product multiplies the factors of _rpy_factors in order, so
    a rotation has the same bits whether it is made alone or among many."""
    factors = _rpy_factors(triples)
    return factors[:, 0] @ factors[:, 1] @ factors[:, 2]


# where each entry of _rpy_factors' three matrices comes from among
# cos(roll, pitch, yaw) 0-2, their sines 3-5, the negated sines 6-8, 0.0, 1.0
_RPY_FACTOR_AT = np.array([2, 8, 9, 5, 2, 9, 9, 9, 10,
                           1, 9, 4, 9, 10, 9, 7, 9, 1,
                           10, 9, 9, 9, 0, 6, 9, 3, 0])


def _rpy_factors(triples) -> np.ndarray:
    """rot_z(yaw), rot_y(pitch) and rot_x(roll) of each (roll, pitch, yaw)
    triple, entry for entry, as one (K, 3, 3, 3) array.  Each triple gives
    eleven values, and one gather places them: a 27-entry row per triple
    would cost numpy a conversion per entry."""
    values = []
    for roll, pitch, yaw in triples:
        sr, sp, sy = math.sin(roll), math.sin(pitch), math.sin(yaw)
        values += (math.cos(roll), math.cos(pitch), math.cos(yaw),
                   sr, sp, sy, -sr, -sp, -sy, 0.0, 1.0)
    return np.array(values).reshape(-1, 11)[:, _RPY_FACTOR_AT].reshape(-1, 3, 3, 3)


def rpy_from_rot(r: np.ndarray) -> tuple[float, float, float]:
    """Inverse of rot_from_rpy (roll = 0 at the pitch = +/-pi/2 singularity)."""
    return _rpy_from_rows(np.asarray(r, dtype=float)[:3, :3].tolist())


def _rpy_from_rows(rows) -> tuple[float, float, float]:
    """rpy_from_rot of a rotation given as three rows of Python floats."""
    (r00, r01, _), (r10, r11, _), (r20, r21, r22) = rows
    cos_pitch = math.hypot(r00, r10)
    pitch = math.atan2(-r20, cos_pitch)
    if cos_pitch > 1e-9:
        roll = math.atan2(r21, r22)
        yaw = math.atan2(r10, r00)
    else:
        roll = 0.0
        yaw = math.atan2(-r01, r11)
    return roll, pitch, yaw


def rotation_about_axis(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation about a unit axis."""
    k = skew(_check_unit_axis(axis))
    return _rodrigues(k[None], (k @ k)[None], [angle])[0]


def _rodrigues(k: np.ndarray, kk: np.ndarray, angles) -> np.ndarray:
    """Rotations by `angles` about the unit axes whose skew matrices are the
    (K, 3, 3) stack k; kk is k @ k.  Sines and cosines come from `math`, so
    a rotation has the same bits whether it is made alone or among many."""
    angles = np.asarray(angles, dtype=float).tolist()
    sines = np.array([math.sin(a) for a in angles])
    versines = np.array([1.0 - math.cos(a) for a in angles])
    return _EYE3 + sines[:, None, None] * k + versines[:, None, None] * kk


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


class SpatialTransform:
    """Rigid pose of a child frame relative to a parent frame.

    Maps child-frame point coordinates into the parent frame:
    p_parent = rot @ p_child + trans.
    """

    __slots__ = ("rot", "trans")

    def __init__(self, rot=None, trans=None):
        self.rot = np.eye(3) if rot is None else np.array(rot, dtype=float)
        self.trans = np.zeros(3) if trans is None else _as_vec3(trans)
        if self.rot.shape != (3, 3):
            raise DimensionMismatchError(f"rotation must be 3x3, got {self.rot.shape}")

    @classmethod
    def identity(cls) -> "SpatialTransform":
        return cls()

    @classmethod
    def _raw(cls, rot: np.ndarray, trans: np.ndarray) -> "SpatialTransform":
        """Wrap a float 3x3 rotation and 3-vector translation as they are,
        without checking or copying them."""
        x = object.__new__(cls)
        x.rot = rot
        x.trans = trans
        return x

    @classmethod
    def from_rpy_xyz(cls, rpy, xyz) -> "SpatialTransform":
        """Standard URDF origin semantics: position xyz, orientation rpy."""
        r, p, y = _as_vec3(rpy)
        return cls(rot_from_rpy(r, p, y), xyz)

    def is_identity(self, tol: float = 0.0) -> bool:
        return bool(
            np.all(np.abs(self.rot - np.eye(3)) <= tol)
            and np.all(np.abs(self.trans) <= tol)
        )

    def __repr__(self) -> str:
        return f"SpatialTransform(rot={self.rot.tolist()}, trans={self.trans.tolist()})"


def compose(a: SpatialTransform, b: SpatialTransform) -> SpatialTransform:
    """Pose composition: the result maps coordinates through b, then a."""
    return SpatialTransform._raw(a.rot @ b.rot, a.rot @ b.trans + a.trans)


def invert(x: SpatialTransform) -> SpatialTransform:
    rt = x.rot.T
    # a copy, so the inverse does not share memory with x
    return SpatialTransform._raw(np.array(rt, dtype=float), -(rt @ x.trans))


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


# Stacked forms of the kernels above, for K poses (rot (K, 3, 3), trans
# (K, 3)) at once.  Each is the same expression, products through `matmul`
# and transposes as views, so every pose gets the bits it gets alone.


def _skews(v: np.ndarray) -> np.ndarray:
    """The cross-product matrix of each row of a (K, 3) array."""
    x, y, z = v.T
    out = np.zeros((len(v), 3, 3))
    out[:, 0, 1], out[:, 0, 2] = -z, y
    out[:, 1, 0], out[:, 1, 2] = z, -x
    out[:, 2, 0], out[:, 2, 1] = -y, x
    return out


def _composed(a_rot, a_trans, b_rot, b_trans) -> tuple[np.ndarray, np.ndarray]:
    """compose of K pose pairs."""
    return a_rot @ b_rot, (a_rot @ b_trans[:, :, None])[:, :, 0] + a_trans


def _motion_maps(rot: np.ndarray, trans: np.ndarray, v: np.ndarray) -> np.ndarray:
    """motion_map of K poses and K 6 x k matrices v (K, 6, k)."""
    w = rot @ v[:, :3]
    return np.concatenate([w, rot @ v[:, 3:] + _skews(trans) @ w], axis=1)


def orthonormal_complement_2(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two unit vectors completing `axis` to a right-handed orthonormal triad.

    Deterministic: Gram-Schmidt against the canonical basis vector least
    aligned with `axis` (first index on ties).
    """
    axis = _check_unit_axis(axis)
    e = np.zeros(3)
    e[int(np.argmin(np.abs(axis)))] = 1.0
    b = e - np.dot(e, axis) * axis
    b /= np.linalg.norm(b)
    c = np.cross(axis, b)
    return b, c


def default_second_axis(axis) -> np.ndarray:
    """Deterministic second rotation axis for a universal joint lacking one."""
    b, _ = orthonormal_complement_2(_check_unit_axis(axis))
    return b


def _require_axes(jt: JointType, axis, axis2):
    a1 = _check_unit_axis(axis) if axis is not None else None
    if jt.requires_axis and a1 is None:
        raise NonUnitAxisError(f"joint type {jt.value} requires an axis")
    if jt is JointType.UNIVERSAL:
        a2 = _check_unit_axis(axis2) if axis2 is not None else default_second_axis(a1)
        if abs(np.dot(a1, a2)) > ORTHOGONAL_AXES_TOL:
            raise NonUnitAxisError("universal joint axes must be orthogonal")
        return a1, a2
    return a1, None


def motion_subspace(jt: JointType, axis=None, axis2=None) -> np.ndarray:
    """6 x n matrix of unit motion directions permitted by the joint,
    expressed at the joint's zero configuration."""
    a1, a2 = _require_axes(jt, axis, axis2)
    if jt is JointType.FIXED:
        return np.zeros((6, 0))
    if jt in (JointType.REVOLUTE, JointType.CONTINUOUS):
        return np.concatenate([a1, np.zeros(3)]).reshape(6, 1)
    if jt is JointType.PRISMATIC:
        return np.concatenate([np.zeros(3), a1]).reshape(6, 1)
    if jt is JointType.UNIVERSAL:
        s = np.zeros((6, 2))
        s[:3, 0] = a1
        s[:3, 1] = a2
        return s
    return np.eye(6)  # floating


def _joint_position(jt: JointType, q) -> np.ndarray:
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if q.shape[0] != jt.dof:
        raise DimensionMismatchError(
            f"joint type {jt.value} takes {jt.dof} coordinates, got {q.shape[0]}"
        )
    return q


def motion_subspace_at(jt: JointType, axis, axis2, q) -> np.ndarray:
    """Motion subspace at joint position q, expressed in the child frame
    (see _JointStack.subspaces)."""
    q = _joint_position(jt, q)
    return _JointStack([JointKinematics(jt, axis, axis2)], [0]).subspaces(q, [0])[0]


def constraint_force_subspace(jt: JointType, axis=None, axis2=None) -> np.ndarray:
    """6 x (6 - n) orthonormal complement of the motion subspace."""
    a1, a2 = _require_axes(jt, axis, axis2)
    if jt is JointType.FIXED:
        return np.eye(6)
    if jt is JointType.FLOATING:
        return np.zeros((6, 0))
    if jt in (JointType.REVOLUTE, JointType.CONTINUOUS):
        b, c = orthonormal_complement_2(a1)
        psi = np.zeros((6, 5))
        psi[:3, 0] = b
        psi[:3, 1] = c
        psi[3:, 2:] = np.eye(3)
        return psi
    if jt is JointType.PRISMATIC:
        b, c = orthonormal_complement_2(a1)
        psi = np.zeros((6, 5))
        psi[:3, :3] = np.eye(3)
        psi[3:, 3] = b
        psi[3:, 4] = c
        return psi
    # universal: the blocked rotation direction plus all translations
    n = np.cross(a1, a2)
    n /= np.linalg.norm(n)
    psi = np.zeros((6, 4))
    psi[:3, 0] = n
    psi[3:, 1:] = np.eye(3)
    return psi


class JointKinematics:
    """The configuration-independent part of one joint's kinematics: its
    type and unit axes, checked once with the errors of _require_axes, a
    zero vector for an axis it lacks."""

    __slots__ = ("joint_type", "a1", "a2")

    def __init__(self, jt: JointType, axis=None, axis2=None):
        self.joint_type = jt
        self.a1, self.a2 = (np.zeros(3) if a is None else a
                            for a in _require_axes(jt, axis, axis2))


class _JointStack:
    """The kinematics of many joints at once, from their JointKinematics and
    the position of each one's first coordinate in one position vector.
    Every joint of a type goes through one stacked expression, sines and
    cosines through `math`, so each joint's transform and subspace have the
    bits they have for that joint alone."""

    def __init__(self, joints, starts):
        kinds = [joint.joint_type for joint in joints]
        self.dof = np.array([kind.dof for kind in kinds], dtype=np.intp)
        self.starts = np.array(starts, dtype=np.intp).reshape(len(kinds))
        self._spin, self._slide, self._cross, self._free = (
            np.array([i for i, kind in enumerate(kinds) if kind in group], dtype=np.intp)
            for group in ((JointType.REVOLUTE, JointType.CONTINUOUS),
                          (JointType.PRISMATIC,), (JointType.UNIVERSAL,),
                          (JointType.FLOATING,)))
        self._a1 = np.array([joint.a1 for joint in joints]).reshape(-1, 3)
        self._a2 = np.array([joint.a2 for joint in joints]).reshape(-1, 3)
        k1, k2 = _skews(self._a1), _skews(self._a2)
        self._k = k1, k1 @ k1, k2, k2 @ k2  # the Rodrigues K and K @ K of each axis
        self._constant = np.zeros((len(kinds), 6, 1))  # subspaces of 1-DoF joints
        self._constant[self._spin, :3, 0] = self._a1[self._spin]
        self._constant[self._slide, 3:, 0] = self._a1[self._slide]

    def transforms(self, q) -> tuple[np.ndarray, np.ndarray]:
        """Rotations (count, 3, 3) and translations (count, 3) of the
        child-side joint frames at the position vector q (not checked)."""
        rot = np.repeat(_EYE3[None], len(self.dof), axis=0)
        trans = np.zeros((len(self.dof), 3))
        (k1, kk1, k2, kk2), start = self._k, self.starts
        if (j := self._spin).size:
            rot[j] = _rodrigues(k1[j], kk1[j], q[start[j]])
        if (j := self._slide).size:
            trans[j] = q[start[j], None] * self._a1[j]
        if (j := self._cross).size:
            rot[j] = (_rodrigues(k1[j], kk1[j], q[start[j]])
                      @ _rodrigues(k2[j], kk2[j], q[start[j] + 1]))
        if (j := self._free).size:  # rotate by rpy, place the child origin at xyz
            position = q[start[j, None] + np.arange(6)]
            rot[j] = _rots_from_rpy(position[:, :3].tolist())
            trans[j] = position[:, 3:]
        return rot, trans

    def subspaces(self, q, joints) -> np.ndarray:
        """Motion subspaces at the position vector q (not checked) of
        `joints`, which share one DoF k, as (len(joints), 6, k) in the child
        frames: the constant one of a joint with k < 2; for a universal
        joint the first axis carried back through the second rotation, then
        the second axis; for a floating joint the fixed-axis X-Y-Z rate
        directions over the parent-side translation rates."""
        dof = int(self.dof[joints[0]])
        if dof < 2:
            return self._constant[joints][:, :, :dof]
        start = self.starts[joints]
        s = np.zeros((len(start), 6, dof))
        if dof == 2:
            back = _rodrigues(self._k[2][joints], self._k[3][joints], q[start + 1])
            s[:, :3, 0] = (back.transpose(0, 2, 1) @ self._a1[joints][:, :, None])[:, :, 0]
            s[:, :3, 1] = self._a2[joints]
            return s
        rpy = q[start[:, None] + np.arange(3)].tolist()
        factors = _rpy_factors(rpy)
        x_t, y_t = factors[:, 2].transpose(0, 2, 1), factors[:, 1].transpose(0, 2, 1)
        s[:, 0, 0] = 1.0
        s[:, :3, 1] = x_t @ np.array([0.0, 1.0, 0.0])
        s[:, :3, 2] = x_t @ y_t @ np.array([0.0, 0.0, 1.0])
        s[:, 3:, 3:] = _rots_from_rpy(rpy).transpose(0, 2, 1)
        return s


def joint_transform(jt: JointType, axis, axis2, q) -> SpatialTransform:
    """Pose of the child-side joint frame for joint position q."""
    q = _joint_position(jt, q)
    rot, trans = _JointStack([JointKinematics(jt, axis, axis2)], [0]).transforms(q)
    return SpatialTransform(rot[0], trans[0])


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0.0):
        raise ConfigurationError(f"tolerance must be a finite number > 0, got {tol!r}")


def numerical_rank(m, tol: float = 1e-10) -> int:
    """Rank by row reduction with partial pivoting: the row count of
    row_reduce_basis(m, tol).  The zero matrix has rank 0."""
    return len(row_reduce_basis(m, tol))


def row_reduce_basis(m, tol: float = 1e-10) -> np.ndarray:
    """Row-space basis via Gaussian elimination with partial pivoting.

    Returns the accepted pivot rows of the reduced matrix (full row rank,
    same row space as the input).  The pivot-acceptance threshold is
    relative to the largest absolute entry of the original matrix; tol must
    be finite and > 0 (ConfigurationError otherwise).
    """
    a = np.array(m, dtype=float, ndmin=2)
    rank = _row_reduce_batch(a[None], tol)[0]
    return a[:rank]


def solve_with_pivoting(a, b, tol: float = 1e-10) -> np.ndarray:
    """Solve a @ x = b by Gaussian elimination with partial pivoting.

    Raises SingularDependentBlockError when any pivot falls below tol times
    the largest absolute entry of `a`; no least-squares fallback.  tol must
    be finite and > 0 (ConfigurationError otherwise).
    """
    _check_tol(tol)
    a = np.array(a, dtype=float, ndmin=2)
    b = np.array(b, dtype=float)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"matrix must be square, got {a.shape}")
    squeeze = b.ndim == 1
    if squeeze:
        b = b.reshape(len(a), 1)
    if b.shape[0] != len(a):
        raise DimensionMismatchError("right-hand side row count mismatch")
    x = _solve_batch(a[None], b[None], np.zeros(1, dtype=np.intp), tol)[0]
    return x[:, 0] if squeeze else x


def _row_reduce_batch(a: np.ndarray, tol: float) -> np.ndarray:
    """Row-reduce a batch of zero-padded matrices (members, rows, cols) in
    lock step, in place, and return their ranks.  A pivot is accepted when
    it exceeds tol times the member's largest absolute entry; zero rows and
    columns never pivot, so member k's basis is a[k, :rank[k]]."""
    _check_tol(tol)
    threshold = tol * np.abs(a).max(axis=(1, 2), initial=0.0)
    return _forward_pass(a, [threshold] * a.shape[2])


def _solve_batch(a: np.ndarray, b: np.ndarray, start: np.ndarray, tol: float
                 ) -> np.ndarray:
    """Solve a batch of square systems in lock step by Gaussian elimination
    with partial pivoting: a is (members, n, n) and b (members, n, m).

    Member k's matrix fills a[k, start[k]:, start[k]:] and its right-hand
    side b[k, start[k]:], the rest is zero; the leading block becomes the
    identity, its pivots exempt from the threshold, and x[k, start[k]:] is
    the member's solution.  Raises SingularDependentBlockError, naming the
    member's own column, when a pivot is at or below tol times the largest
    absolute entry of the member's matrix.
    """
    return _back_substitute(*_eliminate_batch(a, b, start, tol))


def _eliminate_batch(a: np.ndarray, b: np.ndarray, start: np.ndarray, tol: float,
                     names: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The forward elimination of _solve_batch, as (a, b).  It works on each
    right-hand side column entry by entry, apart from the others.  An error
    names member k's column c as names[k, c], by default c - start[k]."""
    _check_tol(tol)
    n = a.shape[1]
    threshold = tol * np.abs(a).max(axis=(1, 2), initial=1e-300)
    lead = np.arange(n) < start[:, None]
    system = np.concatenate((a, b), axis=2)
    member, diagonal = np.nonzero(lead)
    system[member, diagonal, diagonal] = 1.0
    rank = _forward_pass(system, np.where(lead, 0.0, threshold[:, None]).T,
                         stop_at_refusal=True)
    if rank.min(initial=n) < n:
        k = int(rank.argmin())  # the first member that refused, in column rank[k]
        column = system[k, rank[k] :, rank[k]]
        name = rank[k] - start[k] if names is None else names[k, rank[k]]
        raise SingularDependentBlockError(f"pivot {column[np.abs(column).argmax()]:.3e} "
                                          f"below tolerance in column {name}")
    return system[:, :, :n], system[:, :, n:]


def _back_substitute(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with a @ x = b for a batch of upper triangular a.  Each row is one
    product over all of b's columns, whose bits depend on their number."""
    x = np.zeros_like(b)
    for row in range(a.shape[1] - 1, -1, -1):
        x[:, row] = ((b[:, row] - (a[:, row, None, row + 1 :] @ x[:, row + 1 :])[:, 0])
                     / a[:, row, row, None])
    return x


def _forward_pass(a: np.ndarray, thresholds, stop_at_refusal: bool = False) -> np.ndarray:
    """Forward elimination with partial pivoting of a batch of matrices
    (members, rows, cols) in lock step, in place; returns their ranks.

    In each column c < len(thresholds) (later ones are carried along), every
    member takes the largest entry at or below its next pivot row, accepts
    it when it exceeds its entry of thresholds[c], swaps it into place and
    eliminates below it; every other row keeps its bits.  With
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
        column = np.abs(t[:, :, col])
        column[ids < slot] = -1.0  # rows that hold a pivot
        pivot = column.argmax(axis=0) * count + ids[0]  # ids[0]: the member indices
        accept = column.take(pivot) > threshold
        accepted = np.count_nonzero(accept)
        if accepted:
            pivot_rows = by_id.take(pivot, axis=0)
            dest, last, divisor = slot, slot, pivot_rows[:, col]
            if accepted < count:  # a member that refuses keeps its rows
                dest = np.where(accept, slot, pivot)
                last = np.where(accept, slot, ids.size)
                divisor = np.where(accept, divisor, 1.0)
            by_id[pivot] = by_id.take(dest, axis=0)
            by_id[dest] = pivot_rows
            rest = t[lead + 1 :]  # the rows below every member's pivot
            below = ids[lead + 1 :] > last
            factors = rest[:, :, col] / divisor
            # masked: outside `below`, x - 0.0 * p can turn -0.0 into 0.0
            np.subtract(rest, factors[:, :, None] * pivot_rows, out=rest,
                        where=below[:, :, None])
            rest[:, :, col][below] = 0.0
            np.add(slot, count, out=slot, where=accept)
            lead += accepted == count and lead == col
        if stop_at_refusal and accepted < count:
            break
    a[...] = t.transpose(1, 0, 2)
    return slot // count
