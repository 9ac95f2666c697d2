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
    FIXED = "fixed"
    REVOLUTE = "revolute"
    CONTINUOUS = "continuous"
    PRISMATIC = "prismatic"
    UNIVERSAL = "universal"
    FLOATING = "floating"

    @property
    def dof(self) -> int:
        return _JOINT_DOF[self]

    @property
    def constraint_count(self) -> int:
        return 6 - _JOINT_DOF[self]

    @property
    def requires_axis(self) -> bool:
        return self in (
            JointType.REVOLUTE,
            JointType.CONTINUOUS,
            JointType.PRISMATIC,
            JointType.UNIVERSAL,
        )

    @property
    def motion_kind(self) -> str:
        """"rotation", "translation", or "mixed" (used by coupling checks)."""
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
    if abs(np.linalg.norm(axis) - 1.0) > UNIT_AXIS_TOL:
        raise NonUnitAxisError(f"axis {axis.tolist()} is not unit-norm")
    return axis


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


def rot_z(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rot_from_rpy(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Fixed-axis X-Y-Z rotation: Rz(yaw) @ Ry(pitch) @ Rx(roll)."""
    return rot_z(yaw) @ rot_y(pitch) @ rot_x(roll)


def rpy_from_rot(r: np.ndarray) -> tuple[float, float, float]:
    """Inverse of rot_from_rpy (roll = 0 at the pitch = +/-pi/2 singularity)."""
    r = np.asarray(r, dtype=float)
    cos_pitch = math.hypot(r[0, 0], r[1, 0])
    pitch = math.atan2(-r[2, 0], cos_pitch)
    if cos_pitch > 1e-9:
        roll = math.atan2(r[2, 1], r[2, 2])
        yaw = math.atan2(r[1, 0], r[0, 0])
    else:
        roll = 0.0
        yaw = math.atan2(-r[0, 1], r[1, 1])
    return roll, pitch, yaw


def rotation_about_axis(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation about a unit axis."""
    k = skew(_check_unit_axis(axis))
    return _rodrigues(k, k @ k, angle)


def _rodrigues(k: np.ndarray, kk: np.ndarray, angle: float) -> np.ndarray:
    """Rotation by `angle` about the unit axis whose skew matrix is k; kk is
    k @ k."""
    return _EYE3 + math.sin(angle) * k + (1.0 - math.cos(angle)) * kk


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
    (see JointKinematics.motion_subspace_at)."""
    q = _joint_position(jt, q)
    return JointKinematics(jt, axis, axis2).motion_subspace_at(q)


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
    unit axes, checked once with the errors of _require_axes, the Rodrigues
    matrices K and K @ K of its rotation axes, and its motion subspace when
    that does not move with the configuration (fixed, revolute, continuous,
    prismatic)."""

    __slots__ = ("joint_type", "a1", "a2", "k1", "kk1", "k2", "kk2", "subspace")

    def __init__(self, jt: JointType, axis=None, axis2=None):
        a1, a2 = _require_axes(jt, axis, axis2)
        self.joint_type = jt
        self.a1, self.a2 = a1, a2
        self.k1 = self.kk1 = self.k2 = self.kk2 = self.subspace = None
        if jt in (JointType.REVOLUTE, JointType.CONTINUOUS, JointType.UNIVERSAL):
            self.k1 = skew(a1)
            self.kk1 = self.k1 @ self.k1
        if jt is JointType.UNIVERSAL:
            self.k2 = skew(a2)
            self.kk2 = self.k2 @ self.k2
        elif jt is not JointType.FLOATING:
            self.subspace = motion_subspace(jt, a1)

    def transform(self, q) -> tuple[np.ndarray, np.ndarray]:
        """Rotation and translation of the child-side joint frame at the
        joint position q (jt.dof entries, not checked)."""
        jt = self.joint_type
        if jt is JointType.FIXED:
            return np.eye(3), np.zeros(3)
        if jt in (JointType.REVOLUTE, JointType.CONTINUOUS):
            return _rodrigues(self.k1, self.kk1, q[0]), np.zeros(3)
        if jt is JointType.PRISMATIC:
            return np.eye(3), q[0] * self.a1
        if jt is JointType.UNIVERSAL:
            first = _rodrigues(self.k1, self.kk1, q[0])
            return first @ _rodrigues(self.k2, self.kk2, q[1]), np.zeros(3)
        # floating: rotate by rpy, place the child origin at xyz
        return rot_from_rpy(q[0], q[1], q[2]), q[3:6]

    def motion_subspace_at(self, q) -> np.ndarray:
        """Motion subspace at joint position q (not checked), in the child
        frame: the constant one, shared and not to be written to; for a
        universal joint the first axis carried back through the second
        rotation, then the second axis; for a floating joint the fixed-axis
        X-Y-Z rate directions over the parent-side translation rates."""
        if self.subspace is not None:
            return self.subspace
        if self.joint_type is JointType.UNIVERSAL:
            s = np.zeros((6, 2))
            s[:3, 0] = _rodrigues(self.k2, self.kk2, q[1]).T @ self.a1
            s[:3, 1] = self.a2
            return s
        s = np.zeros((6, 6))
        s[:3, 0] = np.array([1.0, 0.0, 0.0])
        s[:3, 1] = rot_x(q[0]).T @ np.array([0.0, 1.0, 0.0])
        s[:3, 2] = rot_x(q[0]).T @ rot_y(q[1]).T @ np.array([0.0, 0.0, 1.0])
        s[3:, 3:] = rot_from_rpy(q[0], q[1], q[2]).T
        return s


def joint_transform(jt: JointType, axis, axis2, q) -> SpatialTransform:
    """Pose of the child-side joint frame for joint position q."""
    q = _joint_position(jt, q)
    return SpatialTransform(*JointKinematics(jt, axis, axis2).transform(q))


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0.0):
        raise ConfigurationError(f"tolerance must be a finite number > 0, got {tol!r}")


def numerical_rank(m, tol: float = 1e-10) -> int:
    """Rank by row reduction with partial pivoting.

    A pivot is accepted when its magnitude exceeds tol times the largest
    absolute entry of the original matrix.  The zero matrix has rank 0.
    """
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
    n = a.shape[0]
    squeeze = b.ndim == 1
    if squeeze:
        b = b.reshape(n, 1)
    if b.shape[0] != n:
        raise DimensionMismatchError("right-hand side row count mismatch")
    x = _solve_batch(a[None], b[None], np.zeros(1, dtype=np.intp), tol)[0]
    return x[:, 0] if squeeze else x


def _row_reduce_batch(a: np.ndarray, tol: float) -> np.ndarray:
    """Row-reduce a batch of matrices in lock step, in place, and return
    their ranks.

    `a` is (members, rows, cols), each member zero-padded to that shape.
    Column by column, every member takes its own partially pivoted step:
    the largest entry at or below its next pivot row, accepted when it
    exceeds tol times the member's largest absolute entry.  Each member's
    arithmetic is that of a Gaussian elimination of the member alone (zero
    rows and columns never pivot), so member k's basis is
    a[k, :rank[k]], over its own columns.
    """
    _check_tol(tol)
    count, rows, cols = a.shape
    rank = np.zeros(count, dtype=np.intp)
    if a.size == 0:
        return rank
    threshold = tol * np.abs(a).max(axis=(1, 2))
    members = np.arange(count)
    row_index = np.arange(rows)
    for col in range(cols):
        column = np.abs(a[:, :, col])
        column[row_index < rank[:, None]] = -1.0  # rows that hold a pivot
        pivot = column.argmax(axis=1)
        accept = column[members, pivot] > threshold
        if not accept.any():
            continue
        top = np.where(accept, rank, pivot)  # no swap where nothing pivots
        pivot_rows = a[members, pivot]
        a[members, pivot] = a[members, top]
        a[members, top] = pivot_rows
        below = accept[:, None] & (row_index > top[:, None])
        # x - 0.0 is x, signed zeros included: rows outside `below` keep
        # their bits
        divisor = np.where(accept, pivot_rows[:, col], 1.0)[:, None]
        factors = np.where(below, a[:, :, col] / divisor, 0.0)
        a -= np.where(below[:, :, None], factors[:, :, None] * pivot_rows[:, None, :], 0.0)
        a[:, :, col][below] = 0.0
        rank += accept
        if rank.min() == rows:  # every row holds a pivot
            break
    return rank


def _solve_batch(a: np.ndarray, b: np.ndarray, start: np.ndarray, tol: float
                 ) -> np.ndarray:
    """Solve a batch of square systems in lock step by Gaussian elimination
    with partial pivoting; a and b are overwritten.

    `a` is (members, n, n) and `b` (members, n, m).  Member k's matrix fills
    a[k, start[k]:, start[k]:], its right-hand side b[k, start[k]:], and
    everything else is zero; the leading block becomes the identity, so the
    member's own elimination and back substitution run unchanged in the
    trailing rows.  Member k's solution is x[k, start[k]:].  Raises
    SingularDependentBlockError, naming the member's own column, when a
    pivot is at or below tol times the largest absolute entry of the
    member's matrix.
    """
    _check_tol(tol)
    count, n, _ = a.shape
    if a.size == 0:
        return b
    threshold = tol * np.maximum(np.abs(a).max(axis=(1, 2)), 1e-300)
    members = np.arange(count)
    lead = np.arange(n) < start[:, None]
    member, diagonal = np.nonzero(lead)
    a[member, diagonal, diagonal] = 1.0
    for col in range(n):
        column = np.abs(a[:, col:, col])
        pivot = col + column.argmax(axis=1)
        singular = (column[members, pivot - col] <= threshold) & ~lead[:, col]
        if singular.any():
            k = int(singular.argmax())
            raise SingularDependentBlockError(
                f"pivot {a[k, pivot[k], col]:.3e} below tolerance in column "
                f"{col - start[k]}"
            )
        for m in (a, b):
            pivot_rows = m[members, pivot]
            m[members, pivot] = m[members, col]
            m[:, col] = pivot_rows
        factors = a[:, col + 1 :, col] / a[:, col, col, None]
        a[:, col + 1 :] -= factors[:, :, None] * a[:, col, None, :]
        b[:, col + 1 :] -= factors[:, :, None] * b[:, col, None, :]
    x = np.zeros_like(b)
    for row in range(n - 1, -1, -1):
        x[:, row] = ((b[:, row] - (a[:, row, None, row + 1 :] @ x[:, row + 1 :])[:, 0])
                     / a[:, row, row, None])
    return x
