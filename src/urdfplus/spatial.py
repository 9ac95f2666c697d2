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
from itertools import chain
from types import SimpleNamespace

import numpy as np

from .errors import (
    ConfigurationError,
    DimensionMismatchError,
    NonUnitAxisError,
    SingularDependentBlockError,
)

UNIT_AXIS_TOL = 1e-9
ORTHOGONAL_AXES_TOL = 1e-9  # |axis . axis2| allowed for a universal joint
ANTIPODAL_TOL = 1e-9  # _so3_logs reports angles this close to pi as half-turns
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


def rot_from_rpy(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Fixed-axis X-Y-Z rotation: Rz(yaw) @ Ry(pitch) @ Rx(roll)."""
    return _rots_from_rpy([(roll, pitch, yaw)])[0]


def _rots_from_rpy(triples) -> np.ndarray:
    """rot_from_rpy of each (roll, pitch, yaw) triple, as one (K, 3, 3) array."""
    return _rpy_product(_rpy_factors(triples))


def _rpy_product(factors: np.ndarray) -> np.ndarray:
    """The rotations whose _rpy_factors are `factors`, multiplied in one
    stacked product in a fixed order, so a rotation has the same bits
    whether it is made alone or among many."""
    return factors[:, 0] @ factors[:, 1] @ factors[:, 2]


# where each entry of _rpy_factors' three matrices comes from among
# cos(roll, pitch, yaw) 0-2, their sines 3-5, the negated sines 6-8, 0.0, 1.0
_RPY_FACTOR_AT = np.array([2, 8, 9, 5, 2, 9, 9, 9, 10,
                           1, 9, 4, 9, 10, 9, 7, 9, 1,
                           10, 9, 9, 9, 0, 6, 9, 3, 0])
_ZERO_ONE = np.array([0.0, 1.0])  # the last two of those


def _rpy_factors(triples) -> np.ndarray:
    """The rotations about z by yaw, about y by pitch and about x by roll of
    each (roll, pitch, yaw) triple of a sequence, as one (K, 3, 3, 3) array.
    One `map` each takes the cosines and the sines of all the angles; each
    triple's row holds its three cosines, sines and negated sines, 0.0 and
    1.0, and one gather places them: a 27-entry row per triple would cost
    numpy a conversion per entry."""
    angles = list(chain.from_iterable(triples))
    n = len(angles)
    values = np.empty((n // 3, 11))
    values[:, :3] = np.fromiter(map(math.cos, angles), float, n).reshape(-1, 3)
    sines = np.fromiter(map(math.sin, angles), float, n).reshape(-1, 3)
    values[:, 3:6] = sines
    np.negative(sines, out=values[:, 6:9])
    values[:, 9:] = _ZERO_ONE
    return values.take(_RPY_FACTOR_AT, axis=1).reshape(-1, 3, 3, 3)


def _rpy_from_rows(rows) -> tuple[float, float, float]:
    """(roll, pitch, yaw) of a rotation given as three rows of Python floats,
    the inverse of rot_from_rpy (roll = 0 at the pitch = +/-pi/2 singularity)."""
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


def _rodrigues(k: np.ndarray, kk: np.ndarray, angles) -> np.ndarray:
    """Rotations by `angles` about the unit axes whose skew matrices are the
    (K, 3, 3) stack k; kk is k @ k.  Sines and cosines come from `math`, so
    a rotation has the same bits whether it is made alone or among many."""
    angles = np.asarray(angles, dtype=float).tolist()
    sines = np.fromiter(map(math.sin, angles), float, len(angles))
    versines = 1.0 - np.fromiter(map(math.cos, angles), float, len(angles))
    return _EYE3 + sines[:, None, None] * k + versines[:, None, None] * kk


def _so3_logs(rotations: np.ndarray) -> tuple[np.ndarray, dict[int, str]]:
    """The rotation vectors (axis * angle, angle in [0, pi]) of a (K, 3, 3)
    array as (K, 3); a half-turn, within ANTIPODAL_TOL of pi, where the axis
    has no usable direction, reads zero, its message kept by index.  Each
    3 x 3 is read as Python floats, summed and scaled as np.trace and numpy do."""
    values, failed = [], {}
    for k, ((r00, r01, r02), (r10, r11, r12), (r20, r21, r22)) in enumerate(rotations.tolist()):
        # NaN passes through the clamp, as through np.clip
        angle = math.acos(min(max(((r00 + r11) + r22 - 1.0) * 0.5, -1.0), 1.0))
        if angle < 1e-12:
            # first-order: log(R) ~ vee(R - R^T)/2
            values += (0.5 * (r21 - r12), 0.5 * (r02 - r20), 0.5 * (r10 - r01))
        elif math.pi - angle < ANTIPODAL_TOL:
            failed[k] = f"rotation angle {angle} is within {ANTIPODAL_TOL} of pi"
            values += (0.0, 0.0, 0.0)
        else:
            scale = angle / (2.0 * math.sin(angle))
            values += ((r21 - r12) * scale, (r02 - r20) * scale, (r10 - r01) * scale)
    return np.array(values).reshape(-1, 3), failed


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

    def __repr__(self) -> str:
        return f"SpatialTransform(rot={self.rot.tolist()}, trans={self.trans.tolist()})"


# Kernels of K poses (rot (K, 3, 3), trans (K, 3)): products go through
# `matmul`, transposes are views, so every pose gets the bits it gets alone.
_SKEW_AT = np.array([3, 6, 1, 2, 3, 4, 5, 0, 3])  # skew entries among x, y, z, 0, -x, -y, -z


def _skews(v: np.ndarray) -> np.ndarray:
    """The cross-product matrix of each row of a (K, 3) array."""
    values = np.concatenate((v, np.zeros((len(v), 1)), -v), axis=1)
    return values.take(_SKEW_AT, axis=1).reshape(-1, 3, 3)


def _composed(a_rot, a_trans, b_rot, b_trans) -> tuple[np.ndarray, np.ndarray]:
    """K pose compositions, each mapping coordinates through b, then a."""
    return a_rot @ b_rot, (a_rot @ b_trans[:, :, None])[:, :, 0] + a_trans


def _motion_maps(rot: np.ndarray, trans: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Motion vectors v (K, 6, k), each in its pose's child frame about the
    child origin, in the parent frame about the parent origin.  The linear
    part picks up the lever-arm term trans x (rot @ omega), whose sign the
    tests pin against finite differences of a point's velocity."""
    w = rot @ v[:, :3]
    return np.concatenate([w, rot @ v[:, 3:] + _skews(trans) @ w], axis=1)


def orthonormal_complement_2(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two unit vectors completing `axis`, a unit 3-vector as _require_axes
    returns it, to a right-handed orthonormal triad.

    Deterministic: Gram-Schmidt against the canonical basis vector least
    aligned with `axis` (first index on ties).
    """
    e = np.zeros(3)
    e[int(np.argmin(np.abs(axis)))] = 1.0
    b = e - np.dot(e, axis) * axis
    b /= np.linalg.norm(b)
    c = np.cross(axis, b)
    return b, c


def _require_axes(jt: JointType, axis, axis2):
    """The joint's unit axes, each checked once, None for one it lacks; a
    universal joint without axis2 turns second about the first vector of
    orthonormal_complement_2(axis)."""
    a1 = _check_unit_axis(axis) if axis is not None else None
    if jt.requires_axis and a1 is None:
        raise NonUnitAxisError(f"joint type {jt.value} requires an axis")
    if jt is JointType.UNIVERSAL:
        a2 = _check_unit_axis(axis2) if axis2 is not None else orthonormal_complement_2(a1)[0]
        if abs(np.dot(a1, a2)) > ORTHOGONAL_AXES_TOL:
            raise NonUnitAxisError("universal joint axes must be orthogonal")
        return a1, a2
    return a1, None


def motion_subspace(jt: JointType, axis=None, axis2=None) -> np.ndarray:
    """6 x n matrix of unit motion directions permitted by the joint,
    expressed at the joint's zero configuration: _JointStack's subspace of
    that one joint at q = 0."""
    stack = _JointStack([SimpleNamespace(joint_type=jt, axis=axis, axis2=axis2)], [0])
    return stack.subspaces(np.zeros(jt.dof), [0])[0]


def constraint_force_subspace(jt: JointType, axis=None, axis2=None) -> np.ndarray:
    """6 x (6 - n) orthonormal complement of the motion subspace."""
    a1, a2 = _require_axes(jt, axis, axis2)
    if jt is JointType.FIXED:
        return np.eye(6)
    if jt is JointType.FLOATING:
        return np.zeros((6, 0))
    if jt.dof == 1:  # the two directions normal to the axis, and the other kind of motion
        blocked, psi = np.stack(orthonormal_complement_2(a1), axis=1), np.zeros((6, 5))
        if jt is JointType.PRISMATIC:
            psi[:3, :3], psi[3:, 3:] = np.eye(3), blocked
        else:
            psi[:3, :2], psi[3:, 2:] = blocked, np.eye(3)
        return psi
    # universal: the blocked rotation direction plus all translations
    n = np.cross(a1, a2)
    n /= np.linalg.norm(n)
    psi = np.zeros((6, 4))
    psi[:3, 0] = n
    psi[3:, 1:] = np.eye(3)
    return psi


class _JointStack:
    """The kinematics of many joints at once, from records with a
    joint_type, an axis and an axis2 (each axis checked once by
    _require_axes, a zero row for one a joint lacks) and the position of
    each one's first coordinate in one position vector.  Every joint of a
    type goes through one stacked expression, sines and cosines through
    `math`, so each joint's transform and subspace have the bits they have
    for that joint alone.  Gathers go through `take`, which costs numpy
    less than indexing with an array."""

    def __init__(self, joints, starts):
        kinds = [joint.joint_type for joint in joints]
        self.dof = np.array([kind.dof for kind in kinds], dtype=np.intp)
        self.starts = np.array(starts, dtype=np.intp).reshape(len(kinds))
        self._spin, self._slide, self._cross, self._free = (
            np.array([i for i, kind in enumerate(kinds) if kind in group], dtype=np.intp)
            for group in ((JointType.REVOLUTE, JointType.CONTINUOUS),
                          (JointType.PRISMATIC,), (JointType.UNIVERSAL,),
                          (JointType.FLOATING,)))
        axes = [[(0.0, 0.0, 0.0) if a is None else a
                 for a in _require_axes(joint.joint_type, joint.axis, joint.axis2)]
                for joint in joints]
        self._a1, self._a2 = np.array(axes).reshape(-1, 2, 3).transpose(1, 0, 2)
        k1, k2 = _skews(self._a1), _skews(self._a2)
        self._k = k1, k1 @ k1, k2, k2 @ k2  # the Rodrigues K and K @ K of each axis
        # gathered once: K, K @ K and the angle's place in q of each axis that turns
        turns, cross = np.concatenate((self._spin, self._cross)), self._cross
        self._turns = (np.concatenate((k1[turns], k2[cross])),
                       np.concatenate((self._k[1][turns], self._k[3][cross])),
                       np.concatenate((self.starts[turns], self.starts[cross] + 1)))
        self._identity = np.repeat(_EYE3[None], len(kinds), axis=0)
        self._constant = np.zeros((len(kinds), 6, 1))  # subspaces of 1-DoF joints
        self._constant[self._spin, :3, 0] = self._a1[self._spin]
        self._constant[self._slide, 3:, 0] = self._a1[self._slide]

    def transforms(self, q) -> tuple[np.ndarray, np.ndarray]:
        """Rotations (count, 3, 3) and translations (count, 3) of the
        child-side joint frames at the position vector q (not checked)."""
        rot = self._identity.copy()
        trans = np.zeros((len(self.dof), 3))
        start, spin, cross = self.starts, len(self._spin), len(self._cross)
        if spin + cross:  # one Rodrigues expression: spin axes, cross first axes, cross second
            k, kk, at = self._turns
            turns = _rodrigues(k, kk, q.take(at))
            rot[self._spin] = turns[:spin]
            rot[self._cross] = turns[spin : spin + cross] @ turns[spin + cross :]
        if (j := self._slide).size:
            trans[j] = q.take(start.take(j))[:, None] * self._a1.take(j, axis=0)
        if (j := self._free).size:  # rotate by rpy, place the child origin at xyz
            position = q.take(start.take(j)[:, None] + np.arange(6))
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
            return self._constant.take(joints, axis=0)[:, :, :dof]
        start = self.starts.take(joints)
        s = np.zeros((len(start), 6, dof))
        if dof == 2:
            back = _rodrigues(self._k[2].take(joints, axis=0), self._k[3].take(joints, axis=0),
                              q.take(start + 1))
            a1 = self._a1.take(joints, axis=0)[:, :, None]
            s[:, :3, 0] = (back.transpose(0, 2, 1) @ a1)[:, :, 0]
            s[:, :3, 1] = self._a2.take(joints, axis=0)
            return s
        rpy = q.take(start[:, None] + np.arange(3)).tolist()
        factors = _rpy_factors(rpy)
        x_t, y_t = factors[:, 2].transpose(0, 2, 1), factors[:, 1].transpose(0, 2, 1)
        s[:, 0, 0] = 1.0
        s[:, :3, 1] = x_t @ np.array([0.0, 1.0, 0.0])
        s[:, :3, 2] = x_t @ y_t @ np.array([0.0, 0.0, 1.0])
        s[:, 3:, 3:] = _rpy_product(factors).transpose(0, 2, 1)
        return s


def _check_tol(tol) -> float:
    """tol as a float, if numpy stores it as one finite bool, integer or float > 0."""
    value = np.asarray(tol)
    if value.shape or value.dtype.kind not in "biuf" or not 0.0 < float(value) < math.inf:
        raise ConfigurationError(f"tolerance must be a finite number > 0, got {tol!r}")
    return float(value)


def _finite_real(m, ndmin: int = 2) -> np.ndarray:
    """m as a float array, if numpy stores it in at most 2 dimensions as
    finite bool, integer or float entries: the rank views' input rule."""
    value = np.asarray(m)
    if value.ndim > 2:
        raise DimensionMismatchError(f"expected at most 2 dimensions, got shape {value.shape}")
    if value.dtype.kind not in "biuf" or not np.isfinite(value).all():
        raise ConfigurationError("matrix entries must be finite real numbers")
    return np.array(value, dtype=float, ndmin=ndmin)


def numerical_rank(m, tol: float = 1e-10) -> int:
    """Rank by row reduction with partial pivoting: _row_reduce_batch on a
    one-member batch; the zero matrix has rank 0.  The rank views take
    _finite_real's input and a finite tol > 0 (ConfigurationError otherwise)."""
    return int(_row_reduce_batch(_finite_real(m)[None], tol)[0])


def row_reduce_basis(m, tol: float = 1e-10) -> np.ndarray:
    """Row-space basis via Gaussian elimination with partial pivoting: the
    accepted pivot rows of the reduced matrix, each above tol times the
    largest absolute entry of m.  A public one-matrix view of
    _row_reduce_batch with numerical_rank's input rule; G never calls it."""
    a = _finite_real(m)
    return a[: _row_reduce_batch(a[None], tol)[0]]


def solve_with_pivoting(a, b, tol: float = 1e-10) -> np.ndarray:
    """Solve a @ x = b by Gaussian elimination with partial pivoting.

    Raises SingularDependentBlockError when any pivot falls below tol times
    the largest absolute entry of `a`; no least-squares fallback.  A public
    one-matrix view of _solve_batch with numerical_rank's input rule for a,
    b and tol; the engine's G never calls it.
    """
    a, b = _finite_real(a), _finite_real(b, ndmin=1)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"matrix must be square, got {a.shape}")
    squeeze = b.ndim == 1
    if squeeze:
        b = b.reshape(len(a), 1)
    if b.shape[0] != len(a):
        raise DimensionMismatchError("right-hand side row count mismatch")
    x = _solve_batch(a[None], b[None], np.zeros(1, dtype=np.intp), tol)[0]
    return x[:, 0] if squeeze else x


def _row_reduce_batch(a: np.ndarray, tol: float, live=None) -> np.ndarray:
    """Row-reduce a batch of zero-padded matrices (members, rows, cols) in
    lock step, in place, and return their ranks.  A pivot is accepted when
    it exceeds tol times the member's largest absolute entry; zero rows and
    columns never pivot, so member k's basis is a[k, :rank[k]].  `live` is
    _forward_pass's, and moves no bit."""
    tol = _check_tol(tol)
    threshold = tol * np.abs(a).max(axis=(1, 2), initial=0.0)
    return _forward_pass(a, [threshold] * a.shape[2], live=live)


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
    system, tol = np.concatenate((a, b), axis=2), _check_tol(tol)
    return _back_substitute(*_eliminate_batch(system, _solve_layout(start, a.shape[1]), tol))


def _solve_layout(start: np.ndarray, n: int, names: np.ndarray | None = None) -> tuple:
    """What _eliminate_batch reads of each member's start in n columns: the
    (n, members) mask of the leading columns, exempt from the threshold, the
    leading identity's indices, and the names of columns c, default c - start[k]."""
    lead = np.arange(n) < start[:, None]
    return (lead.T, *np.nonzero(lead),
            np.arange(n) - start[:, None] if names is None else names)


def _eliminate_batch(system: np.ndarray, layout: tuple, tol: float
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The forward elimination of _solve_batch, in place on the systems
    [a | b] (members, n, n + m), as (a, b), given the _solve_layout of
    their start and a tol that _check_tol passed.  It works on each column
    of b apart from the others."""
    exempt, member, diagonal, names = layout
    n = system.shape[1]
    threshold = tol * np.abs(system[:, :, :n]).max(axis=(1, 2), initial=1e-300)
    system[member, diagonal, diagonal] = 1.0
    rank = _forward_pass(system, np.where(exempt, 0.0, threshold), stop_at_refusal=True)
    if rank.min(initial=n) < n:
        k = int(rank.argmin())  # the first member that refused, in column rank[k]
        column = system[k, rank[k] :, rank[k]]
        raise SingularDependentBlockError(f"pivot {column[np.abs(column).argmax()]:.3e} "
                                          f"below tolerance in column {names[k, rank[k]]}")
    return system[:, :, :n], system[:, :, n:]


def _back_substitute(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with a @ x = b for a batch of upper triangular a.  Each row is one
    product over all of b's columns (for G, as many as the widest loop
    group has independent ones), whose bits depend on their number."""
    x = np.zeros(b.shape)
    for row in range(a.shape[1] - 1, -1, -1):
        x[:, row] = ((b[:, row] - (a[:, row, None, row + 1 :] @ x[:, row + 1 :])[:, 0])
                     / a[:, row, row, None])
    return x


def _forward_pass(a: np.ndarray, thresholds, stop_at_refusal: bool = False,
                  live=None) -> np.ndarray:
    """Forward elimination with partial pivoting of a batch of matrices
    (members, rows, cols) in lock step, in place; returns their ranks.

    In each column c < len(thresholds) (later ones are carried along), every
    member takes the largest entry at or below its next pivot row, accepts
    it when it exceeds its entry of thresholds[c], swaps it into place and
    eliminates below it; every other row keeps its bits.  With `live`, the
    members come tallest first and live[p] of them are taller than p rows,
    zeros below: one that has pivoted in all of its rows leaves the lock
    step as it is, and the pass ends when none is left.  While every member
    still in it has accepted every column, a column needs no mask.  With
    stop_at_refusal the pass ends after the first column that one of them
    refuses, leaving that member as it was."""
    count, rows, cols = a.shape
    if not a.size:  # no member, row or column: nothing to eliminate
        return np.zeros(count, dtype=np.intp)
    live = (count,) * rows + (0,) if live is None else live
    t = a.transpose(1, 0, 2).copy()  # row r of member k is by_id[r * count + k]
    by_id = t.reshape(rows * count, cols)
    ids = np.arange(rows * count).reshape(rows, count)
    slots = np.arange(count)  # the id of each member's next pivot row
    lead = 0  # the members still in the lock step have pivoted in the first `lead` columns
    for col, threshold in enumerate(thresholds):
        if not (alive := live[lead]):  # the members still in the lock step, first
            break
        slot = slots[:alive]
        column = np.abs(t[lead:, :alive, col])  # the rows above `lead` hold pivots
        if lead < col:  # a member has refused a column: hide its later pivot rows
            column[ids[lead:, :alive] < slot] = -1.0
        accept = column.max(axis=0) > threshold[:alive]
        pivot = column.argmax(axis=0) * count + ids[lead, :alive]
        accepted = np.count_nonzero(accept)
        if accepted == alive and lead == col:  # unmasked: slot is ids[lead, :alive]
            pivot_rows = by_id.take(pivot, axis=0)
            by_id[pivot] = t[lead, :alive]
            t[lead, :alive] = pivot_rows
            rest = t[lead + 1 :, :alive]
            rest -= rest[:, :, col, None] / pivot_rows[:, col, None] * pivot_rows
            rest[:, :, col] = 0.0
            slot += count
            lead += 1
        elif accepted:  # masked: only rows below an accepted pivot get factors and products
            pivot_rows = by_id.take(pivot, axis=0)
            dest = np.where(accept, slot, pivot)  # a member that refuses keeps its rows
            by_id[pivot] = by_id.take(dest, axis=0)
            by_id[dest] = pivot_rows
            rest = t[lead + 1 :, :alive]  # the rows below every pivot of the lock step
            below = ids[lead + 1 :, :alive] > np.where(accept, slot, ids.size)
            where = below[:, :, None]  # elsewhere x - 0.0 * p can turn -0.0 into 0.0
            # out=None: unset outside `where`, and never read there
            factors = np.divide(rest[:, :, col, None], pivot_rows[:, col, None], out=None,
                                where=where)
            np.subtract(rest, np.multiply(factors, pivot_rows, out=None, where=where),
                        out=rest, where=where)
            rest[:, :, col][below] = 0.0
            np.add(slot, count, out=slot, where=accept)
        if stop_at_refusal and accepted < alive:
            break
    a[...] = t.transpose(1, 0, 2)
    return slots // count
