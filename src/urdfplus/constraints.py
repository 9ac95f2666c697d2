"""Loop-constraint Jacobians, closure residuals, explicit-form derivation,
and the independent-coordinate compatibility check.

Conventions, fixed once for the whole package:

* A loop joint's constraint rows live in its predecessor-side frame; every
  motion subspace is re-expressed there through the forward kinematics at
  the supplied configuration before projection.
* The block column of tree joint j enters with sign -1 when j lies on the
  predecessor subchain and +1 on the successor subchain; columns of
  uninvolved joints are dropped.
* A coupling contributes the single configuration-independent row
  (+1 on predecessor-subchain joints, -ratio on successor-subchain joints).
* The closure residual is the constraint-force projection of the 6D pose
  error (axis-angle rotation log stacked on the translation), whose
  derivative at a closed configuration is exactly the assembled Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigurationError,
    CountMismatchError,
    DimensionMismatchError,
    IncompatibleCouplingError,
    InternalInconsistencyError,
)
from .graphs import ConnectivityGraph, LoopAggregatedGraph
from .model import Coupling, LoopJoint, NumberedModel, TreeJoint
from .spatial import (
    SpatialTransform,
    compose,
    constraint_force_subspace,
    invert,
    joint_transform,
    motion_map,
    motion_subspace_at,
    numerical_rank,
    row_reduce_basis,
    so3_log,
    solve_with_pivoting,
)

RANK_TOL = 1e-10


def zero_configuration(numbered: NumberedModel) -> np.ndarray:
    return np.zeros(numbered.total_dof)


def parse_configuration(text: str, numbered: NumberedModel) -> np.ndarray:
    """Read 'joint-name: v1 v2 ...' lines into a stacked position vector.

    Unlisted joints stay at zero.  Blank lines and '#' comments are skipped.
    """
    by_name = {}
    slices = numbered.coordinate_slices()
    for body in range(1, numbered.n_bodies + 1):
        by_name[numbered.tree_joint_of[body].name] = slices[body]
    q = zero_configuration(numbered)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'name: values'")
        name, _, values = line.partition(":")
        name = name.strip()
        if name not in by_name:
            raise ConfigurationError(f"line {lineno}: unknown joint {name!r}")
        segment = by_name[name]
        width = segment.stop - segment.start
        try:
            parsed = [float(v) for v in values.split()]
        except ValueError:
            raise ConfigurationError(
                f"line {lineno}: invalid number in {values.strip()!r}"
            ) from None
        if not np.isfinite(parsed).all():
            raise ConfigurationError(
                f"line {lineno}: non-finite number in {values.strip()!r}"
            )
        if len(parsed) != width:
            raise ConfigurationError(
                f"line {lineno}: joint {name!r} takes {width} values, "
                f"got {len(parsed)}"
            )
        q[segment] = parsed
    return q


def _joint_axes(joint: TreeJoint | LoopJoint):
    axis = None if joint.axis is None else np.asarray(joint.axis, dtype=float)
    axis2 = None if joint.axis2 is None else np.asarray(joint.axis2, dtype=float)
    return axis, axis2


def forward_kinematics(
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


def _loop_index(numbered: NumberedModel, number: int) -> int:
    """Position of a loop entry, and of its connectivity-graph edge."""
    index = number - numbered.n_bodies - 1
    if not 0 <= index < len(numbered.loop_entries):
        raise InternalInconsistencyError(
            f"no loop joint or coupling numbered {number}"
        )
    return index


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


@dataclass(frozen=True)
class LoopJacobian:
    """Constraint rows of one loop joint or coupling over its involved
    tree joints only (uninvolved columns pruned)."""

    number: int
    name: str
    kind: str  # "loop" | "coupling"
    joint_numbers: tuple[int, ...]  # involved tree joints, ascending
    joint_columns: tuple[tuple[int, int], ...]  # (start, stop) per joint
    matrix: np.ndarray  # n_c_k rows x sum(involved dof) columns

    @property
    def rows(self) -> int:
        return self.matrix.shape[0]

    def rank(self, tol: float = RANK_TOL) -> int:
        return numerical_rank(self.matrix, tol)

    def scatter(self, coord_slices, total_dof: int) -> np.ndarray:
        """Rows over the full coordinate vector (zero at uninvolved joints)."""
        full = np.zeros((self.rows, total_dof))
        for joint, (start, stop) in zip(self.joint_numbers, self.joint_columns):
            full[:, coord_slices[joint]] = self.matrix[:, start:stop]
        return full


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
        poses = forward_kinematics(numbered, q)
    return _loop_joint_terms(numbered, graph, index, q, poses)


def implicit_loop_jacobian(
    numbered: NumberedModel,
    graph: ConnectivityGraph,
    number: int,
    q: np.ndarray,
) -> LoopJacobian:
    """Velocity-level constraint rows of one loop joint (or coupling), with
    the forward kinematics at q computed for this call alone."""
    index = _loop_index(numbered, number)
    if isinstance(numbered.loop_entries[index][1], Coupling):
        return _coupling_rows(numbered, graph, index)
    return _loop_terms(numbered, graph, index, q, None)[0]


def coupling_row(
    numbered: NumberedModel, graph: ConnectivityGraph, number: int
) -> LoopJacobian:
    """Single constraint row of a coupling: the summed predecessor-subchain
    positions equal ratio times the summed successor-subchain positions.
    The row does not depend on the configuration."""
    index = _loop_index(numbered, number)
    if not isinstance(numbered.loop_entries[index][1], Coupling):
        raise IncompatibleCouplingError(f"joint {number} is not a coupling")
    return _coupling_rows(numbered, graph, index)


def loop_residual(
    numbered: NumberedModel,
    graph: ConnectivityGraph,
    number: int,
    q: np.ndarray,
) -> np.ndarray:
    """Position-level closure residual of one loop joint or coupling.

    Zero exactly when the loop is closed and the relative pose lies on the
    joint's motion manifold.  For couplings this is the linear position
    relation itself.
    """
    index = _loop_index(numbered, number)
    return _loop_terms(numbered, graph, index, q, None)[1]


def all_loop_jacobians(
    numbered: NumberedModel, graph: ConnectivityGraph, q: np.ndarray
) -> list[LoopJacobian]:
    """Jacobians of every loop joint and coupling, ascending by number."""
    # one kinematics pass for every loop joint; couplings need no poses
    poses = forward_kinematics(numbered, q) if numbered.model.loop_joints else None
    return [
        _loop_terms(numbered, graph, index, q, poses)[0]
        for index in range(len(numbered.loop_entries))
    ]


def stack_jacobians(
    numbered: NumberedModel, jacobians: list[LoopJacobian]
) -> np.ndarray:
    """Full constraint matrix: rows grouped by ascending loop number, columns
    over the complete coordinate vector in tree-joint order."""
    slices = numbered.coordinate_slices()
    total = numbered.total_dof
    blocks = [
        jac.scatter(slices, total)
        for jac in sorted(jacobians, key=lambda j: j.number)
    ]
    if not blocks:
        return np.zeros((0, total))
    return np.vstack(blocks)


@dataclass(frozen=True)
class ExplicitJacobian:
    """Mapping from independent coordinate rates to the full coordinate
    rates.  Rows are ordered independent-first (identity block), then the
    dependent coordinates, each group ascending by coordinate index;
    row_coordinates records the global coordinate index of every row."""

    matrix: np.ndarray  # n x n_i
    row_coordinates: tuple[int, ...]
    independent: tuple[int, ...]

    def in_coordinate_order(self) -> np.ndarray:
        """Rows permuted back to plain coordinate order."""
        out = np.zeros_like(self.matrix)
        for row, coord in enumerate(self.row_coordinates):
            out[coord] = self.matrix[row]
        return out


def explicit_from_implicit(
    k_full: np.ndarray,
    independent: list[int] | tuple[int, ...],
    tol: float = RANK_TOL,
) -> ExplicitJacobian:
    """Derive the explicit constraint Jacobian G with K @ G = 0.

    `independent` selects coordinate columns of `k_full`; its size must equal
    the column count minus the numerical row rank (CountMismatchError
    otherwise).  The square dependent block is solved by Gaussian elimination
    with partial pivoting; a singular block means the independent choice is
    invalid (SingularDependentBlockError); there is no least-squares fallback.
    """
    k_full = np.asarray(k_full, dtype=float)
    n_cols = k_full.shape[1]
    independent = tuple(sorted(independent))
    if any(c < 0 or c >= n_cols for c in independent):
        raise DimensionMismatchError("independent column index out of range")
    if len(set(independent)) != len(independent):
        raise DimensionMismatchError("independent columns must be distinct")
    basis = row_reduce_basis(k_full, tol)
    rank = basis.shape[0]
    if len(independent) != n_cols - rank:
        raise CountMismatchError(expected=n_cols - rank, declared=len(independent))
    dependent = tuple(c for c in range(n_cols) if c not in set(independent))
    n_i = len(independent)
    if rank == 0:
        dep_rows = np.zeros((0, n_i))
    else:
        dep_rows = -solve_with_pivoting(
            basis[:, dependent], basis[:, independent], tol
        )
    matrix = np.vstack([np.eye(n_i), dep_rows])
    return ExplicitJacobian(
        matrix=matrix,
        row_coordinates=independent + dependent,
        independent=independent,
    )


@dataclass(frozen=True)
class LoopConstraintInfo:
    number: int
    name: str
    kind: str
    rows: int
    columns: int
    rank: int
    joint_numbers: tuple[int, ...]
    aggregate: int
    residual_norm: float


@dataclass(frozen=True)
class ConstraintReport:
    n: int
    n_c: int
    n_i: int
    mode: str  # "independent" | "spanning"
    loops: tuple[LoopConstraintInfo, ...]
    declared_joints: tuple[str, ...]
    declared_dof: int | None
    passed: bool | None  # None when no independent attribute is present
    max_residual: float
    # the assembled rows, for building G without assembling them again
    jacobians: tuple[LoopJacobian, ...] = field(
        default=(), repr=False, compare=False
    )

    @property
    def sum_ranks(self) -> int:
        return sum(info.rank for info in self.loops)


def independent_coordinate_check(
    numbered: NumberedModel,
    graph: ConnectivityGraph,
    lacg: LoopAggregatedGraph,
    q: np.ndarray | None = None,
    tol: float = RANK_TOL,
) -> ConstraintReport:
    """Assemble every constraint at the evaluation configuration and verify
    the declared independent coordinates against n - sum(rank(K_l)).

    Without any independent attribute the model is only usable through
    spanning-tree coordinates, so the count check is skipped and the report
    says so.
    """
    if q is None:
        q = zero_configuration(numbered)
    n = numbered.total_dof
    poses = forward_kinematics(numbered, q) if numbered.model.loop_joints else None
    jacobians = []
    infos = []
    max_residual = 0.0
    for index in range(len(numbered.loop_entries)):
        jac, residual = _loop_terms(numbered, graph, index, q, poses)
        residual_norm = float(np.abs(residual).max()) if residual.size else 0.0
        max_residual = max(max_residual, residual_norm)
        infos.append(
            LoopConstraintInfo(
                number=jac.number,
                name=jac.name,
                kind=jac.kind,
                rows=jac.rows,
                columns=jac.matrix.shape[1],
                rank=jac.rank(tol),
                joint_numbers=jac.joint_numbers,
                # every involved body lies in the loop's one aggregate
                aggregate=lacg.body_to_aggregate[jac.joint_numbers[0]],
                residual_norm=residual_norm,
            )
        )
        jacobians.append(jac)

    n_i = n - sum(info.rank for info in infos)

    joints = numbered.tree_joint_of[1:]
    if all(joint.independent is None for joint in joints):
        mode = "spanning"
        declared_joints: tuple[str, ...] = ()
        declared_dof = None
        passed = None
    else:
        mode = "independent"
        # joints without the attribute count as not chosen
        chosen = [joint for joint in joints if joint.independent]
        declared_joints = tuple(joint.name for joint in chosen)
        declared_dof = sum(joint.joint_type.dof for joint in chosen)
        passed = declared_dof == n_i
    return ConstraintReport(
        n=n,
        n_c=sum(jac.rows for jac in jacobians),
        n_i=n_i,
        mode=mode,
        loops=tuple(infos),
        declared_joints=declared_joints,
        declared_dof=declared_dof,
        passed=passed,
        max_residual=max_residual,
        jacobians=tuple(jacobians),
    )


def independent_coordinate_indices(numbered: NumberedModel) -> list[int]:
    """Global coordinate indices covered by joints flagged independent."""
    slices = numbered.coordinate_slices()
    out: list[int] = []
    for body in range(1, numbered.n_bodies + 1):
        if numbered.tree_joint_of[body].independent:
            segment = slices[body]
            out.extend(range(segment.start, segment.stop))
    return out


def _explicit_from_jacobians(
    numbered: NumberedModel, jacobians, tol: float
) -> ExplicitJacobian:
    """G for the declared independent set from already assembled rows."""
    k_full = stack_jacobians(numbered, jacobians)
    return explicit_from_implicit(k_full, independent_coordinate_indices(numbered), tol)


def explicit_jacobian_for_model(
    numbered: NumberedModel,
    graph: ConnectivityGraph,
    q: np.ndarray | None = None,
    tol: float = RANK_TOL,
) -> ExplicitJacobian:
    """G over the full coordinate vector for the declared independent set."""
    if q is None:
        q = zero_configuration(numbered)
    return _explicit_from_jacobians(numbered, all_loop_jacobians(numbered, graph, q), tol)
