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
from functools import cached_property

import numpy as np

from .errors import (
    ConfigurationError,
    CountMismatchError,
    DimensionMismatchError,
    IncompatibleCouplingError,
    InternalInconsistencyError,
    SingularDependentBlockError,
)
from .graphs import ConnectivityGraph, LoopAggregatedGraph
from .model import Coupling, NumberedModel
from .spatial import (
    JointKinematics,
    SpatialTransform,
    _check_tol,
    _row_reduce_batch,
    _solve_batch,
    compose,
    constraint_force_subspace,
    invert,
    motion_map,
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
    A joint name may hold ':': values never do, so a line splits at the
    last ':' whose text before it names a joint, else at its first ':'.
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
        cuts = [i for i, c in enumerate(line) if c == ":"]
        cut = next((i for i in reversed(cuts) if line[:i].strip() in by_name), cuts[0])
        name, values = line[:cut].strip(), line[cut + 1 :]
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


def _configuration(numbered: NumberedModel, q) -> np.ndarray:
    """q as a float vector of the model's length with finite entries; the
    one check on every configuration a public function is given."""
    try:
        q = np.asarray(q, dtype=float)
    except (TypeError, ValueError):
        raise ConfigurationError("configuration is not a vector of numbers") from None
    if q.shape != (numbered.total_dof,):
        raise DimensionMismatchError(
            f"configuration has {q.shape} entries, model takes "
            f"({numbered.total_dof},)"
        )
    if not np.isfinite(q).all():
        raise ConfigurationError("configuration has non-finite entries")
    return q


def forward_kinematics(
    numbered: NumberedModel, q: np.ndarray
) -> list[SpatialTransform]:
    """World pose of every body frame; entry 0 (the root) is the identity."""
    q = _configuration(numbered, q)
    poses = [SpatialTransform.identity()]
    for step in numbered._kinematics.tree:
        rot, trans = step.joint.transform(q[step.coordinates])
        parent = poses[step.parent]
        local_rot = step.origin_rot @ rot
        local_trans = step.origin_rot @ trans + step.origin_trans
        poses.append(SpatialTransform._raw(
            parent.rot @ local_rot, parent.rot @ local_trans + parent.trans
        ))
    return poses


def _loop_index(numbered: NumberedModel, number: int) -> int:
    """Position of a loop entry, and of its connectivity-graph edge."""
    index = number - numbered.n_bodies - 1
    if not 0 <= index < len(numbered.loop_entries):
        raise InternalInconsistencyError(
            f"no loop joint or coupling numbered {number}"
        )
    return index


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class LoopJacobian:
    """Constraint rows of one loop joint or coupling over its involved
    tree joints only (uninvolved columns pruned).  The library shares one
    per entry and configuration, so its matrix is read-only."""

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


@dataclass(frozen=True)
class _TreeStep:
    """One tree joint of the forward-kinematics sweep."""

    joint: JointKinematics
    origin_rot: np.ndarray
    origin_trans: np.ndarray
    parent: int
    coordinates: slice


@dataclass(frozen=True)
class _LoopStep:
    """One loop joint: Psi^T, its body indices and side frames, and a
    (joint number, start, stop, sign, tree step) entry per involved joint
    that moves."""

    number: int
    name: str
    joint_numbers: tuple[int, ...]
    joint_columns: tuple[tuple[int, int], ...]
    psi_t: np.ndarray
    predecessor: int
    successor: int
    predecessor_origin: SpatialTransform
    successor_origin: SpatialTransform
    moving: tuple[tuple[int, int, int, float, _TreeStep], ...]
    width: int


@dataclass(frozen=True)
class _CouplingStep:
    """One coupling: its configuration-independent row, and that row over
    the full coordinate vector, whose product with q is the residual."""

    jacobian: LoopJacobian
    full_row: np.ndarray


class _LoopGroups:
    """The loop entries split into loop groups: entries joined, directly or
    through others, by a shared coordinate.  Groups touch disjoint columns,
    so rank K is the sum of the groups' ranks.  A group's `K_g` stacks its
    entries' rows, ascending by number, over its coordinates (`columns`, in
    ascending order); every group lies in one loop aggregate.

    One lock-step elimination reduces every group, each member padded to
    `shape`: members 0 .. count-1 are the groups, followed by the entries
    of groups with more than one entry, for their own ranks (a one-entry
    group's K_g is its entry's K_l).  `entry_member[l]` is the member that
    holds entry l's rank.

    For G, group g's dependent coordinates d_g (`width[g]` of them) give
    the system basis_g[:, d_g] X = basis_g[:, independent], its right-hand
    side zero outside the group.  `complete` says every dependent
    coordinate lies in a group.
    """

    def __init__(self, steps, slices, independent):
        coordinates = []  # per entry, one per K_l column
        for step in steps:
            layout = step.jacobian if isinstance(step, _CouplingStep) else step
            coordinates.append([
                slices[joint].start + offset
                for joint, (start, stop) in zip(layout.joint_numbers, layout.joint_columns)
                for offset in range(stop - start)
            ])
        heights = [1 if isinstance(step, _CouplingStep) else step.psi_t.shape[0]
                   for step in steps]
        root = list(range(len(steps)))  # the first entry of each one's group
        owner = {}
        for entry, columns in enumerate(coordinates):
            for coordinate in columns:
                other = root[owner.setdefault(coordinate, entry)]
                if other != root[entry]:
                    low, high = sorted((other, root[entry]))
                    root = [low if r == high else r for r in root]
        groups = {}
        for entry, first in enumerate(root):
            groups.setdefault(first, []).append(entry)
        self.entries = tuple(tuple(group) for group in groups.values())
        self.count = len(self.entries)
        # sorted in Python: np.unique would import numpy.ma
        self.columns = tuple(
            np.array(sorted({c for e in group for c in coordinates[e]}), dtype=np.intp)
            for group in self.entries)
        self.entry_member = np.zeros(len(steps), dtype=np.intp)
        self._places = []  # (member, first row, columns, entry)
        extra = self.count
        for member, group in enumerate(self.entries):
            top = 0
            for entry in group:
                local = np.searchsorted(self.columns[member], coordinates[entry])
                self._places.append((member, top, local, entry))
                self.entry_member[entry] = member
                if len(group) > 1:
                    self._places.append((extra, 0, np.arange(len(local)), entry))
                    self.entry_member[entry] = extra
                    extra += 1
                top += heights[entry]
        self.shape = (extra,
                      max((sum(heights[e] for e in g) for g in self.entries), default=0),
                      max((len(columns) for columns in self.columns), default=0))

        self.independent = tuple(independent)
        chosen = set(self.independent)
        self.dependent = tuple(c for c in range(slices[-1].stop) if c not in chosen)
        position = {c: k for k, c in enumerate(self.independent)}
        self._blocks = []  # per group: local dependent, local and global independent
        for columns in self.columns:
            dep = [k for k, c in enumerate(columns.tolist()) if c not in chosen]
            ind = [k for k, c in enumerate(columns.tolist()) if c in chosen]
            self._blocks.append((dep, ind, [position[columns[k]] for k in ind]))
        self.width = np.array([len(dep) for dep, _, _ in self._blocks], dtype=np.intp)
        self.complete = int(self.width.sum()) == len(self.dependent)
        # each dependent coordinate's row of the stacked solutions (0 for one
        # outside every group, where G is not the groups' to give)
        self._size = size = int(self.width.max(initial=0))
        rows = {int(columns[local]): member * size + size - len(dep) + k
                for member, ((dep, _, _), columns) in enumerate(zip(self._blocks,
                                                                    self.columns))
                for k, local in enumerate(dep)}
        self._rows = [rows.get(c, 0) for c in self.dependent]

    def batch(self, matrices) -> np.ndarray:
        """Every member of the lock-step elimination, zero-padded, from the
        entries' K_l in entry order."""
        out = np.zeros(self.shape)
        for member, top, columns, entry in self._places:
            matrix = matrices[entry]
            out[member][top : top + matrix.shape[0], columns] = matrix
        return out

    def explicit(self, reduced: np.ndarray, tol: float) -> ExplicitJacobian:
        """G from the groups' bases in `reduced`, whose ranks equal `width`,
        by one lock-step solve, each group's system in the trailing block of
        its member; SingularDependentBlockError if a block is singular."""
        count, size, n_i = self.count, self._size, len(self.independent)
        a = np.zeros((count, size, size))
        b = np.zeros((count, size, n_i))
        for member, (dep, ind, position) in enumerate(self._blocks):
            basis = reduced[member, : len(dep)]
            start = size - len(dep)
            a[member, start:, start:] = basis[:, dep]
            b[member][start:, position] = basis[:, ind]
        x = _solve_batch(a, b, size - self.width, tol)
        return ExplicitJacobian(
            matrix=np.vstack([np.eye(n_i), -x.reshape(count * size, n_i)[self._rows]]),
            row_coordinates=self.independent + self.dependent,
            independent=self.independent,
        )


class KinematicPlan:
    """The configuration-independent part of a numbered model's kinematics,
    built on first use and held by the model (NumberedModel._kinematics).

    `tree` has one step per body in numbering order; `loops(graph)` has one
    step per loop entry, its involved joints taken from `graph.subchains`.
    `groups(graph)` splits the loop entries into loop groups and lays out
    the declared independent coordinates over them.
    Each part is built once, on its first use, so a coupling-only model
    never builds the tree part.  The plan also keeps the last configuration
    evaluated (`_key`, the bytes of q): its world poses, each loop entry's
    (rows, residual), filled on demand by `_loop_terms`, and per tolerance
    the lock-step elimination of every group, made by `_eliminated`.
    """

    def __init__(self, numbered: NumberedModel):
        self._joints = numbered.tree_joint_of
        self._parent = numbered.parent
        self._slices = numbered.coordinate_slices()
        self._entries = numbered.loop_entries
        self._independent = independent_coordinate_indices(numbered)
        self._loops = None
        self._groups = None
        self._key = None
        self._poses = None
        self._terms = {}
        self._bases = {}

    @cached_property
    def tree(self) -> tuple[_TreeStep, ...]:
        return tuple(
            _TreeStep(
                JointKinematics(joint.joint_type, joint.axis, joint.axis2),
                joint.origin.rot,
                joint.origin.trans,
                self._parent[body],
                self._slices[body],
            )
            for body, joint in enumerate(self._joints[1:], start=1)
        )

    def loops(self, graph: ConnectivityGraph) -> tuple[_LoopStep | _CouplingStep, ...]:
        if self._loops is None:
            self._loops = tuple(
                self._loop_step(graph, index) for index in range(len(self._entries))
            )
        return self._loops

    def groups(self, graph: ConnectivityGraph) -> _LoopGroups:
        if self._groups is None:
            self._groups = _LoopGroups(self.loops(graph), self._slices,
                                       self._independent)
        return self._groups

    def _loop_step(self, graph: ConnectivityGraph, index: int):
        number, entry = self._entries[index]
        _, nu_p, nu_s = graph.subchains[index]
        joints = sorted(nu_p + nu_s)
        columns = []
        offset = 0
        for j in joints:
            width = self._slices[j].stop - self._slices[j].start
            columns.append((offset, offset + width))
            offset += width
        if isinstance(entry, Coupling):
            # +1 on predecessor-subchain joints, -ratio on successor-subchain
            # joints; a 0-DoF joint adds no entry
            row = np.zeros((1, offset))
            for joint_number, (start, stop) in zip(joints, columns):
                if start < stop:
                    row[0, start] = 1.0 if joint_number in nu_p else -entry.ratio
            jacobian = LoopJacobian(number, entry.name, "coupling", tuple(joints),
                                    tuple(columns), _read_only(row))
            full_row = jacobian.scatter(self._slices, self._slices[-1].stop)
            return _CouplingStep(jacobian, full_row)
        psi = constraint_force_subspace(entry.joint_type, entry.axis, entry.axis2)
        edge = graph.loop_edges[index]
        moving = tuple(
            (joint_number, start, stop, -1.0 if joint_number in nu_p else 1.0,
             self.tree[joint_number - 1])
            for joint_number, (start, stop) in zip(joints, columns)
            if start < stop
        )
        return _LoopStep(
            number,
            entry.name,
            tuple(joints),
            tuple(columns),
            psi.T,
            edge.predecessor,
            edge.successor,
            entry.predecessor_origin,
            entry.successor_origin,
            moving,
            offset,
        )


def _loop_joint_terms(
    step: _LoopStep, q: np.ndarray, poses: list[SpatialTransform]
) -> tuple[LoopJacobian, np.ndarray]:
    """Constraint rows and closure residual of a loop joint, given the world
    poses at q.

    Block column j is sign * Psi^T * S_j with S_j carried into the
    predecessor-side loop frame along the kinematic chain; the sign is -1
    on the predecessor subchain and +1 on the successor subchain.
    """
    frame_p = compose(poses[step.predecessor], step.predecessor_origin)
    frame_s = compose(poses[step.successor], step.successor_origin)
    world_to_loop = invert(frame_p)
    psi_t = step.psi_t
    matrix = np.zeros((psi_t.shape[0], step.width))
    for joint_number, start, stop, sign, tree_step in step.moving:
        s_local = tree_step.joint.motion_subspace_at(q[tree_step.coordinates])
        x = compose(world_to_loop, poses[joint_number])
        matrix[:, start:stop] = sign * (psi_t @ motion_map(x, s_local))
    rel = compose(world_to_loop, frame_s)
    residual = psi_t @ np.concatenate([so3_log(rel.rot), rel.trans])
    jacobian = LoopJacobian(step.number, step.name, "loop", step.joint_numbers,
                            step.joint_columns, _read_only(matrix))
    return jacobian, _read_only(residual)


def _loop_terms(
    numbered: NumberedModel,
    graph: ConnectivityGraph,
    q,
    indices,
) -> list[tuple[LoopJacobian, np.ndarray]]:
    """Rows and residual of the loop entries at `indices`.  Calls at one q
    share the plan's record of it: one kinematics pass, made only when a
    loop joint needs it, and one assembly per entry."""
    q = _configuration(numbered, q)
    plan = numbered._kinematics
    steps = plan.loops(graph)
    key = q.tobytes()
    if plan._key != key:
        plan._key, plan._poses, plan._terms, plan._bases = key, None, {}, {}
    terms = plan._terms
    for index in indices:
        if index in terms:
            continue
        step = steps[index]
        if isinstance(step, _CouplingStep):
            # a coupling is linear in q: its row times q is the relation itself
            terms[index] = step.jacobian, _read_only(step.full_row @ q)
        else:
            if plan._poses is None:
                plan._poses = forward_kinematics(numbered, q)
            terms[index] = _loop_joint_terms(step, q, plan._poses)
    return [terms[index] for index in indices]


def _eliminated(
    numbered: NumberedModel, graph: ConnectivityGraph, q, tol: float
) -> tuple[list[tuple[LoopJacobian, np.ndarray]], np.ndarray, np.ndarray]:
    """Every loop entry's (rows, residual) at q, and the lock-step
    elimination of every loop group at (q, tol): the reduced batch and each
    member's rank.  The count check and G at one (q, tol) share it."""
    terms = _loop_terms(numbered, graph, q, range(len(numbered.loop_entries)))
    plan = numbered._kinematics
    if tol not in plan._bases:
        batch = plan.groups(graph).batch([jac.matrix for jac, _ in terms])
        ranks = _row_reduce_batch(batch, tol)
        plan._bases[tol] = _read_only(batch), _read_only(ranks)
    return terms, *plan._bases[tol]


def implicit_loop_jacobian(
    numbered: NumberedModel,
    graph: ConnectivityGraph,
    number: int,
    q: np.ndarray,
) -> LoopJacobian:
    """Velocity-level constraint rows of one loop joint (or coupling) at q."""
    return _loop_terms(numbered, graph, q, [_loop_index(numbered, number)])[0][0]


def coupling_row(
    numbered: NumberedModel, graph: ConnectivityGraph, number: int
) -> LoopJacobian:
    """Single constraint row of a coupling: the summed predecessor-subchain
    positions equal ratio times the summed successor-subchain positions.
    The row does not depend on the configuration."""
    index = _loop_index(numbered, number)
    if not isinstance(numbered.loop_entries[index][1], Coupling):
        raise IncompatibleCouplingError(f"joint {number} is not a coupling")
    return numbered._kinematics.loops(graph)[index].jacobian


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
    return _loop_terms(numbered, graph, q, [_loop_index(numbered, number)])[0][1]


def all_loop_jacobians(
    numbered: NumberedModel, graph: ConnectivityGraph, q: np.ndarray
) -> list[LoopJacobian]:
    """Jacobians of every loop joint and coupling, ascending by number."""
    indices = range(len(numbered.loop_entries))
    return [jac for jac, _ in _loop_terms(numbered, graph, q, indices)]


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
    chosen = set(independent)
    dependent = tuple(c for c in range(n_cols) if c not in chosen)
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
class RedundantAggregate:
    """A loop aggregate whose loops' ranks add up to more than the rank of
    their stacked rows: some of its constraints repeat others."""

    index: int
    sum_rank: int
    rank: int


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
    redundant: tuple[RedundantAggregate, ...] = ()
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
    the declared independent coordinates against n - sum(rank(K_g)) over
    the loop groups (equal to n - rank(K)).

    Without any independent attribute the model is only usable through
    spanning-tree coordinates, so the count check is skipped and the report
    says so.
    """
    _check_tol(tol)
    if q is None:
        q = zero_configuration(numbered)
    n = numbered.total_dof
    terms, _, ranks = _eliminated(numbered, graph, q, tol)
    groups = numbered._kinematics.groups(graph)
    infos = []
    max_residual = 0.0
    for (jac, residual), rank in zip(terms, ranks[groups.entry_member].tolist()):
        residual_norm = float(np.abs(residual).max()) if residual.size else 0.0
        max_residual = max(max_residual, residual_norm)
        infos.append(
            LoopConstraintInfo(
                number=jac.number,
                name=jac.name,
                kind=jac.kind,
                rows=jac.rows,
                columns=jac.matrix.shape[1],
                rank=rank,
                joint_numbers=jac.joint_numbers,
                # every involved body lies in the loop's one aggregate
                aggregate=lacg.body_to_aggregate[jac.joint_numbers[0]],
                residual_norm=residual_norm,
            )
        )
    group_ranks = ranks[: groups.count].tolist()
    n_i = n - sum(group_ranks)
    redundant = {}  # aggregate: [its loops' ranks summed, its groups' ranks summed]
    for group, rank in zip(groups.entries, group_ranks):
        sums = redundant.setdefault(infos[group[0]].aggregate, [0, 0])
        sums[0] += sum(infos[entry].rank for entry in group)
        sums[1] += rank

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
        n_c=sum(info.rows for info in infos),
        n_i=n_i,
        mode=mode,
        loops=tuple(infos),
        declared_joints=declared_joints,
        declared_dof=declared_dof,
        passed=passed,
        max_residual=max_residual,
        redundant=tuple(RedundantAggregate(index, *sums)
                        for index, sums in sorted(redundant.items())
                        if sums[0] > sums[1]),
        jacobians=tuple(jac for jac, _ in terms),
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


def explicit_jacobian_for_model(
    numbered: NumberedModel,
    graph: ConnectivityGraph,
    q: np.ndarray | None = None,
    tol: float = RANK_TOL,
) -> ExplicitJacobian:
    """G over the full coordinate vector for the declared independent set.

    Identity rows for the independent coordinates, and one lock-step solve
    over the loop groups, from the bases that the count check at the same
    (q, tol) computed.  When a group's rank differs from its dependent
    count, or its dependent block is singular, the stacked K goes to
    explicit_from_implicit, so the error type and message are its own.
    """
    _check_tol(tol)
    if q is None:
        q = zero_configuration(numbered)
    terms, reduced, ranks = _eliminated(numbered, graph, q, tol)
    groups = numbered._kinematics.groups(graph)
    if groups.complete and np.array_equal(ranks[: groups.count], groups.width):
        try:
            return groups.explicit(reduced, tol)
        except SingularDependentBlockError:
            pass
    k_full = stack_jacobians(numbered, [jac for jac, _ in terms])
    return explicit_from_implicit(k_full, groups.independent, tol)
