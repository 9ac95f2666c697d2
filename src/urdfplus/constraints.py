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

from dataclasses import field
from functools import cached_property

import numpy as np

from .errors import (
    AntipodalRotationError,
    ConfigurationError,
    CountMismatchError,
    DimensionMismatchError,
    IncompatibleCouplingError,
    InternalInconsistencyError,
    InvalidModelError,
    SingularDependentBlockError,
)
from .graphs import ConnectivityGraph, LoopAggregatedGraph
from .model import Coupling, NumberedModel, _record
from .spatial import (
    JointKinematics,
    SpatialTransform,
    _back_substitute,
    _check_tol,
    _composed,
    _eliminate_batch,
    _JointStack,
    _motion_maps,
    _row_reduce_batch,
    constraint_force_subspace,
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

    Unlisted joints stay at zero; a joint listed twice is an error.  Blank
    lines and '#' comments are skipped.
    A joint name may hold ':': values never do, so a line splits at the
    last ':' whose text before it names a joint, else at its first ':'.
    """
    by_name = {}
    slices = numbered.coordinate_slices()
    for body in range(1, numbered.n_bodies + 1):
        by_name[numbered.tree_joint_of[body].name] = slices[body]
    set_on = {}  # joint name -> the line that set it
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
        if set_on.setdefault(name, lineno) != lineno:
            raise ConfigurationError(
                f"line {lineno}: joint {name!r} already set on line {set_on[name]}")
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


def forward_kinematics(
    numbered: NumberedModel, q: np.ndarray
) -> list[SpatialTransform]:
    """World pose of every body frame; entry 0 (the root) is the identity.
    The poses are read-only views of the pose arrays in the kinematic plan's
    record of q, so at a q already evaluated no pose is computed."""
    rot, trans = numbered._kinematics.record(q).poses
    return [SpatialTransform._raw(r, t) for r, t in zip(rot, trans)]


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


@_record
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


def _stack(transforms) -> tuple[np.ndarray, np.ndarray]:
    """Rotations (K, 3, 3) and translations (K, 3) of K SpatialTransforms."""
    transforms = list(transforms)
    return (np.array([x.rot for x in transforms]).reshape(-1, 3, 3),
            np.array([x.trans for x in transforms]).reshape(-1, 3))


class _Tree:
    """The tree joints, stacked in tree-level order: the bodies sorted by
    depth, ties by body number, so that each level below the root is one
    contiguous slice of the stacks.  `slot[b]` is body b's place in that
    order (the root's is 0), and joint b's place in `joints` and `origins`
    is slot[b] - 1.  `levels` holds, per level, its slice bounds and the
    slots of its bodies' parents.  The regular numbering is breadth-first,
    so there the level order is the body order; a numbering that
    interleaves depths is reordered."""

    def __init__(self, joints, parent, slices):
        depth = [0]
        for body in range(1, len(joints)):
            depth.append(depth[parent[body]] + 1)
        order = sorted(range(len(joints)), key=depth.__getitem__)  # stable: root first
        slot = [0] * len(order)
        for place, body in enumerate(order):
            slot[body] = place
        self.slot = np.array(slot, dtype=np.intp)
        self.joints = _JointStack(
            [JointKinematics(joints[b].joint_type, joints[b].axis, joints[b].axis2)
             for b in order[1:]],
            [slices[b].start for b in order[1:]])
        self.origins = _stack(joints[b].origin for b in order[1:])
        bounds = [k for k in range(1, len(order)) if depth[order[k]] != depth[order[k - 1]]]
        self.levels = [(low, high, np.array([slot[parent[b]] for b in order[low:high]],
                                            dtype=np.intp))
                       for low, high in zip(bounds, bounds[1:] + [len(order)])]

    def poses(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """World rotations (N+1, 3, 3) and translations (N+1, 3) at q in
        body order, read-only: every joint's origin composed with its joint
        transform, then, level by level, the parents' poses gathered once
        and composed with the level's local transforms straight into the
        level's slice; one gather at the end returns the body order."""
        local_rot, local_trans = _composed(*self.origins, *self.joints.transforms(q))
        rot = np.empty((len(local_rot) + 1, 3, 3))
        rot[0] = np.eye(3)
        trans = np.empty((len(local_rot) + 1, 3))
        trans[0] = 0.0
        for low, high, parents in self.levels:
            rot_p = rot.take(parents, axis=0)
            np.matmul(rot_p, local_rot[low - 1 : high - 1], out=rot[low:high])
            np.add((rot_p @ local_trans[low - 1 : high - 1, :, None])[:, :, 0],
                   trans.take(parents, axis=0), out=trans[low:high])
        return (_read_only(rot.take(self.slot, axis=0)),
                _read_only(trans.take(self.slot, axis=0)))


@_record
class _LoopStep:
    """One loop joint: Psi, its body indices and side frames, and a
    (joint number, start, stop, sign) entry per involved joint that moves."""

    number: int
    name: str
    joint_numbers: tuple[int, ...]
    joint_columns: tuple[tuple[int, int], ...]
    psi: np.ndarray
    predecessor: int
    successor: int
    predecessor_origin: SpatialTransform
    successor_origin: SpatialTransform
    moving: tuple[tuple[int, int, int, float], ...]
    width: int


@_record
class _CouplingStep:
    """One coupling: its configuration-independent row, and that row over
    the full coordinate vector, whose product with q is the residual."""

    jacobian: LoopJacobian
    full_row: np.ndarray


def _row_layout(steps) -> tuple[dict[int, int], int]:
    """Where the loop assembly keeps each loop joint's rows: the joint's
    position among the loop joints, by entry index, and the widest K_l."""
    loops = [index for index, step in enumerate(steps) if isinstance(step, _LoopStep)]
    return ({index: i for i, index in enumerate(loops)},
            max((steps[index].width for index in loops), default=0))


class _LoopGroups:
    """The loop entries split into loop groups: entries joined, directly or
    through others, by a shared coordinate.  Groups touch disjoint columns,
    so rank K is the sum of the groups' ranks.  A group's `K_g` stacks its
    entries' rows, ascending by number, over its coordinates (`columns`, in
    ascending order); every group lies in one loop aggregate, that of its
    `first` entry.

    One lock-step elimination reduces every group, each member padded to
    `shape`: members 0 .. count-1 are the groups, followed by the entries
    of groups with more than one entry, for their own ranks (a one-entry
    group's K_g is its entry's K_l).  `entry_member[l]` is the member that
    holds entry l's rank.

    For G, group g's dependent coordinates d_g (`width[g]` of them) give
    the system basis_g[:, d_g] X = basis_g[:, i_g] over the group's own
    independent coordinates i_g.  The elimination carries only those
    columns; the back substitution then runs over all of G's columns, zero
    outside the group, since the bits of its products depend on the width.
    `complete` says every dependent coordinate lies in a group; `solved_by`
    holds each one's (group, place in the group), (-1, 0) outside them all.

    Both steps run without a loop over the groups, through flat (to, from)
    index arrays built once per model, `batch`'s here and `explicit`'s on
    its first call: `batch` copies a template that holds the couplings'
    constant rows and puts the loop joints' rows, taken from the loop
    assembly's rows, into it; `explicit` takes the dependent and the
    independent blocks out of the reduced batch, and after the elimination
    puts each group's right-hand side into its columns of G.
    """

    def __init__(self, steps, slices, independent, row_layout):
        coordinates = []  # per entry, one per K_l column
        for step in steps:
            layout = step.jacobian if isinstance(step, _CouplingStep) else step
            coordinates.append([
                slices[joint].start + offset
                for joint, (start, stop) in zip(layout.joint_numbers, layout.joint_columns)
                for offset in range(stop - start)
            ])
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
        self.first = list(groups)
        # sorted in Python: np.unique would import numpy.ma
        columns = [sorted({c for e in group for c in coordinates[e]})
                   for group in self.entries]
        self.columns = tuple(np.array(group, dtype=np.intp) for group in columns)
        self._plan_batch(steps, coordinates, columns, row_layout)

        self.independent = tuple(independent)
        chosen = set(self.independent)
        self.dependent = tuple(c for c in range(slices[-1].stop) if c not in chosen)
        position = {c: k for k, c in enumerate(self.independent)}
        self._blocks = []  # per group: local dependent, local and global independent
        for group in columns:
            dep = [k for k, c in enumerate(group) if c not in chosen]
            ind = [k for k, c in enumerate(group) if c in chosen]
            self._blocks.append((dep, ind, [position[group[k]] for k in ind]))
        widths = [len(dep) for dep, _, _ in self._blocks]
        self.width = np.array(widths, dtype=np.intp)
        self.complete = sum(widths) == len(self.dependent)
        solved_by = {group[local]: (member, k)
                     for member, ((dep, _, _), group) in enumerate(zip(self._blocks, columns))
                     for k, local in enumerate(dep)}
        self.solved_by = [solved_by.get(c, (-1, 0)) for c in self.dependent]
        # each dependent coordinate's row of the stacked solutions (0 for one
        # outside every group, where G is not the groups' to give)
        self._size = size = max(widths, default=0)
        self._rows = [member * size + size - widths[member] + k if member >= 0 else 0
                      for member, k in self.solved_by]
        self._rhs = max((len(ind) for _, ind, _ in self._blocks), default=0)

    def _plan_batch(self, steps, coordinates, columns, row_layout):
        """`shape`, `entry_member`, and the template and the flat (to, from)
        indices of `batch`, whose rows come as `row_layout` (_row_layout of
        the steps) places them."""
        heights = [1 if isinstance(step, _CouplingStep) else step.psi.shape[1]
                   for step in steps]
        position, widest = row_layout
        height = max((sum(heights[e] for e in group) for group in self.entries), default=0)
        width = max(map(len, columns), default=0)
        extra = self.count
        self.shape = (extra + sum(len(group) for group in self.entries if len(group) > 1),
                      height, width)
        template = np.zeros(self.shape)
        member_of = [0] * len(steps)
        to, source = [], []
        for member, group in enumerate(self.entries):
            where = {c: k for k, c in enumerate(columns[member])}
            top = 0
            for entry in group:
                local = [where[c] for c in coordinates[entry]]
                places = [(member, top, local)]
                member_of[entry] = member
                if len(group) > 1:
                    places.append((extra, 0, list(range(len(local)))))
                    member_of[entry] = extra
                    extra += 1
                step = steps[entry]
                if isinstance(step, _CouplingStep):
                    for at, first, cols in places:
                        template[at, first, cols] = step.jacobian.matrix[0]
                else:
                    rows = range(position[entry] * 6, position[entry] * 6 + heights[entry])
                    source += [r * widest + k for r in rows for k in range(len(local))
                               ] * len(places)
                    for at, first, cols in places:
                        to += [(at * height + first + r) * width + k
                               for r in range(heights[entry]) for k in cols]
                top += heights[entry]
        self.entry_member = np.array(member_of, dtype=np.intp)
        self._template = _read_only(template)
        self._batch_index = np.array(to + source, dtype=np.intp).reshape(2, -1)

    @cached_property
    def _solve_index(self) -> tuple[np.ndarray, ...]:
        """The flat (to, from) indices of `explicit`, built on its first
        call: each group's dependent block `a` and independent block `b` in
        the trailing rows of its member, from the first `width[g]` rows of
        its reduced member, and the eliminated `b` in G's columns of the
        wide right-hand side; and each solve column's place among all
        dependent coordinates (`explicit` runs on complete groups only)."""
        _, height, width = self.shape
        size, n_i, rhs = self._size, len(self.independent), self._rhs
        places = np.zeros(self.count * size, dtype=np.intp)
        places[self._rows] = np.arange(len(self._rows))
        a_to, a_from, b_to, b_from, wide_to, wide_from = [], [], [], [], [], []
        for member, (dep, ind, position) in enumerate(self._blocks):
            start = size - len(dep)
            for r in range(len(dep)):
                basis_row = (member * height + r) * width
                a_from += [basis_row + k for k in dep]
                b_from += [basis_row + k for k in ind]
                row = member * size + start + r
                a_to += range(row * size + start, (row + 1) * size)
                b_to += range(row * rhs, row * rhs + len(ind))
            for row in range(member * size, (member + 1) * size):
                wide_from += range(row * rhs, row * rhs + len(ind))
                wide_to += [row * n_i + p for p in position]
        return (*(np.array(to + source, dtype=np.intp).reshape(2, -1)
                  for to, source in ((a_to, a_from), (b_to, b_from), (wide_to, wide_from))),
                places.reshape(self.count, size))

    def batch(self, rows: np.ndarray) -> np.ndarray:
        """Every member of the lock-step elimination, zero-padded, from the
        loop assembly's rows (an empty array on a model without a loop
        joint)."""
        to, source = self._batch_index
        out = self._template.copy()
        out.put(to, rows.take(source))
        return out

    def explicit(self, reduced: np.ndarray, tol: float) -> ExplicitJacobian:
        """G from the groups' bases in `reduced`, whose ranks equal `width`,
        by one lock-step solve, each group's system in the trailing block of
        its member; SingularDependentBlockError if a block is singular,
        naming the column by its place among all dependent coordinates."""
        count, size, n_i = self.count, self._size, len(self.independent)
        (a_to, a_from), (b_to, b_from), (wide_to, wide_from), places = self._solve_index
        a = np.zeros((count, size, size))
        a.put(a_to, reduced.take(a_from))
        b = np.zeros((count, size, self._rhs))
        b.put(b_to, reduced.take(b_from))
        a, b = _eliminate_batch(a, b, size - self.width, tol, places)
        wide = np.zeros((count, size, n_i))
        wide.put(wide_to, b.take(wide_from))
        x = _back_substitute(a, wide)
        return ExplicitJacobian(
            np.vstack([np.eye(n_i), -x.reshape(count * size, n_i)[self._rows]]),
            self.independent + self.dependent,
            self.independent,
        )


class _LoopAssembly:
    """Every loop joint's rows and closure pose at a configuration, in one
    pass; loop joint i (`position[entry]`) gets its rows in
    `[i, :rows, :width]` of one (loops, 6, widest) array.

    Block column j is sign * Psi^T * S_j with S_j carried into the
    predecessor-side loop frame along the kinematic chain; the sign is -1
    on the predecessor subchain and +1 on the successor subchain.  The
    (loop, moving joint) pairs are stacked by the joint's DoF, with Psi^T
    the transpose view of Psi padded with zero columns and world_to_loop's
    rotation the transpose view of the loop frame's, so each product keeps
    the layout, and the bits, it has for one pair alone.  `row_layout` is
    _row_layout of the steps, and `slot` the tree's level-order place of
    each body, which gives a joint's place in the tree's joint stack."""

    def __init__(self, steps, slot, row_layout):
        self.position, width = row_layout
        steps = [steps[index] for index in self.position]
        self.predecessor = np.array([step.predecessor for step in steps], dtype=np.intp)
        self.successor = np.array([step.successor for step in steps], dtype=np.intp)
        self.predecessor_origins = _stack(step.predecessor_origin for step in steps)
        self.successor_origins = _stack(step.successor_origin for step in steps)
        psi = np.zeros((len(steps), 6, 6))
        for i, step in enumerate(steps):
            psi[i, :, : step.psi.shape[1]] = step.psi
        self.shape = (len(steps), 6, width)
        by_dof = {}
        for i, step in enumerate(steps):
            for joint, start, stop, sign in step.moving:
                by_dof.setdefault(stop - start, []).append((i, joint, start, sign))
        # per DoF: loops, joints, their places in the joint stack, signs,
        # Psi^T, and places in the rows
        self.pairs = []
        for dof, pairs in sorted(by_dof.items()):
            loop, joint, start, sign = (np.array(column) for column in zip(*pairs))
            places = ((loop[:, None, None] * 6 + np.arange(6)[:, None]) * width
                      + start[:, None, None] + np.arange(dof))
            self.pairs.append((loop, joint, slot[joint] - 1, sign[:, None, None],
                               psi[loop].transpose(0, 2, 1), places.ravel()))

    def evaluate(self, record: _Record):
        """The rows (read-only) and each successor frame's rotation and
        translation in its predecessor frame, at the record's q and poses."""
        (rot, trans), q, joints = record.poses, record.q, record.plan.tree.joints
        p, s = self.predecessor, self.successor
        rot_p, trans_p = _composed(rot[p], trans[p], *self.predecessor_origins)
        to_loop_trans = -(rot_p.transpose(0, 2, 1) @ trans_p[:, :, None])[:, :, 0]
        rows = np.zeros(self.shape)
        for loop, joint, stacked, sign, psi_t, places in self.pairs:
            to_joint = _composed(rot_p[loop].transpose(0, 2, 1), to_loop_trans[loop],
                                 rot[joint], trans[joint])
            maps = _motion_maps(*to_joint, joints.subspaces(q, stacked))
            rows.put(places, sign * (psi_t @ maps))
        frame_s = _composed(rot[s], trans[s], *self.successor_origins)
        return _read_only(rows), *_composed(rot_p.transpose(0, 2, 1), to_loop_trans, *frame_s)


_NO_ROWS = _read_only(np.zeros((0, 6, 0)))  # the loop assembly's rows without a loop joint


def _overflow(jac: LoopJacobian, part: str) -> ConfigurationError:
    """The error of a finite configuration whose values overflow, naming the
    loop entry `jac` and the part of its values that is not finite."""
    return ConfigurationError(f"configuration overflows: {jac.kind} {jac.name!r} "
                              f"(joint {jac.number}) has a non-finite {part}")


class _Record:
    """A kinematic plan's record of one configuration: `key`, the bytes of
    q, and `q`, a read-only copy of it.  Its parts are each made on first
    use and kept: `poses`, the world pose arrays; by `evaluate`, the loop
    assembly's `rows`, the read-only (entries, 6) `residuals` (entry l's in
    row l, zero beyond it), every entry's (rows, residual) in `terms` and
    the half-turn error messages by entry in `failed`; and per tolerance,
    by `eliminated`, the lock-step elimination of every loop group.  A part
    whose making raises is not kept, so asking for it again raises again."""

    def __init__(self, plan: KinematicPlan, key: bytes, q: np.ndarray):
        self.plan, self.key, self.q = plan, key, _read_only(q.copy())
        self.terms = None
        self._bases = {}

    @cached_property
    def poses(self) -> tuple[np.ndarray, np.ndarray]:
        return self.plan.tree.poses(self.q)

    def evaluate(self, graph: ConnectivityGraph) -> _Record:
        """Every loop entry evaluated, the rows made from `poses` only when
        there is a loop joint.  A finite q can still overflow: one check over
        the rows and the residuals raises ConfigurationError, naming the
        first entry with a value that is not finite; no numpy warning escapes."""
        if self.terms is not None:
            return self
        plan, q = self.plan, self.q
        steps = plan.loops(graph)
        position, _ = plan._row_layout
        residuals = np.zeros((len(steps), 6))
        rows, terms, failed = _NO_ROWS, [], {}
        with np.errstate(all="ignore"):  # an overflow is reported below, by entry
            if position:
                rows, rel_rot, rel_trans = plan.assembly(graph).evaluate(self)
            for index, step in enumerate(steps):
                if isinstance(step, _CouplingStep):
                    residual = residuals[index, :1]
                    # a coupling is linear in q: its row times q is the relation itself
                    np.matmul(step.full_row, q, out=residual)
                    terms.append((step.jacobian, _read_only(residual)))
                    continue
                i = position[index]
                residual = residuals[index, : step.psi.shape[1]]
                try:
                    log = so3_log(rel_rot[i])
                except AntipodalRotationError as exc:
                    failed[index] = str(exc)
                else:
                    np.matmul(step.psi.T, np.concatenate([log, rel_trans[i]]), out=residual)
                matrix = rows[i, : step.psi.shape[1], : step.width]
                terms.append((LoopJacobian(step.number, step.name, "loop", step.joint_numbers,
                                           step.joint_columns, matrix), _read_only(residual)))
        if not (np.isfinite(rows).all() and np.isfinite(_read_only(residuals)).all()):
            jac, part = next((jac, part) for jac, residual in terms
                             for part, values in (("row", jac.matrix), ("residual", residual))
                             if not np.isfinite(values).all())
            raise _overflow(jac, f"{part} entry")
        self.rows, self.residuals, self.terms, self.failed = rows, residuals, terms, failed
        return self

    def eliminated(self, graph: ConnectivityGraph, tol: float) -> tuple:
        """The reduced batch and each member's rank, read-only.  A member
        that overflows raises ConfigurationError naming its first entry,
        and no numpy warning escapes."""
        if tol not in self._bases:
            groups = self.plan.groups(graph)
            batch = groups.batch(self.evaluate(graph).rows)
            with np.errstate(all="ignore"):  # an overflow is reported below
                ranks = _row_reduce_batch(batch, tol)
            finite = np.isfinite(batch).all(axis=(1, 2))
            if not finite.all():
                member = int(finite.argmin())
                entry = (groups.first[member] if member < groups.count
                         else int((groups.entry_member == member).argmax()))
                raise _overflow(self.terms[entry][0], "entry in the rank elimination")
            self._bases[tol] = _read_only(batch), _read_only(ranks)
        return self._bases[tol]


class KinematicPlan:
    """The configuration-independent part of a numbered model's kinematics,
    built on first use and held by the model (NumberedModel._kinematics).

    `tree` stacks the tree joints by type and the bodies in tree-level
    order; `loops(graph)` has one step per loop entry, its involved joints
    taken from `graph.subchains`, and `assembly(graph)` stacks the loop
    joints' rows.
    `groups(graph)` splits the loop entries into loop groups, lays out the
    declared independent coordinates over them, and holds the flat index
    arrays through which the rank elimination and G gather their blocks.
    `_declared` is the count check's reading of the independent attributes.
    Each part is built once, on its first use, so a coupling-only model
    never builds the tree part.  The plan also keeps the record of the last
    configuration asked for (`record(q)`), which every function that takes
    q reads, and the first graph that passed `check`, whose subchains the
    loop steps hold.
    """

    def __init__(self, numbered: NumberedModel):
        self._joints = numbered.tree_joint_of
        self._parent = numbered.parent
        self._body_index = numbered._index  # the dict, not a method that holds the model
        self._slices = numbered.coordinate_slices()
        self._entries = numbered.loop_entries
        self._independent = independent_coordinate_indices(numbered)
        self._graph = None
        self._loops = None
        self._assembly = None
        self._groups = None
        self._record = None

    def check(self, graph: ConnectivityGraph) -> KinematicPlan:
        """The plan, after the one check on every graph a public function is
        given: the plan's own graph passes at once; any other must have the
        model's parent map, and each loop edge its entry's number and
        endpoint bodies, else InvalidModelError names the mismatch."""
        if graph is self._graph:
            return self
        if graph.parent != self._parent:
            raise InvalidModelError("connectivity graph is not of this model: "
                                    "its parent map differs from the model's")
        if len(graph.loop_edges) != len(self._entries):
            raise InvalidModelError(
                f"connectivity graph is not of this model: it has {len(graph.loop_edges)} "
                f"loop edges, the model {len(self._entries)} loop joints and couplings")
        for edge, (number, entry) in zip(graph.loop_edges, self._entries):
            want = number, self._body_index[entry.predecessor], self._body_index[entry.successor]
            if (edge.number, edge.predecessor, edge.successor) != want:
                raise InvalidModelError(
                    f"connectivity graph is not of this model: its loop edge {edge.name!r} "
                    f"is joint {edge.number} from body {edge.predecessor} to body "
                    f"{edge.successor}, the model's {entry.name!r} is joint {number} "
                    f"from body {want[1]} to body {want[2]}")
        if self._graph is None:
            self._graph = graph
        return self

    def record(self, q) -> _Record:
        """The record of q, after the one check on every configuration a
        public function is given: the kept record while q's bytes are its
        key, else a new one, which replaces it."""
        try:
            q = np.asarray(q, dtype=float)
        except (TypeError, ValueError):
            raise ConfigurationError("configuration is not a vector of numbers") from None
        if q.shape != (self._slices[-1].stop,):
            raise DimensionMismatchError(
                f"configuration has {q.shape} entries, model takes "
                f"({self._slices[-1].stop},)"
            )
        if not np.isfinite(q).all():
            raise ConfigurationError("configuration has non-finite entries")
        key = q.tobytes()
        if self._record is None or self._record.key != key:
            self._record = _Record(self, key, q)
        return self._record

    @cached_property
    def tree(self) -> _Tree:
        return _Tree(self._joints, self._parent, self._slices)

    @cached_property
    def _declared(self) -> tuple[str, tuple[str, ...], int | None]:
        """(mode, declared joint names, their DoF) for the count check."""
        joints = self._joints[1:]
        if all(joint.independent is None for joint in joints):
            return "spanning", (), None
        # joints without the attribute count as not chosen
        chosen = [joint for joint in joints if joint.independent]
        return ("independent", tuple(joint.name for joint in chosen),
                sum(joint.joint_type.dof for joint in chosen))

    def loops(self, graph: ConnectivityGraph) -> tuple[_LoopStep | _CouplingStep, ...]:
        if self._loops is None:
            self._loops = tuple(
                self._loop_step(graph, index) for index in range(len(self._entries))
            )
            self._row_layout = _row_layout(self._loops)
        return self._loops

    def assembly(self, graph: ConnectivityGraph) -> _LoopAssembly:
        if self._assembly is None:
            self._assembly = _LoopAssembly(self.loops(graph), self.tree.slot,
                                           self._row_layout)
        return self._assembly

    def groups(self, graph: ConnectivityGraph) -> _LoopGroups:
        if self._groups is None:
            self._groups = _LoopGroups(self.loops(graph), self._slices,
                                       self._independent, self._row_layout)
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
            (joint_number, start, stop, -1.0 if joint_number in nu_p else 1.0)
            for joint_number, (start, stop) in zip(joints, columns)
            if start < stop
        )
        return _LoopStep(
            number,
            entry.name,
            tuple(joints),
            tuple(columns),
            psi,
            edge.predecessor,
            edge.successor,
            entry.predecessor_origin,
            entry.successor_origin,
            moving,
            offset,
        )


def _loop_terms(numbered: NumberedModel, graph: ConnectivityGraph, q, indices
                ) -> list[tuple[LoopJacobian, np.ndarray]]:
    """Rows and residual of the loop entries at `indices`, read from the
    plan's record of q.  An entry whose closure is a half-turn raises its
    AntipodalRotationError when it is asked for."""
    record = numbered._kinematics.check(graph).record(q).evaluate(graph)
    for index in indices if record.failed else ():
        if index in record.failed:
            raise AntipodalRotationError(record.failed[index])
    return [record.terms[index] for index in indices]


def _eliminated(
    numbered: NumberedModel, graph: ConnectivityGraph, q, tol: float
) -> tuple[_Record, np.ndarray, np.ndarray]:
    """The plan's record of q, evaluated, and its elimination at tol, which
    the count check and G share; a half-turn closure raises its error."""
    record = numbered._kinematics.check(graph).record(q).evaluate(graph)
    if record.failed:
        raise AntipodalRotationError(next(iter(record.failed.values())))
    return record, *record.eliminated(graph, tol)


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
    return numbered._kinematics.check(graph).loops(graph)[index].jacobian


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


@_record
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
        out[np.array(self.row_coordinates, dtype=np.intp)] = self.matrix
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


@_record
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


@_record
class RedundantAggregate:
    """A loop aggregate whose loops' ranks add up to more than the rank of
    their stacked rows: some of its constraints repeat others."""

    index: int
    sum_rank: int
    rank: int


@_record
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
    if lacg.graph is not graph and lacg.graph != graph:
        raise InvalidModelError("loop-aggregated graph is not of this connectivity graph")
    if q is None:
        q = zero_configuration(numbered)
    n = numbered.total_dof
    record, _, ranks = _eliminated(numbered, graph, q, tol)
    groups = record.plan.groups(graph)
    entry_ranks = ranks[groups.entry_member]
    norms = np.abs(record.residuals).max(axis=1, initial=0.0)
    infos = []
    for (jac, _), rank, norm in zip(record.terms, entry_ranks.tolist(), norms.tolist()):
        rows, columns = jac.matrix.shape
        # every involved body lies in the loop's one aggregate
        aggregate = lacg.body_to_aggregate[jac.joint_numbers[0]]
        infos.append(LoopConstraintInfo(jac.number, jac.name, jac.kind, rows, columns, rank,
                                        jac.joint_numbers, aggregate, norm))
    group_ranks = ranks[: groups.count]
    n_i = n - int(group_ranks.sum())
    redundant = ()
    if groups.shape[0] > groups.count:  # only a group of two or more entries
        # per aggregate: its loops' ranks summed, and its groups' ranks summed
        aggregates = np.array([info.aggregate for info in infos], dtype=np.intp)
        loop_sums, group_sums = (
            np.bincount(at, weights=weights, minlength=len(lacg.aggregates)).astype(np.intp)
            for at, weights in ((aggregates, entry_ranks),
                                (aggregates[groups.first], group_ranks)))
        redundant = tuple(RedundantAggregate(index, int(loop_sums[index]),
                                             int(group_sums[index]))
                          for index in np.flatnonzero(loop_sums > group_sums).tolist())
    mode, declared_joints, declared_dof = record.plan._declared
    passed = None if declared_dof is None else declared_dof == n_i
    return ConstraintReport(n, sum(info.rows for info in infos), n_i, mode, tuple(infos),
                            declared_joints, declared_dof, passed,
                            float(norms.max(initial=0.0)), redundant,
                            tuple(jac for jac, _ in record.terms))


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
    (q, tol) computed; the stacked K is never ranked.  When the declared
    count differs from the check's n_i, CountMismatchError carries both.
    When a dependent coordinate lies in no group, or past its group's rank,
    or a group's solve refuses a pivot, SingularDependentBlockError names
    the first such column by its place among all dependent coordinates.
    """
    _check_tol(tol)
    if q is None:
        q = zero_configuration(numbered)
    record, reduced, ranks = _eliminated(numbered, graph, q, tol)
    groups = record.plan.groups(graph)
    ranks = ranks[: groups.count]
    expected, declared = numbered.total_dof - int(ranks.sum()), len(groups.independent)
    if expected != declared:
        raise CountMismatchError(expected=expected, declared=declared)
    if not (groups.complete and np.array_equal(ranks, groups.width)):
        # the counts agree: some group's rank is short, or a coordinate is in none
        column = next(place for place, (member, k) in enumerate(groups.solved_by)
                      if member < 0 or k >= ranks[member])
        raise SingularDependentBlockError(f"pivot {0.0:.3e} below tolerance in column {column}")
    with np.errstate(all="ignore"):  # an overflow is reported below
        explicit = groups.explicit(reduced, tol)
    if np.isfinite(explicit.matrix).all():
        return explicit
    finite = np.isfinite(explicit.in_coordinate_order()).all(axis=1)
    member = next(m for m, columns in enumerate(groups.columns) if not finite[columns].all())
    raise _overflow(record.terms[groups.first[member]][0], "entry in the solve for G")
