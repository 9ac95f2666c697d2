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

import operator
import re
import string
from dataclasses import field
from functools import cached_property

import numpy as np

from .errors import (
    AntipodalRotationError,
    ConfigurationError,
    CountMismatchError,
    DimensionMismatchError,
    IncompatibleCouplingError,
    InvalidModelError,
    SingularDependentBlockError,
)
from .graphs import ConnectivityGraph, LoopAggregatedGraph
from .model import Coupling, NumberedModel, _record
from .spatial import (
    SpatialTransform,
    _back_substitute,
    _check_tol,
    _composed,
    _eliminate_batch,
    _JointStack,
    _motion_maps,
    _row_reduce_batch,
    _so3_logs,
    _solve_layout,
    constraint_force_subspace,
    numerical_rank,
)
from .xmlio import _plain_number

RANK_TOL = 1e-10


def zero_configuration(numbered: NumberedModel) -> np.ndarray:
    return np.zeros(numbered.total_dof)


def parse_configuration(text: str, numbered: NumberedModel) -> np.ndarray:
    """Read 'joint-name: v1 v2 ...' lines into a stacked position vector.

    Unlisted joints stay at zero; a joint listed twice is an error.  Blank
    lines and '#' comments are skipped.  Lines end at '\\n', '\\r\\n' and '\\r'
    only, as in XML and Python's universal newlines.
    A joint name may hold ':' and '#': a line splits at the last ':' after a
    joint's name, its comment at the next '#'; else at its first '#', then ':'.
    """
    by_name = {}
    slices = numbered.coordinate_slices()
    for body in range(1, numbered.n_bodies + 1):
        by_name[numbered.tree_joint_of[body].name] = slices[body]
    set_on = {}  # joint name -> the line that set it
    q = zero_configuration(numbered)
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
        named = [i for i, c in enumerate(raw) if c == ":" and raw[:i].strip() in by_name]
        if not named:  # a blank line, a comment, or an error
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if ":" not in line:
                raise ConfigurationError(f"line {lineno}: expected 'name: values'")
            name = line.split(":", 1)[0].strip()
            raise ConfigurationError(f"line {lineno}: unknown joint {name!r}")
        name = raw[: named[-1]].strip()
        # quoted as written: str.strip() would also take the non-ASCII spaces it refuses
        values = raw[named[-1] + 1 :].split("#", 1)[0].strip(string.whitespace)
        if set_on.setdefault(name, lineno) != lineno:
            raise ConfigurationError(
                f"line {lineno}: joint {name!r} already set on line {set_on[name]}")
        segment = by_name[name]
        width = segment.stop - segment.start
        try:
            if not _plain_number(values):
                raise ValueError
            # at ASCII white space: str.split() also splits at \x1c-\x1f, which float() refuses
            parsed = [float(v) for v in re.split(f"[{string.whitespace}]+", values) if v]
        except ValueError:
            raise ConfigurationError(f"line {lineno}: invalid number in {values!r}") from None
        if not np.isfinite(parsed).all():
            raise ConfigurationError(f"line {lineno}: non-finite number in {values!r}")
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
    """Position of a loop entry, and of its connectivity-graph edge; a
    number must be an integer (operator.index) that names a loop entry."""
    try:
        index = operator.index(number) - numbered.n_bodies - 1
    except TypeError:
        index = -1
    if not 0 <= index < len(numbered.loop_entries):
        raise ConfigurationError(f"no loop joint or coupling numbered {number!r}")
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
        self._body_order = order == sorted(order)
        self.joints = _JointStack([joints[b] for b in order[1:]],
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
        level's slice; one gather returns the body order if that differs."""
        local_rot, local_trans = _composed(*self.origins, *self.joints.transforms(q))
        local_trans = local_trans[:, :, None]
        rot = np.empty((len(local_rot) + 1, 3, 3))
        rot[0] = np.eye(3)
        trans = np.zeros((len(local_rot) + 1, 3))
        columns = trans[:, :, None]  # the translations as columns, as the products give them
        for low, high, parents in self.levels:
            rot_p = rot.take(parents, axis=0)
            np.matmul(rot_p, local_rot[low - 1 : high - 1], out=rot[low:high])
            np.add(rot_p @ local_trans[low - 1 : high - 1], columns.take(parents, axis=0),
                   out=columns[low:high])
        if not self._body_order:
            rot, trans = rot.take(self.slot, axis=0), trans.take(self.slot, axis=0)
        return _read_only(rot), _read_only(trans)


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


class _LoopGroups:
    """The loop entries split into loop groups: entries joined, directly or
    through others, by a shared coordinate.  Groups touch disjoint columns,
    so rank K is the sum of the groups' ranks.  A group's `K_g` stacks its
    entries' rows, ascending by number, over its coordinates (`columns`, in
    ascending order); every group lies in one loop aggregate, that of its
    `first` entry.

    One batch holds every group, each member padded to `shape`: members
    0 .. count-1 are the groups, followed by the entries of groups with
    more than one entry, for their own ranks (a one-entry group's K_g is its
    entry's K_l).  Every member is reduced in one lock-step elimination,
    tallest first (`lock_step`), on the schedule `live`: live[p] of them are
    taller than p rows, so a member of one row, such as a coupling's own
    group or its extra member in a larger group, leaves the lock step once
    it has pivoted in column 0.  `entry_member[l]` is the member that
    holds entry l's rank, with K_l in its leading rows and columns, and
    `places[l]` the (member, first row, local columns) of every member that
    holds entry l's rows.  The read-only `template` holds each coupling's
    constant row at its places; the loop assembly puts each loop joint's
    rows at theirs, in a copy of it.

    For G, group g's dependent coordinates d_g (`width[g]` of them) give
    the system basis_g[:, d_g] X = basis_g[:, i_g] over the group's own
    independent coordinates i_g, and -X goes into G's rows of d_g and
    columns of i_g; G is +0.0 elsewhere below its identity block.
    `complete` says every dependent coordinate lies in a group; `solved_by`
    holds each one's (group, place in the group), (-1, 0) outside them all.
    `explicit` runs without a loop over the groups, through flat (to, from)
    index arrays built on its first call: it takes the dependent and the
    independent blocks out of the reduced batch, and after the solve checks
    each group's -X for overflow and puts it into G.
    """

    def __init__(self, steps, slices, independent):
        coordinates = []  # per entry, one per K_l column
        for step in steps:
            coordinates.append([
                slices[joint].start + offset
                for joint, (start, stop) in zip(step.joint_numbers, step.joint_columns)
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
        self._plan_batch(steps, coordinates, columns)

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
        self._size = max(widths, default=0)
        self._rhs = max((len(ind) for _, ind, _ in self._blocks), default=0)

    def _plan_batch(self, steps, coordinates, columns):
        """`shape`, `entry_member`, `places`, `template`, `lock_step` and
        `live`."""
        heights = [step.rows if isinstance(step, LoopJacobian) else step.psi.shape[1]
                   for step in steps]
        height = max((sum(heights[e] for e in group) for group in self.entries), default=0)
        width = max(map(len, columns), default=0)
        extra = self.count
        self.shape = (extra + sum(len(group) for group in self.entries if len(group) > 1),
                      height, width)
        template = np.zeros(self.shape)
        member_of, places = [0] * len(steps), [()] * len(steps)
        tall = [sum(heights[e] for e in group) for group in self.entries]  # member heights
        tall += [heights[e] for group in self.entries if len(group) > 1 for e in group]
        self.lock_step = np.array(sorted(range(len(tall)), key=lambda m: -tall[m]), dtype=np.intp)
        self.live = tuple(sum(h > p for h in tall) for p in range(height + 1))
        for member, group in enumerate(self.entries):
            where = {c: k for k, c in enumerate(columns[member])}
            top = 0
            for entry in group:
                local = [where[c] for c in coordinates[entry]]
                places[entry] = ((member, top, local),)
                member_of[entry] = member
                if len(group) > 1:
                    places[entry] += ((extra, 0, list(range(len(local)))),)
                    member_of[entry] = extra
                    extra += 1
                if isinstance(steps[entry], LoopJacobian):
                    for at, first, cols in places[entry]:
                        template[at, first, cols] = steps[entry].matrix[0]
                top += heights[entry]
        self.entry_member = np.array(member_of, dtype=np.intp)
        self.places = tuple(places)
        self.template = _read_only(template)

    @cached_property
    def _solve_index(self) -> tuple[np.ndarray, ...]:
        """The flat (to, from) indices of `explicit`, built on its first
        call: each group's dependent block `a` and independent block `b` in
        the trailing rows of its member of the system [a | b], from its
        reduced member's first `width[g]` rows, and its solution x in G's
        rows and columns of its coordinates; and the system's _solve_layout,
        naming each column by its place among all dependent coordinates."""
        _, height, width = self.shape
        size, n_i, rhs = self._size, len(self.independent), self._rhs
        names = np.zeros((self.count, size), dtype=np.intp)
        for k, (member, local) in enumerate(self.solved_by):
            if member >= 0:
                names[member, size - self.width[member] + local] = k
        system_to, system_from, g_to, g_from = [], [], [], []
        for member, (dep, ind, position) in enumerate(self._blocks):
            start = size - len(dep)
            for r in range(len(dep)):
                system_from += [(member * height + r) * width + k for k in dep + ind]
                row = member * size + start + r
                system_to += range(row * (size + rhs) + start, row * (size + rhs) + size + len(ind))
                g_from += range(row * rhs, row * rhs + len(ind))
                g_to += [(n_i + names[member, start + r]) * n_i + p for p in position]
        return (*(np.array(to + source, dtype=np.intp).reshape(2, -1)
                  for to, source in ((system_to, system_from), (g_to, g_from))),
                _solve_layout(size - self.width, size, names))

    def explicit(self, reduced: np.ndarray, tol: float, terms) -> ExplicitJacobian:
        """G from the groups' bases in `reduced`, whose ranks equal `width`,
        by one lock-step solve, each group's system in the trailing block of
        its member, over its own independent columns in the leading ones of
        the widest group's; SingularDependentBlockError if a block is
        singular, naming the column by its place among all dependent
        coordinates.  Only the solved entries can overflow: the first that
        is not finite gives its group, whose first entry `terms` (the
        record's) names in the ConfigurationError."""
        (system_to, system_from), (g_to, g_from), layout = self._solve_index
        system = np.zeros((self.count, self._size, self._size + self._rhs))
        system.put(system_to, reduced.take(system_from))
        with np.errstate(all="ignore"):  # an overflow is reported below
            solved = -_back_substitute(*_eliminate_batch(system, layout, tol)).take(g_from)
        if not np.isfinite(solved).all():  # g_from's first non-finite entry names the group
            member = g_from[np.isfinite(solved).argmin()] // (self._size * self._rhs)
            raise _overflow(terms[self.first[member]][0], "entry in the solve for G")
        n_i = len(self.independent)
        matrix = np.zeros((n_i + len(self.dependent), n_i))
        matrix[:n_i].flat[:: n_i + 1] = 1.0  # the identity block, then each group's -x
        matrix.put(g_to, solved)
        return ExplicitJacobian(matrix, self.independent + self.dependent, self.independent)


class _LoopAssembly:
    """Every loop joint's rows and closure residual at a configuration, in
    one pass; loop joint l (loop entry l) gets its rows at each of the loop
    groups' `places[l]` in their batch.

    Block column j is sign * Psi^T * S_j with S_j carried into the
    predecessor-side loop frame along the kinematic chain; the sign is -1
    on the predecessor subchain and +1 on the successor subchain.  The
    (loop, moving joint) pairs are stacked by the joint's DoF, with Psi^T
    the transpose view of Psi padded with zero columns and world_to_loop's
    rotation the transpose view of the loop frame's, so each product keeps
    the layout, and the bits, it has for one pair alone; one flat (to, from)
    index pair per DoF puts only each loop's constraint rows of the
    products at every place of that loop.  `slot` is the tree's level-order
    place of each body, which gives a joint's place in the tree's joint
    stack.  The residuals are one padded product of `psi_t` with the
    stacked pose errors.  Poses are gathered with `take`, as in _JointStack."""

    def __init__(self, steps, groups: _LoopGroups, slot):
        self.predecessor = np.array([step.predecessor for step in steps], dtype=np.intp)
        self.successor = np.array([step.successor for step in steps], dtype=np.intp)
        self.predecessor_origins = _stack(step.predecessor_origin for step in steps)
        self.successor_origins = _stack(step.successor_origin for step in steps)
        psi = np.zeros((len(steps), 6, 6))
        for i, step in enumerate(steps):
            psi[i, :, : step.psi.shape[1]] = step.psi
        self.psi_t = psi.transpose(0, 2, 1)
        self.residual_index = np.array([i * 6 + r for i, step in enumerate(steps)
                                        for r in range(step.psi.shape[1])], dtype=np.intp)
        by_dof = {}
        for i, step in enumerate(steps):
            for joint, start, stop, sign in step.moving:
                by_dof.setdefault(stop - start, []).append((i, joint, start, sign))
        _, height, width = groups.shape
        # per DoF: loops, joints, their places in the joint stack, signs,
        # Psi^T, and the (to, from) indices of the rows of the products
        self.pairs = []
        for dof, pairs in sorted(by_dof.items()):
            to, source = [], []
            for pair, (i, _, start, _) in enumerate(pairs):
                rows = range(steps[i].psi.shape[1])
                for member, first, cols in groups.places[i]:
                    to += [(member * height + first + r) * width + cols[start + k]
                           for r in rows for k in range(dof)]
                    source += [(pair * 6 + r) * dof + k for r in rows for k in range(dof)]
            loop, joint, start, sign = (np.array(column) for column in zip(*pairs))
            self.pairs.append((loop, joint, slot[joint] - 1, sign[:, None, None],
                               psi[loop].transpose(0, 2, 1),
                               np.array(to + source, dtype=np.intp).reshape(2, -1)))

    def evaluate(self, record: _Record, rows: np.ndarray, residuals: np.ndarray) -> dict:
        """Each loop joint's rows into `rows`, a copy of the loop groups'
        template, and each residual into `residuals`, at the record's q and
        poses; returns the half-turn error messages by entry."""
        (rot, trans), q, joints = record.poses, record.q, record.plan.tree.joints
        p, s = self.predecessor, self.successor
        rot_p, trans_p = _composed(rot.take(p, axis=0), trans.take(p, axis=0),
                                   *self.predecessor_origins)
        to_loop_trans = -(rot_p.transpose(0, 2, 1) @ trans_p[:, :, None])[:, :, 0]
        for loop, joint, stacked, sign, psi_t, (to, source) in self.pairs:
            to_joint = _composed(rot_p.take(loop, axis=0).transpose(0, 2, 1),
                                 to_loop_trans.take(loop, axis=0),
                                 rot.take(joint, axis=0), trans.take(joint, axis=0))
            maps = _motion_maps(*to_joint, joints.subspaces(q, stacked))
            rows.put(to, (sign * (psi_t @ maps)).take(source))
        frame_s = _composed(rot.take(s, axis=0), trans.take(s, axis=0), *self.successor_origins)
        rel_rot, rel_trans = _composed(rot_p.transpose(0, 2, 1), to_loop_trans, *frame_s)
        logs, failed = _so3_logs(rel_rot)
        errors = np.concatenate((logs, rel_trans), axis=1)[:, :, None]
        residuals.put(self.residual_index, (self.psi_t @ errors).take(self.residual_index))
        if failed:  # a half-turn's residual stays unread, and zero
            residuals[list(failed)] = 0.0
        return failed


def _overflow(jac: LoopJacobian, part: str) -> ConfigurationError:
    """The error of a finite configuration whose values overflow, naming the
    loop entry `jac` and the part of its values that is not finite."""
    return ConfigurationError(f"configuration overflows: {jac.kind} {jac.name!r} "
                              f"(joint {jac.number}) has a non-finite {part}")


class _Record:
    """A kinematic plan's record of one configuration: `key`, the bytes of
    q, and `q`, a read-only copy of it.  Its parts are each made on first
    use and kept: `poses`, the world pose arrays; by `evaluate`, `rows`,
    the loop groups' unreduced batch (read-only), the read-only (entries, 6)
    `residuals` (entry l's in row l, zero beyond it), every entry's (rows,
    residual) in `terms`, entry l's rows a view of its `entry_member` in
    `rows`, and the half-turn error messages by entry in `failed`; and per
    tolerance, by `eliminated`, the lock-step elimination of every loop
    group.  A part whose making raises is not kept, so asking for it again
    raises again."""

    def __init__(self, plan: KinematicPlan, key: bytes, q: np.ndarray):
        self.plan, self.key, self.q = plan, key, _read_only(q.copy())
        self.terms = None
        self._bases = {}

    @cached_property
    def poses(self) -> tuple[np.ndarray, np.ndarray]:
        return self.plan.tree.poses(self.q)

    def evaluate(self) -> _Record:
        """Every loop entry evaluated, as views of `rows` and `residuals`;
        `rows` is a copy of the loop groups' template, into which the loop
        assembly puts the loop joints' rows, made from `poses`.  A finite q can
        still overflow: one check over both raises ConfigurationError, naming
        the first entry with a value that is not finite; no numpy warning escapes."""
        if self.terms is not None:
            return self
        plan, steps, loops = self.plan, self.plan.loops, self.plan.loop_count
        residuals, rows, failed = np.zeros((len(steps), 6)), plan.groups.template.copy(), {}
        with np.errstate(all="ignore"):  # an overflow is reported below, by entry
            if loops:
                failed = plan.assembly.evaluate(self, rows, residuals)
            if loops < len(steps):
                # a coupling is linear in q: its row times q is the relation itself
                residuals[loops:, 0] = plan._coupling_rows @ self.q
        rows, residuals = _read_only(rows), _read_only(residuals)
        terms = [(LoopJacobian(step.number, step.name, "loop", step.joint_numbers,
                               step.joint_columns, rows[at, : step.psi.shape[1], : step.width]),
                  residuals[i, : step.psi.shape[1]])
                 for i, (step, at) in enumerate(zip(steps[:loops], plan.groups.entry_member))]
        terms += [(step, residuals[i, :1]) for i, step in enumerate(steps[loops:], loops)]
        if not (np.isfinite(rows).all() and np.isfinite(residuals).all()):
            for jac, residual in terms:  # every value in `rows` is some entry's
                for part, values in (("row", jac.matrix), ("residual", residual)):
                    if not np.isfinite(values).all():
                        raise _overflow(jac, f"{part} entry")
        self.rows, self.residuals, self.terms, self.failed = rows, residuals, terms, failed
        return self

    def eliminated(self, tol: float) -> tuple:
        """The reduced batch and each member's rank, read-only, at a checked
        tol: one lock-step elimination of every member, in the loop groups'
        `lock_step` order and on their `live` schedule (see _LoopGroups).  A
        member that overflows raises ConfigurationError naming its first
        entry, and no numpy warning escapes."""
        if tol not in self._bases:
            groups, batch = self.plan.groups, self.evaluate().rows.copy()
            ranks, order = np.zeros(len(batch), dtype=np.intp), groups.lock_step
            reduced = batch.take(order, axis=0)
            with np.errstate(all="ignore"):  # an overflow is reported below
                ranks[order] = _row_reduce_batch(reduced, tol, groups.live)
            batch[order] = reduced
            if not np.isfinite(batch).all():
                member = int(np.isfinite(batch).all(axis=(1, 2)).argmin())
                entry = (groups.first[member] if member < groups.count
                         else int((groups.entry_member == member).argmax()))
                raise _overflow(self.terms[entry][0], "entry in the rank elimination")
            self._bases[tol] = _read_only(batch), _read_only(ranks)
        return self._bases[tol]


class KinematicPlan:
    """The configuration-independent part of a numbered model's kinematics,
    built on first use and held by the model (NumberedModel._kinematics).

    `tree` stacks the tree joints by type and the bodies in tree-level
    order.  `loops` has one step per loop entry in NumberedModel's order,
    which the plan checks (a coupling before a loop joint raises
    InvalidModelError): `loop_count` loop joints' steps, then the couplings'
    read-only LoopJacobians, their involved joints taken from the subchains
    of `_graph`, the first graph that passed `check`: any graph that passes
    has the same.  `groups` splits the loop entries into loop groups, lays
    out every entry's rows in the batch of their lock-step elimination and
    the declared independent coordinates over them, and holds the flat
    index arrays through which G gathers its blocks.  `assembly`, built
    from `groups`, writes the loop joints' rows into that batch, and
    `_coupling_rows` holds the couplings' rows over all of q.  `_declared`
    is the count check's reading of the independent attributes.  Each part
    is built once, on its first use, so a coupling-only model never builds
    the tree part.  `record(q)` keeps the record of the last
    configuration asked for, which every function that takes q reads.
    """

    def __init__(self, numbered: NumberedModel):
        self._joints = numbered.tree_joint_of
        self._parent = numbered.parent
        self._body_index = numbered._index  # the dict, not a method that holds the model
        self._slices = numbered.coordinate_slices()
        self._entries = numbered.loop_entries
        is_coupling = [isinstance(entry, Coupling) for _, entry in self._entries]
        self.loop_count = is_coupling.count(False)
        if any(is_coupling[: self.loop_count]):  # then the first coupling is one of them
            name = self._entries[is_coupling.index(True)][1].name
            raise InvalidModelError(f"coupling {name!r} is numbered before a loop joint")
        self._independent = independent_coordinate_indices(numbered)
        self._graph = self._record = None

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
        try:  # numbers numpy stores as bool, integer or float; str, complex and None not
            q = np.asarray(q)
            if q.dtype.kind not in "biuf":
                raise TypeError
        except (TypeError, ValueError):
            raise ConfigurationError("configuration is not a vector of numbers") from None
        q = q.astype(float, copy=False)
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
        return ("independent", tuple(joint.name for joint in joints if joint.independent),
                len(self._independent))

    @cached_property
    def loops(self) -> tuple[_LoopStep | LoopJacobian, ...]:
        return tuple(self._loop_step(i) for i in range(len(self._entries)))

    @cached_property
    def _coupling_rows(self) -> np.ndarray:
        """The couplings' rows over all of q, stacked."""
        return np.array([step.scatter(self._slices, self._slices[-1].stop)[0]
                         for step in self.loops[self.loop_count :]])

    @cached_property
    def assembly(self) -> _LoopAssembly:
        return _LoopAssembly(self.loops[: self.loop_count], self.groups, self.tree.slot)

    @cached_property
    def groups(self) -> _LoopGroups:
        return _LoopGroups(self.loops, self._slices, self._independent)

    def _loop_step(self, index: int) -> _LoopStep | LoopJacobian:
        number, entry = self._entries[index]
        _, nu_p, nu_s = self._graph.subchains[index]
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
            return LoopJacobian(number, entry.name, "coupling", tuple(joints),
                                tuple(columns), _read_only(row))
        psi = constraint_force_subspace(entry.joint_type, entry.axis, entry.axis2)
        edge = self._graph.loop_edges[index]
        moving = tuple(
            (joint_number, start, stop, -1.0 if joint_number in nu_p else 1.0)
            for joint_number, (start, stop) in zip(joints, columns)
            if start < stop
        )
        return _LoopStep(number, entry.name, tuple(joints), tuple(columns), psi,
                         edge.predecessor, edge.successor, entry.predecessor_origin,
                         entry.successor_origin, moving, offset)


def _evaluated(numbered: NumberedModel, graph: ConnectivityGraph, q, indices) -> _Record:
    """The plan's record of q, evaluated; an entry at `indices` whose closure
    is a half-turn raises its AntipodalRotationError."""
    record = numbered._kinematics.check(graph).record(q).evaluate()
    for index in indices if record.failed else ():
        if index in record.failed:
            raise AntipodalRotationError(record.failed[index])
    return record


def _eliminated(
    numbered: NumberedModel, graph: ConnectivityGraph, q, tol: float
) -> tuple[_Record, np.ndarray, np.ndarray]:
    """The plan's record of q, evaluated, and its elimination at tol, which
    the count check and G share; a half-turn closure raises its error."""
    record = _evaluated(numbered, graph, q, range(len(numbered.loop_entries)))
    return record, *record.eliminated(tol)


def implicit_loop_jacobian(
    numbered: NumberedModel,
    graph: ConnectivityGraph,
    number: int,
    q: np.ndarray,
) -> LoopJacobian:
    """Velocity-level constraint rows of one loop joint (or coupling) at q."""
    index = _loop_index(numbered, number)
    return _evaluated(numbered, graph, q, [index]).terms[index][0]


def coupling_row(
    numbered: NumberedModel, graph: ConnectivityGraph, number: int
) -> LoopJacobian:
    """Single constraint row of a coupling: the summed predecessor-subchain
    positions equal ratio times the summed successor-subchain positions.
    The row does not depend on the configuration."""
    index = _loop_index(numbered, number)
    if not isinstance(numbered.loop_entries[index][1], Coupling):
        raise IncompatibleCouplingError(f"joint {number} is not a coupling")
    return numbered._kinematics.check(graph).loops[index]


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
    return _evaluated(numbered, graph, q, [index]).terms[index][1]


def all_loop_jacobians(
    numbered: NumberedModel, graph: ConnectivityGraph, q: np.ndarray
) -> list[LoopJacobian]:
    """Jacobians of every loop joint and coupling, ascending by number."""
    indices = range(len(numbered.loop_entries))
    return [jac for jac, _ in _evaluated(numbered, graph, q, indices).terms]


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
    tol = _check_tol(tol)
    if lacg.graph is not graph and lacg.graph != graph:
        raise InvalidModelError("loop-aggregated graph is not of this connectivity graph")
    if q is None:
        q = zero_configuration(numbered)
    n = numbered.total_dof
    record, _, ranks = _eliminated(numbered, graph, q, tol)
    groups = record.plan.groups
    entry_ranks = ranks.take(groups.entry_member)
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
    the first such column by its place among all dependent coordinates.  A
    solve that overflows raises ConfigurationError, naming the first loop
    entry of the first group whose solution is not finite.
    """
    tol = _check_tol(tol)
    if q is None:
        q = zero_configuration(numbered)
    record, reduced, ranks = _eliminated(numbered, graph, q, tol)
    groups = record.plan.groups
    ranks = ranks[: groups.count]
    expected, declared = numbered.total_dof - int(ranks.sum()), len(groups.independent)
    if expected != declared:
        raise CountMismatchError(expected=expected, declared=declared)
    if not (groups.complete and (ranks == groups.width).all()):
        # the counts agree: some group's rank is short, or a coordinate is in none
        column = next(place for place, (member, k) in enumerate(groups.solved_by)
                      if member < 0 or k >= ranks[member])
        raise SingularDependentBlockError(f"pivot {0.0:.3e} below tolerance in column {column}")
    return groups.explicit(reduced, tol, record.terms)
