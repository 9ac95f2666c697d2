"""In-memory robot model, structural validation, and regular numbering.

A RobotModel is the direct image of one description file: links, the tree
joints that form the spanning tree, plus the loop joints and couplings that
close kinematic loops.  Numbering assigns body indices 0..N_B (root = 0,
every body above its parent) and joint indices 1..N_J.

The records built per element or per configuration, here and in graphs,
constraints and xmlio, are slotted frozen dataclasses (_record); a class
that caches values on the instance or checks itself after construction
stays a plain frozen dataclass.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields, is_dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidModelError
from .spatial import ORTHOGONAL_AXES_TOL, JointType, SpatialTransform


def _record(cls):
    """cls as a slotted frozen dataclass whose own __init__, with the
    generated one's signature, defaults and default factories, stores each
    field through its slot's setter, where the generated frozen __init__
    calls object.__setattr__ once per field."""
    cls = dataclass(frozen=True, slots=True)(cls)
    generated = inspect.signature(cls.__init__).parameters
    scope, params, body = {}, [], []
    for f in fields(cls):
        name, default = f.name, generated[f.name].default
        # a default factory's default is the generated __init__'s marker
        scope[f"set_{name}"], scope[f"default_{name}"] = getattr(cls, name).__set__, default
        params.append(name if default is inspect.Parameter.empty else f"{name}=default_{name}")
        if f.default_factory is not MISSING:
            scope[f"make_{name}"] = f.default_factory
            body.append(f"if {name} is default_{name}: {name} = make_{name}()")
        body.append(f"set_{name}(self, {name})")
    exec(f"def __init__(self, {', '.join(params)}):\n    " + "\n    ".join(body), scope)
    init = scope["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = cls.__init__.__annotations__
    # the generated __setattr__ and __delattr__ compare type(self) with the
    # class before slots were added: for a name that is not a field they
    # raise TypeError, where a frozen dataclass raises FrozenInstanceError
    cls.__init__, cls.__setattr__, cls.__delattr__ = init, _assign, _delete
    return cls


def _assign(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delete(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


@_record
class Inertial:
    mass: float
    center_of_mass: tuple[float, float, float] = (0.0, 0.0, 0.0)
    inertia: tuple[tuple[float, ...], ...] = (
        (0.0, 0.0, 0.0),
        (0.0, 0.0, 0.0),
        (0.0, 0.0, 0.0),
    )


@_record
class Link:
    name: str
    inertial: Inertial | None = None
    # visual/collision/vendor elements, preserved verbatim and never interpreted
    payload: tuple[str, ...] = ()


@_record
class TreeJoint:
    name: str
    joint_type: JointType
    parent: str
    child: str
    origin: SpatialTransform = field(default_factory=SpatialTransform.identity)
    axis: tuple[float, float, float] | None = None
    axis2: tuple[float, float, float] | None = None
    independent: bool | None = None  # tri-state; None == attribute omitted
    payload: tuple[str, ...] = ()  # limit/dynamics/... preserved verbatim


@_record
class LoopJoint:
    name: str
    joint_type: JointType
    predecessor: str
    successor: str
    predecessor_origin: SpatialTransform = field(
        default_factory=SpatialTransform.identity
    )
    successor_origin: SpatialTransform = field(
        default_factory=SpatialTransform.identity
    )
    axis: tuple[float, float, float] | None = None
    axis2: tuple[float, float, float] | None = None


@_record
class Coupling:
    name: str
    predecessor: str
    successor: str
    ratio: float


@dataclass(frozen=True)
class RobotModel:
    name: str
    links: tuple[Link, ...] = ()
    tree_joints: tuple[TreeJoint, ...] = ()
    loop_joints: tuple[LoopJoint, ...] = ()
    couplings: tuple[Coupling, ...] = ()
    # material/transmission/gazebo/sensor elements, preserved verbatim
    payload: tuple[str, ...] = ()

    def link_names(self) -> list[str]:
        return [link.name for link in self.links]

    @cached_property
    def _validation(self) -> ValidationReport:
        """validate_model's report, made on first use: the validator reads
        only the model's immutable fields."""
        return _validate(self)


@_record
class Violation:
    code: str
    message: str
    subject: str = ""

    def __str__(self) -> str:
        if self.subject:
            return f"{self.code}: {self.message} ({self.subject})"
        return f"{self.code}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()
    # the validator's tree walk (names, parent indices, parent joints), in
    # walk order; on a valid model it is the regular numbering
    walk: tuple = field(default=((), (), ()), repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "model valid"
        return "\n".join(str(v) for v in self.violations)


def walk_subchains(parent, a: int, b: int) -> tuple[int, list[int], list[int]]:
    """(nca, subchain of a, subchain of b) under a regular numbering, where
    every index exceeds its parent's: the larger index steps up to its parent
    until both meet at the nearest common ancestor.  Each subchain lists the
    bodies from its start up to, but excluding, the ancestor.  nca is -1 when
    a and b lie in different trees or either is -1."""
    nu_a: list[int] = []
    nu_b: list[int] = []
    while a != b:
        if a > b:
            nu_a.append(a)
            a = parent[a]
        else:
            nu_b.append(b)
            b = parent[b]
    return a, nu_a, nu_b


def validate_model(model: RobotModel) -> ValidationReport:
    """Structural validation; violations are data, nothing is raised.  The
    report is made once per model and shared by every later call."""
    return model._validation


def _validate(model: RobotModel) -> ValidationReport:
    violations: list[Violation] = []
    link_names = model.link_names()
    known = set(link_names)

    # The name rule, over two namespaces: the links, and the tree joints,
    # loops and couplings together.
    for noun, kinds in (("link", (("link", model.links),)),
                        ("joint", (("joint", model.tree_joints), ("loop", model.loop_joints),
                                   ("coupling", model.couplings)))):
        seen: set[str] = set()
        for kind, records in kinds:
            for record in records:
                name = record.name
                if not name:
                    violations.append(Violation("empty-name", f"{kind} with empty name"))
                elif name in seen:
                    violations.append(Violation(f"duplicate-{noun}", f"duplicate {noun} name",
                                                name))
                seen.add(name)

    def check_ends(name: str, kind: str, a: str, b: str, code: str, same: str):
        """The end rule: both ends name a link, and not the same one."""
        for ref in (a, b):
            if ref not in known:
                violations.append(Violation(
                    "unknown-link", f"{kind} references unknown link {ref!r}", name))
        if a == b:
            violations.append(Violation(code, same, name))

    for joint in model.tree_joints:
        parent, child = joint.parent, joint.child
        if parent == child or parent not in known or child not in known:
            check_ends(joint.name, "joint", parent, child,
                       "self-joint", "joint parent equals child")
        if joint.joint_type.requires_axis:
            if joint.axis is None:
                violations.append(
                    Violation("axis-missing", "joint type requires an axis", joint.name)
                )
        elif joint.axis is not None:
            violations.append(
                Violation("axis-unused", "joint type takes no axis", joint.name)
            )

    for loop in model.loop_joints:
        check_ends(loop.name, "loop", loop.predecessor, loop.successor,
                   "self-loop", "loop predecessor equals successor")
        if loop.joint_type.requires_axis and loop.axis is None:
            violations.append(
                Violation("axis-missing", "loop type requires an axis", loop.name)
            )

    for joint in (*model.tree_joints, *model.loop_joints):
        if (
            joint.joint_type is JointType.UNIVERSAL
            and joint.axis is not None
            and joint.axis2 is not None
            and abs(np.dot(joint.axis, joint.axis2)) > ORTHOGONAL_AXES_TOL
        ):
            violations.append(
                Violation("axis-not-orthogonal",
                          "universal joint axes must be orthogonal", joint.name)
            )

    for coupling in model.couplings:
        check_ends(coupling.name, "coupling", coupling.predecessor, coupling.successor,
                   "self-loop", "coupling predecessor equals successor")
        if coupling.ratio == 0.0:
            violations.append(
                Violation("zero-ratio", "coupling ratio must be nonzero",
                          coupling.name)
            )
        elif not math.isfinite(coupling.ratio):
            violations.append(
                Violation("bad-ratio", "coupling ratio must be finite", coupling.name)
            )

    for link in model.links:
        inertial = link.inertial
        if inertial is None:
            continue
        if inertial.mass < 0.0:
            violations.append(
                Violation("bad-inertia", "negative mass", link.name)
            )
        elif not math.isfinite(inertial.mass):
            violations.append(Violation("bad-inertia", "non-finite mass", link.name))
        (ixx, ixy, ixz), (iyx, iyy, iyz), (izx, izy, izz) = inertial.inertia
        if not all(map(math.isfinite, (ixx, ixy, ixz, iyx, iyy, iyz, izx, izy, izz))):
            violations.append(Violation("bad-inertia", "non-finite inertia", link.name))
        elif max(abs(ixy - iyx), abs(ixz - izx), abs(iyz - izy)) > 1e-12:
            violations.append(
                Violation("bad-inertia", "inertia matrix not symmetric", link.name)
            )

    # Tree shape: every link at most one parent joint, exactly one root,
    # no parent cycles, everything connected to the root.
    children_seen: set[str] = set()
    for joint in model.tree_joints:
        if joint.child in children_seen:
            violations.append(
                Violation("multiple-parents",
                          f"link {joint.child!r} is the child of several joints",
                          joint.name)
            )
        children_seen.add(joint.child)

    roots = [name for name in link_names if name not in children_seen]
    if model.links and not roots:
        violations.append(Violation("no-root", "every link has a parent joint"))
    elif len(roots) > 1:
        violations.append(
            Violation("multiple-roots", "multiple root links: " + ", ".join(roots))
        )

    # One breadth-first walk down each name's parent joint (the last one
    # declared), children in the order they are first declared, from every
    # name without a parent joint: the roots first, then unknown parent
    # names.  It numbers every body above its parent; a name it never
    # reaches sits on or under a cycle.
    parent_joint = {j.child: j for j in model.tree_joints}
    children: dict[str, list[TreeJoint]] = {}
    for joint in parent_joint.values():
        children.setdefault(joint.parent, []).append(joint)
    parentless = [j.parent for j in parent_joint.values() if j.parent not in parent_joint]
    names = list(dict.fromkeys(roots + parentless))
    parent = [-1] * len(names)
    joints: list[TreeJoint | None] = [None] * len(names)
    for index, name in enumerate(names):  # names grows as the walk goes
        for joint in children.get(name, ()):
            names.append(joint.child)
            parent.append(index)
            joints.append(joint)
    position = {name: index for index, name in enumerate(names)}

    cycle = [name for name in parent_joint if name not in position]
    for name in cycle:  # declaration order
        violations.append(Violation("tree-cycle", "tree joints form a cycle", name))

    if len(roots) == 1 and not cycle:
        # over every tree joint, not only the ones the walk follows
        reachable = {roots[0]}
        frontier = [roots[0]]
        child_map: dict[str, list[str]] = {}
        for joint in model.tree_joints:
            child_map.setdefault(joint.parent, []).append(joint.child)
        while frontier:
            name = frontier.pop()
            for child in child_map.get(name, ()):
                if child not in reachable:
                    reachable.add(child)
                    frontier.append(child)
        for name in link_names:
            if name not in reachable:
                violations.append(
                    Violation("disconnected", "link unreachable from the root", name)
                )

    # Couplings relate summed joint positions, which only makes sense over
    # uniform single-DoF joints of one motion type along both path subchains.
    for coupling in model.couplings:
        if {coupling.predecessor, coupling.successor} - known:
            continue  # unknown-link already reported
        ends = (position.get(coupling.predecessor, -1),
                position.get(coupling.successor, -1))
        nca, nu_p, nu_s = walk_subchains(parent, *ends)
        if nca < 0:
            continue  # a cycle or disjoint trees, reported elsewhere
        kinds = set()
        for joint in (joints[body] for body in nu_p + nu_s):
            if joint.joint_type is JointType.FIXED:
                continue
            if joint.joint_type.dof != 1:
                violations.append(
                    Violation("coupling-dof",
                              f"coupled path crosses {joint.joint_type.value} joint "
                              f"{joint.name!r} with {joint.joint_type.dof} DoF",
                              coupling.name)
                )
            kinds.add(joint.joint_type.motion_kind)
        if len(kinds) > 1:
            violations.append(
                Violation("coupling-motion-type",
                          "coupled joints must share motion type",
                          coupling.name)
            )

    return ValidationReport(
        tuple(violations), walk=(tuple(names), tuple(parent), tuple(joints))
    )


@dataclass(frozen=True)
class NumberedModel:
    """RobotModel plus the regular numbering of bodies and joints.

    body_names[i] is the link with body index i (root = 0); parent[i] is the
    body index of body i's parent (parent[0] = -1).  tree_joint_of[i] is the
    tree joint connecting body i to parent[i], so tree joint numbers coincide
    with body numbers.  Loop joints and couplings receive numbers
    N_B+1..N_J: loop joints first, then couplings, each in declaration order.
    The kinematic plan relies on that order: loop joint l is loop entry l,
    and the couplings follow.  It checks the order once, and a numbering
    that puts a coupling before a loop joint raises InvalidModelError.
    """

    model: RobotModel
    body_names: tuple[str, ...]
    parent: tuple[int, ...]
    tree_joint_of: tuple[TreeJoint | None, ...]
    loop_entries: tuple[tuple[int, object], ...]  # (number, LoopJoint | Coupling)

    @property
    def n_bodies(self) -> int:
        """Non-root body count N_B."""
        return len(self.body_names) - 1

    @property
    def n_joints(self) -> int:
        """Total joint count N_J = N_B + N_L."""
        return self.n_bodies + len(self.loop_entries)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: body for body, name in enumerate(self.body_names)}

    def body_index(self, name: str) -> int:
        return self._index[name]

    @cached_property
    def _slices(self) -> tuple[slice, ...]:
        slices = [slice(0, 0)]
        for joint in self.tree_joint_of[1:]:
            start = slices[-1].stop
            slices.append(slice(start, start + joint.joint_type.dof))
        return tuple(slices)

    def coordinate_slices(self) -> tuple[slice, ...]:
        """Per-body coordinate segment of the stacked position vector q;
        entry 0 is the empty root slice."""
        return self._slices

    @property
    def total_dof(self) -> int:
        return self._slices[-1].stop

    @cached_property
    def _kinematics(self):
        """The configuration-independent part of the kinematics, built on
        first use (constraints.KinematicPlan)."""
        from .constraints import KinematicPlan  # constraints imports this module

        return KinematicPlan(self)


def regular_numbering(model: RobotModel) -> NumberedModel:
    """Number bodies breadth-first from the root, children in declaration
    order, so every body index exceeds its parent's: the validator's tree
    walk of a valid model."""
    report = validate_model(model)
    if not report.ok:
        raise InvalidModelError("cannot number an invalid model", report.violations)
    if not model.links:
        raise InvalidModelError("cannot number an empty model")
    body_names, parent, tree_joint_of = report.walk
    entries = (*model.loop_joints, *model.couplings)  # numbered on from N_B + 1
    return NumberedModel(model, body_names, parent, tree_joint_of,
                         tuple(enumerate(entries, start=len(body_names))))


def count_degrees_of_freedom(numbered: NumberedModel) -> tuple[int, int]:
    """(n, n_c): total tree-joint DoF and total loop-constraint count.

    A loop joint of type t contributes 6 - dof(t) constraints; a coupling
    contributes exactly one.
    """
    n = numbered.total_dof
    n_c = 0
    for _, entry in numbered.loop_entries:
        if isinstance(entry, Coupling):
            n_c += 1
        else:
            n_c += entry.joint_type.constraint_count
    return n, n_c


def structurally_equal(a: RobotModel, b: RobotModel, tol: float = 1e-12) -> bool:
    """Field-level equality over the dataclass fields, read recursively:
    numbers (not bools) and transforms within tol, tuples and arrays element
    by element, all else (names, joint types, flags, payloads) with ==."""
    sequences = (tuple, list, np.ndarray)

    def equal(x, y) -> bool:
        if is_dataclass(x) and type(x) is type(y):
            return all(equal(getattr(x, f.name), getattr(y, f.name)) for f in fields(x))
        if isinstance(x, sequences) and isinstance(y, sequences):
            return len(x) == len(y) and all(map(equal, x, y))
        if isinstance(x, SpatialTransform) and isinstance(y, SpatialTransform):
            return bool(np.abs(x.rot - y.rot).max() <= tol
                        and np.abs(x.trans - y.trans).max() <= tol)
        if _is_number(x) and _is_number(y):
            return bool(abs(x - y) <= tol)
        return x == y

    return equal(a, b)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)
