"""Differential test of the validator's tree walk.

The oracle below is the earlier implementation, copied verbatim: the
tree-shape and coupling section of `validate_model`, which walked the tree
by name (a memoised cycle walk, a reachability DFS, and root paths with a
shared set), and `regular_numbering`'s own breadth-first search.  Random
models with duplicate names, unknown references, several parents or roots,
cycles, couplings over fixed or multi-DoF joints and zero ratios must get
the same violations in the same order, and valid ones the same numbering.
"""

from __future__ import annotations

import numpy as np

from urdfplus.errors import InvalidModelError
from urdfplus.model import (
    Coupling,
    Link,
    LoopJoint,
    NumberedModel,
    RobotModel,
    TreeJoint,
    Violation,
    regular_numbering,
    validate_model,
)
from urdfplus.spatial import JointType

SECTION_CODES = {
    "multiple-parents", "no-root", "multiple-roots", "tree-cycle",
    "disconnected", "coupling-dof", "coupling-motion-type",
}


def oracle_tree_section(model: RobotModel) -> list[Violation]:
    violations: list[Violation] = []
    link_names = model.link_names()
    known = set(link_names)

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

    parent_joint = {j.child: j for j in model.tree_joints}
    tops: dict[str, str | None] = {}

    def top(name: str) -> str | None:
        """The link at the top of `name`'s parent chain, None when the chain
        runs into a cycle; every walk stops at a link already resolved."""
        walked: dict[str, None] = {}
        while name in parent_joint and name not in tops and name not in walked:
            walked[name] = None
            name = parent_joint[name].parent
        found = None if name in walked else tops.get(name, name)
        tops.update(dict.fromkeys(walked, found))
        return found

    def root_path(name: str) -> list[str]:
        path = [name]
        while name in parent_joint:
            name = parent_joint[name].parent
            path.append(name)
        return path

    for start in parent_joint:  # declaration order
        if top(start) is None:
            violations.append(
                Violation("tree-cycle", "tree joints form a cycle", start)
            )

    if len(roots) == 1 and not any(v.code == "tree-cycle" for v in violations):
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
        pred_top = top(coupling.predecessor)
        if pred_top is None or pred_top != top(coupling.successor):
            continue  # a cycle or disjoint trees, reported elsewhere
        # the two root paths share exactly the links from the nearest common
        # ancestor up; the tree joints above the other links form the two
        # path subchains
        pred_path = root_path(coupling.predecessor)
        succ_path = root_path(coupling.successor)
        shared = set(pred_path) & set(succ_path)
        joints = [parent_joint[name] for name in pred_path + succ_path
                  if name not in shared]
        kinds = set()
        for joint in joints:
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

    return violations


def oracle_regular_numbering(model: RobotModel) -> NumberedModel:
    """Number bodies breadth-first from the root, children in declaration
    order, so every body index exceeds its parent's."""
    report = validate_model(model)
    if not report.ok:
        raise InvalidModelError("cannot number an invalid model", report.violations)
    if not model.links:
        raise InvalidModelError("cannot number an empty model")

    children: dict[str, list[TreeJoint]] = {}
    for joint in model.tree_joints:
        children.setdefault(joint.parent, []).append(joint)
    child_names = {j.child for j in model.tree_joints}
    root = next(name for name in model.link_names() if name not in child_names)

    body_names: list[str] = [root]
    parent: list[int] = [-1]
    tree_joint_of: list[TreeJoint | None] = [None]
    queue = [root]
    while queue:
        name = queue.pop(0)
        parent_index = body_names.index(name)
        for joint in children.get(name, ()):
            body_names.append(joint.child)
            parent.append(parent_index)
            tree_joint_of.append(joint)
            queue.append(joint.child)

    n_b = len(body_names) - 1
    loop_entries: list[tuple[int, object]] = []
    number = n_b + 1
    for loop in model.loop_joints:
        loop_entries.append((number, loop))
        number += 1
    for coupling in model.couplings:
        loop_entries.append((number, coupling))
        number += 1

    return NumberedModel(
        model=model,
        body_names=tuple(body_names),
        parent=tuple(parent),
        tree_joint_of=tuple(tree_joint_of),
        loop_entries=tuple(loop_entries),
    )


# -- random models ---------------------------------------------------------

NAMES = ("a", "b", "c", "d", "e", "f", "g")
TYPES = tuple(JointType)


def _pick(rng, items):
    return items[int(rng.integers(0, len(items)))]


def _tree_joint(rng, name, parent, child) -> TreeJoint:
    jtype = _pick(rng, TYPES)
    axis = (0.0, 0.0, 1.0) if jtype.requires_axis else None
    axis2 = (1.0, 0.0, 0.0) if jtype is JointType.UNIVERSAL else None
    return TreeJoint(name=name, joint_type=jtype, parent=parent, child=child,
                     axis=axis, axis2=axis2)


def random_model(rng: np.random.Generator) -> RobotModel:
    """A random tree in random declaration order, then each kind of damage
    with a small probability; most models stay valid."""
    n = int(rng.integers(1, len(NAMES) + 1))
    names = [str(name) for name in rng.permutation(NAMES[:n])]
    links = [Link(name=name) for name in names]
    if rng.random() < 0.05:
        links.append(Link(name=_pick(rng, names)))  # duplicate link
    refs = names + ["ghost"]  # "ghost" is never a link
    joints = [
        _tree_joint(rng, f"j{i}", names[int(rng.integers(0, i))], names[i])
        for i in range(1, n)
    ]
    if joints and rng.random() < 0.1:  # re-parent: cycles, unknown parents
        k = int(rng.integers(0, len(joints)))
        joints[k] = _tree_joint(rng, joints[k].name, _pick(rng, refs), joints[k].child)
    if rng.random() < 0.1:  # extra joint: several parents, self joint, ghost child
        joints.append(_tree_joint(rng, f"x{len(joints)}", _pick(rng, refs),
                                  _pick(rng, refs)))
    if n > 1 and rng.random() < 0.05:  # a parent for the root
        joints.append(_tree_joint(rng, "up", _pick(rng, names[1:]), names[0]))
    if joints and rng.random() < 0.05:  # drop a joint: several roots
        joints.pop(int(rng.integers(0, len(joints))))
    if joints and rng.random() < 0.05:  # duplicate joint name
        joints.append(_tree_joint(rng, joints[0].name, _pick(rng, refs),
                                  _pick(rng, refs)))
    order = rng.permutation(len(joints))
    joints = [joints[k] for k in order]

    def endpoint():
        return _pick(rng, refs) if rng.random() < 0.05 else _pick(rng, names)

    loops = [
        LoopJoint(name=f"loop{k}", joint_type=JointType.REVOLUTE,
                  predecessor=endpoint(), successor=endpoint(),
                  axis=(0.0, 0.0, 1.0))
        for k in range(int(rng.integers(0, 3)))
    ]
    couplings = [
        Coupling(name=f"cpl{k}", predecessor=endpoint(), successor=endpoint(),
                 ratio=0.0 if rng.random() < 0.05 else float(rng.uniform(-3, 3)))
        for k in range(int(rng.integers(0, 4)))
    ]
    return RobotModel(name="random", links=tuple(links), tree_joints=tuple(joints),
                      loop_joints=tuple(loops), couplings=tuple(couplings))


def test_walk_matches_the_earlier_walks_on_random_models():
    rng = np.random.default_rng(20241129)
    seen_codes: set[str] = set()
    n_valid = 0
    for _ in range(3000):
        model = random_model(rng)
        report = validate_model(model)
        seen_codes.update(v.code for v in report.violations)
        section = [v for v in report.violations if v.code in SECTION_CODES]
        assert section == oracle_tree_section(model), model
        if not report.ok:
            continue
        n_valid += 1
        numbered = regular_numbering(model)
        expected = oracle_regular_numbering(model)
        assert numbered.body_names == expected.body_names
        assert numbered.parent == expected.parent
        assert numbered.tree_joint_of == expected.tree_joint_of
        assert numbered.loop_entries == expected.loop_entries
    assert n_valid >= 500
    assert seen_codes >= SECTION_CODES | {
        "duplicate-link", "duplicate-joint", "unknown-link", "self-joint",
        "self-loop", "zero-ratio",
    }
