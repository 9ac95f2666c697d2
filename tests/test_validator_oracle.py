"""Differential test of the validator's name, end, axis, ratio and inertia
checks.

The oracle below is the earlier implementation, copied verbatim: every
section of `validate_model` before the tree shape, from the name checks
through the inertia checks, which stated the end rule (both ends name a
link, and not the same one) once per kind of joint and the name rule once
per namespace.  On `test_tree_walk.random_model`'s 3,000 models, and on
each of them damaged with what that generator never draws, the validator
must report the same violations outside `test_tree_walk.SECTION_CODES`:
the same codes, messages and subjects, in the same order.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from test_tree_walk import SECTION_CODES, random_model
from urdfplus.model import (
    Coupling,
    Inertial,
    Link,
    LoopJoint,
    RobotModel,
    TreeJoint,
    Violation,
    validate_model,
)
from urdfplus.spatial import ORTHOGONAL_AXES_TOL, JointType

# -- oracle ----------------------------------------------------------------------


def oracle_local_checks(model: RobotModel) -> list[Violation]:
    violations: list[Violation] = []
    link_names = model.link_names()
    known = set(link_names)

    seen: set[str] = set()
    for name in link_names:
        if not name:
            violations.append(Violation("empty-name", "link with empty name"))
        elif name in seen:
            violations.append(Violation("duplicate-link", "duplicate link name", name))
        seen.add(name)

    joint_names: set[str] = set()
    all_joints = (
        [(j.name, "joint") for j in model.tree_joints]
        + [(j.name, "loop") for j in model.loop_joints]
        + [(c.name, "coupling") for c in model.couplings]
    )
    for name, kind in all_joints:
        if not name:
            violations.append(Violation("empty-name", f"{kind} with empty name"))
        elif name in joint_names:
            violations.append(
                Violation("duplicate-joint", "duplicate joint name", name)
            )
        joint_names.add(name)

    for joint in model.tree_joints:
        for ref in (joint.parent, joint.child):
            if ref not in known:
                violations.append(
                    Violation("unknown-link", f"joint references unknown link {ref!r}",
                              joint.name)
                )
        if joint.parent == joint.child:
            violations.append(
                Violation("self-joint", "joint parent equals child", joint.name)
            )
        if joint.joint_type.requires_axis and joint.axis is None:
            violations.append(
                Violation("axis-missing", "joint type requires an axis", joint.name)
            )
        if not joint.joint_type.requires_axis and joint.axis is not None:
            violations.append(
                Violation("axis-unused", "joint type takes no axis", joint.name)
            )

    for loop in model.loop_joints:
        for ref in (loop.predecessor, loop.successor):
            if ref not in known:
                violations.append(
                    Violation("unknown-link", f"loop references unknown link {ref!r}",
                              loop.name)
                )
        if loop.predecessor == loop.successor:
            violations.append(
                Violation("self-loop", "loop predecessor equals successor", loop.name)
            )
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
        for ref in (coupling.predecessor, coupling.successor):
            if ref not in known:
                violations.append(
                    Violation("unknown-link",
                              f"coupling references unknown link {ref!r}",
                              coupling.name)
                )
        if coupling.predecessor == coupling.successor:
            violations.append(
                Violation("self-loop", "coupling predecessor equals successor",
                          coupling.name)
            )
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

    return violations


# -- end of the oracle -------------------------------------------------------------

LOCAL_CODES = {
    "empty-name", "duplicate-link", "duplicate-joint", "unknown-link", "self-joint",
    "axis-missing", "axis-unused", "axis-not-orthogonal", "self-loop", "zero-ratio",
    "bad-ratio", "bad-inertia",
}
BAD_INERTIALS = (
    Inertial(-1.0),
    Inertial(math.inf),
    Inertial(1.0, inertia=((1.0, 0.0, 0.0), (0.0, math.nan, 0.0), (0.0, 0.0, 1.0))),
    Inertial(1.0, inertia=((1.0, 0.5, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))),
    Inertial(-math.inf, inertia=((math.inf, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))),
)
TILTED = (0.6, 0.0, 0.8)  # not orthogonal to (0, 0, 1)


def _some(rng, items, p):
    """Each index of `items` with probability p."""
    return [k for k in range(len(items)) if rng.random() < p]


def damaged(rng: np.random.Generator, model: RobotModel) -> RobotModel:
    """`model` with what `random_model` never draws: empty names, a missing
    or unused axis on joints and loops, non-orthogonal universal axes, self
    loops and self couplings, inf and NaN ratios, unknown ends and bad
    inertials."""
    links, joints = list(model.links), list(model.tree_joints)
    loops, couplings = list(model.loop_joints), list(model.couplings)
    for records in (links, joints, loops, couplings):
        for k in _some(rng, records, 0.05):
            records[k] = replace(records[k], name="")
    for k in _some(rng, links, 0.1):
        bad = BAD_INERTIALS[int(rng.integers(len(BAD_INERTIALS)))]
        links[k] = replace(links[k], inertial=bad)
    for records in (joints, loops):
        for k in _some(rng, records, 0.1):
            record = records[k]
            if rng.random() < 0.5:
                records[k] = replace(record, axis=None if record.axis else (1.0, 0.0, 0.0))
            else:
                axis2 = TILTED if rng.random() < 0.7 else (1.0, 0.0, 0.0)
                records[k] = replace(record, joint_type=JointType.UNIVERSAL,
                                     axis=(0.0, 0.0, 1.0), axis2=axis2)
    for k in _some(rng, loops, 0.1):
        loops[k] = replace(loops[k], successor=loops[k].predecessor)
    for k in _some(rng, couplings, 0.1):
        couplings[k] = replace(couplings[k], successor=couplings[k].predecessor)
    for k in _some(rng, couplings, 0.1):
        couplings[k] = replace(couplings[k], ratio=(math.inf, -math.inf, math.nan)[k % 3])
    for records, ends in ((joints, ("parent", "child")), (loops, ("predecessor", "successor")),
                          (couplings, ("predecessor", "successor"))):
        for k in _some(rng, records, 0.05):
            records[k] = replace(records[k], **{ends[int(rng.integers(2))]: "nowhere"})
    return replace(model, links=tuple(links), tree_joints=tuple(joints),
                   loop_joints=tuple(loops), couplings=tuple(couplings))


def local_violations(model: RobotModel) -> list[Violation]:
    return [v for v in validate_model(model).violations if v.code not in SECTION_CODES]


def test_local_checks_match_the_earlier_validator():
    rng = np.random.default_rng(20261019)
    seen: dict[str, int] = dict.fromkeys(LOCAL_CODES, 0)
    for _ in range(3000):
        model = random_model(rng)
        for candidate in (model, damaged(rng, model)):
            want = oracle_local_checks(candidate)
            assert local_violations(candidate) == want, candidate
            for violation in want:
                seen[violation.code] += 1
    assert all(seen.values()), seen


def test_each_record_has_its_end_checks_first():
    """Per record the end checks come first, then the kind's own checks;
    the sections keep their order: names, tree joints, loops, universal
    axes, couplings, inertials."""
    universal = dict(joint_type=JointType.UNIVERSAL, axis=(0.0, 0.0, 1.0), axis2=TILTED)
    model = RobotModel(
        name="r",
        links=(Link(""), Link("a", Inertial(-1.0)), Link("a")),
        tree_joints=(TreeJoint("j", JointType.FIXED, "x", "x", axis=(1.0, 0.0, 0.0)),
                     TreeJoint("u", parent="a", child="y", **universal)),
        loop_joints=(LoopJoint("j", JointType.REVOLUTE, "a", "a"),
                     LoopJoint("v", predecessor="z", successor="a", **universal)),
        couplings=(Coupling("", "a", "a", math.nan),),
    )
    assert [(v.code, v.message, v.subject) for v in local_violations(model)] == [
        ("empty-name", "link with empty name", ""),
        ("duplicate-link", "duplicate link name", "a"),
        ("duplicate-joint", "duplicate joint name", "j"),
        ("empty-name", "coupling with empty name", ""),
        ("unknown-link", "joint references unknown link 'x'", "j"),
        ("unknown-link", "joint references unknown link 'x'", "j"),
        ("self-joint", "joint parent equals child", "j"),
        ("axis-unused", "joint type takes no axis", "j"),
        ("unknown-link", "joint references unknown link 'y'", "u"),
        ("self-loop", "loop predecessor equals successor", "j"),
        ("axis-missing", "loop type requires an axis", "j"),
        ("unknown-link", "loop references unknown link 'z'", "v"),
        ("axis-not-orthogonal", "universal joint axes must be orthogonal", "u"),
        ("axis-not-orthogonal", "universal joint axes must be orthogonal", "v"),
        ("self-loop", "coupling predecessor equals successor", ""),
        ("bad-ratio", "coupling ratio must be finite", ""),
        ("bad-inertia", "negative mass", "a"),
    ]
    assert local_violations(model) == oracle_local_checks(model)
