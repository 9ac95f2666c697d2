import math
from dataclasses import fields, replace

import numpy as np
import pytest

import urdfplus.model
from urdfplus.errors import InvalidModelError
from urdfplus.model import (
    Coupling,
    Inertial,
    Link,
    LoopJoint,
    RobotModel,
    TreeJoint,
    count_degrees_of_freedom,
    regular_numbering,
    structurally_equal,
    validate_model,
)
from urdfplus.spatial import JointType, SpatialTransform


def chain(n, jtype=JointType.REVOLUTE):
    links = tuple(Link(name=f"l{i}") for i in range(n))
    joints = tuple(
        TreeJoint(
            name=f"j{i}",
            joint_type=jtype,
            parent=f"l{i - 1}",
            child=f"l{i}",
            axis=(0.0, 0.0, 1.0) if jtype.requires_axis else None,
        )
        for i in range(1, n)
    )
    return RobotModel(name="chain", links=links, tree_joints=joints)


def codes(report):
    return {v.code for v in report.violations}


class TestValidation:
    def test_single_link_is_valid(self):
        model = RobotModel(name="solo", links=(Link(name="only"),))
        assert validate_model(model).ok

    def test_belt_model_is_valid(self, belt):
        assert validate_model(belt.model).ok

    def test_duplicate_link_names(self):
        model = RobotModel(name="dup", links=(Link(name="a"), Link(name="a")))
        assert "duplicate-link" in codes(validate_model(model))

    def test_duplicate_joint_names_across_kinds(self):
        model = chain(3)
        model = RobotModel(
            name="dup",
            links=model.links,
            tree_joints=model.tree_joints,
            couplings=(Coupling(name="j1", predecessor="l1", successor="l2",
                                ratio=1.0),),
        )
        assert "duplicate-joint" in codes(validate_model(model))

    def test_dangling_link_reference(self):
        model = RobotModel(
            name="dangle",
            links=(Link(name="a"), Link(name="b")),
            tree_joints=(
                TreeJoint(name="j", joint_type=JointType.FIXED,
                          parent="a", child="ghost"),
            ),
        )
        assert "unknown-link" in codes(validate_model(model))

    def test_report_text(self):
        assert str(validate_model(chain(3))) == "model valid"
        model = RobotModel(name="dup", links=(Link(name="a"), Link(name="a"), Link(name="")))
        assert str(validate_model(model)).splitlines()[:2] == [
            "duplicate-link: duplicate link name (a)", "empty-name: link with empty name"]

    def test_empty_names(self):
        model = chain(3)
        model = RobotModel(
            name="blank", links=(*model.links, Link(name="")),
            tree_joints=(replace(model.tree_joints[0], name=""), model.tree_joints[1]),
            loop_joints=(LoopJoint(name="", joint_type=JointType.FIXED,
                                   predecessor="l0", successor="l2"),),
            couplings=(Coupling(name="", predecessor="l1", successor="l2", ratio=1.0),),
        )
        messages = [v.message for v in validate_model(model).violations
                    if v.code == "empty-name"]
        assert messages == ["link with empty name", "joint with empty name",
                            "loop with empty name", "coupling with empty name"]

    def test_axis_on_a_joint_that_takes_none(self):
        model = chain(2, JointType.FIXED)
        model = replace(model, tree_joints=(replace(model.tree_joints[0],
                                                    axis=(0.0, 0.0, 1.0)),))
        [violation] = validate_model(model).violations
        assert (violation.code, violation.subject) == ("axis-unused", "j1")

    def test_loop_without_a_required_axis(self):
        model = replace(chain(3), loop_joints=(
            LoopJoint(name="closure", joint_type=JointType.REVOLUTE,
                      predecessor="l0", successor="l2"),))
        [violation] = validate_model(model).violations
        assert (violation.code, violation.message, violation.subject) == (
            "axis-missing", "loop type requires an axis", "closure")

    def test_multiple_roots(self):
        model = RobotModel(name="forest", links=(Link(name="a"), Link(name="b")))
        assert "multiple-roots" in codes(validate_model(model))

    def test_tree_cycle(self):
        links = (Link(name="r"), Link(name="a"), Link(name="b"), Link(name="c"))
        joints = tuple(
            TreeJoint(name=f"j{p}{c}", joint_type=JointType.FIXED,
                      parent=p, child=c)
            for p, c in (("a", "b"), ("b", "c"), ("c", "a"))
        )
        report = validate_model(
            RobotModel(name="cyc", links=links, tree_joints=joints)
        )
        assert "tree-cycle" in codes(report)

    def test_link_with_two_parents(self):
        links = (Link(name="r"), Link(name="a"), Link(name="b"))
        joints = (
            TreeJoint(name="j1", joint_type=JointType.FIXED, parent="r", child="b"),
            TreeJoint(name="j2", joint_type=JointType.FIXED, parent="a", child="b"),
            TreeJoint(name="j3", joint_type=JointType.FIXED, parent="r", child="a"),
        )
        report = validate_model(
            RobotModel(name="dag", links=links, tree_joints=joints)
        )
        assert "multiple-parents" in codes(report)

    def test_loop_endpoints_must_differ(self):
        model = chain(2)
        model = RobotModel(
            name="self",
            links=model.links,
            tree_joints=model.tree_joints,
            loop_joints=(
                LoopJoint(name="bad", joint_type=JointType.REVOLUTE,
                          predecessor="l1", successor="l1",
                          axis=(0.0, 0.0, 1.0)),
            ),
        )
        assert "self-loop" in codes(validate_model(model))

    def test_coupling_motion_type_mismatch(self):
        links = (Link(name="base"), Link(name="arm"), Link(name="slide"))
        joints = (
            TreeJoint(name="swing", joint_type=JointType.REVOLUTE,
                      parent="base", child="arm", axis=(0.0, 0.0, 1.0)),
            TreeJoint(name="push", joint_type=JointType.PRISMATIC,
                      parent="base", child="slide", axis=(1.0, 0.0, 0.0)),
        )
        model = RobotModel(
            name="mixed",
            links=links,
            tree_joints=joints,
            couplings=(Coupling(name="pair", predecessor="arm",
                                successor="slide", ratio=1.0),),
        )
        report = validate_model(model)
        assert "coupling-motion-type" in codes(report)
        assert any(
            "coupled joints must share motion type" in v.message
            for v in report.violations
        )

    def test_coupling_over_multi_dof_joint(self):
        links = (Link(name="base"), Link(name="a"), Link(name="b"))
        joints = (
            TreeJoint(name="u", joint_type=JointType.UNIVERSAL,
                      parent="base", child="a", axis=(1.0, 0.0, 0.0)),
            TreeJoint(name="r", joint_type=JointType.REVOLUTE,
                      parent="base", child="b", axis=(1.0, 0.0, 0.0)),
        )
        model = RobotModel(
            name="multi",
            links=links,
            tree_joints=joints,
            couplings=(Coupling(name="pair", predecessor="a", successor="b",
                                ratio=2.0),),
        )
        assert "coupling-dof" in codes(validate_model(model))

    def test_coupling_ignores_joints_above_the_ancestor(self):
        # multi-DoF base joint must not trip the check when it sits above
        # the coupling's nearest common ancestor
        links = (Link(name="world"), Link(name="base"), Link(name="a"),
                 Link(name="b"))
        joints = (
            TreeJoint(name="free", joint_type=JointType.FLOATING,
                      parent="world", child="base"),
            TreeJoint(name="ja", joint_type=JointType.REVOLUTE,
                      parent="base", child="a", axis=(0.0, 0.0, 1.0)),
            TreeJoint(name="jb", joint_type=JointType.REVOLUTE,
                      parent="base", child="b", axis=(0.0, 0.0, 1.0)),
        )
        model = RobotModel(
            name="floatbase",
            links=links,
            tree_joints=joints,
            couplings=(Coupling(name="pair", predecessor="a", successor="b",
                                ratio=1.5),),
        )
        assert validate_model(model).ok

    def test_zero_ratio(self):
        model = chain(3)
        model = RobotModel(
            name="zr",
            links=model.links,
            tree_joints=model.tree_joints,
            couplings=(Coupling(name="c", predecessor="l1", successor="l2",
                                ratio=0.0),),
        )
        assert "zero-ratio" in codes(validate_model(model))

    def test_bad_inertia(self):
        bad = Inertial(mass=-1.0, inertia=((1, 0.5, 0), (0, 1, 0), (0, 0, 1)))
        model = RobotModel(name="inertia", links=(Link(name="a", inertial=bad),))
        assert [str(v) for v in validate_model(model).violations] == [
            "bad-inertia: negative mass (a)",
            "bad-inertia: inertia matrix not symmetric (a)",
        ]

    @pytest.mark.parametrize("mass", [math.nan, math.inf])
    def test_non_finite_mass(self, mass):
        model = RobotModel(name="m", links=(Link(name="a", inertial=Inertial(mass=mass)),))
        assert [str(v) for v in validate_model(model).violations] == [
            "bad-inertia: non-finite mass (a)"
        ]

    @pytest.mark.parametrize("row, col, value, message", [
        (0, 0, math.nan, "non-finite inertia"),
        (0, 1, math.nan, "non-finite inertia"),
        (2, 1, -math.inf, "non-finite inertia"),
        (1, 0, 1e-9, "inertia matrix not symmetric"),
        (0, 2, 1e-9, "inertia matrix not symmetric"),
        (2, 1, 1e-9, "inertia matrix not symmetric"),
        (1, 2, 1e-13, None),
    ])
    def test_inertia_entries(self, row, col, value, message):
        inertia = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        inertia[row][col] = value
        inertial = Inertial(mass=1.0, inertia=tuple(map(tuple, inertia)))
        model = RobotModel(name="i", links=(Link(name="a", inertial=inertial),))
        assert [str(v) for v in validate_model(model).violations] == (
            [f"bad-inertia: {message} (a)"] if message else [])

    @pytest.mark.parametrize("ratio", [math.nan, -math.inf])
    def test_non_finite_ratio(self, belt, ratio):
        coupling = replace(belt.model.couplings[0], ratio=ratio)
        model = replace(belt.model, couplings=(coupling,))
        assert [str(v) for v in validate_model(model).violations] == [
            "bad-ratio: coupling ratio must be finite (belt_drive)"
        ]
        with pytest.raises(InvalidModelError):
            regular_numbering(model)

    def test_axis_requirements(self):
        links = (Link(name="a"), Link(name="b"))
        no_axis = TreeJoint(name="j", joint_type=JointType.REVOLUTE,
                            parent="a", child="b")
        report = validate_model(
            RobotModel(name="ax", links=links, tree_joints=(no_axis,))
        )
        assert "axis-missing" in codes(report)

    def test_universal_axes_must_be_orthogonal(self):
        model = chain(3, JointType.UNIVERSAL)
        skew = (0.6, 0.8, 0.0)  # axis is (0, 0, 1): orthogonal, accepted
        oblique = (0.0, 0.6, 0.8)
        joints = (
            replace(model.tree_joints[0], axis2=skew),
            replace(model.tree_joints[1], axis2=oblique),
        )
        loop = LoopJoint(name="close", joint_type=JointType.UNIVERSAL,
                         predecessor="l0", successor="l2",
                         axis=(0.0, 0.0, 1.0), axis2=oblique)
        report = validate_model(
            replace(model, tree_joints=joints, loop_joints=(loop,))
        )
        flagged = [v.subject for v in report.violations
                   if v.code == "axis-not-orthogonal"]
        assert flagged == ["j2", "close"]


class TestNumbering:
    def test_wrist_breadth_first_order(self, wrist):
        assert wrist.numbered.body_names == (
            "Base", "Link1", "Link2", "Link3", "Output"
        )
        assert wrist.numbered.parent == (-1, 0, 0, 0, 1)
        loops = {num: entry.name for num, entry in wrist.numbered.loop_entries}
        assert loops == {5: "Loop1", 6: "Loop2"}

    def test_belt_breadth_first_order(self, belt):
        assert belt.numbered.body_names == ("thigh", "shank", "motor", "foot")
        assert belt.numbered.parent == (-1, 0, 0, 1)
        assert belt.numbered.loop_entries[0][0] == 4

    def test_simple_chain(self):
        numbered = regular_numbering(chain(3))
        assert numbered.body_names == ("l0", "l1", "l2")
        assert numbered.parent == (-1, 0, 1)

    def test_parent_always_below_child(self):
        rng = np.random.default_rng(7)
        from helpers import random_tree_model

        for _ in range(50):
            numbered = regular_numbering(random_tree_model(rng))
            for body in range(1, numbered.n_bodies + 1):
                assert numbered.parent[body] < body
                joint = numbered.tree_joint_of[body]
                assert numbered.body_index(joint.child) == body
                assert numbered.body_index(joint.parent) == numbered.parent[body]

    def test_numbering_is_deterministic(self, models_dir):
        from urdfplus.xmlio import parse_file

        a = regular_numbering(parse_file(models_dir / "wrist.urdf").model)
        b = regular_numbering(parse_file(models_dir / "wrist.urdf").model)
        assert a.body_names == b.body_names
        assert a.parent == b.parent

    def test_invalid_model_rejected(self):
        model = RobotModel(name="forest", links=(Link(name="a"), Link(name="b")))
        with pytest.raises(InvalidModelError):
            regular_numbering(model)

    def test_unknown_body_name_raises_key_error(self, belt):
        with pytest.raises(KeyError):
            belt.numbered.body_index("ghost")

    def test_layout_is_derived_once(self, wrist):
        numbered = wrist.numbered
        slices = numbered.coordinate_slices()
        assert numbered.coordinate_slices() is slices
        assert [(s.start, s.stop) for s in slices] == [
            (0, 0), (0, 2), (2, 4), (4, 6), (6, 8)
        ]
        assert numbered.total_dof == 8

    def test_numbering_is_the_validation_walk(self, belt):
        names, parent, joints = validate_model(belt.model).walk
        assert names == belt.numbered.body_names
        assert parent == belt.numbered.parent
        assert joints == belt.numbered.tree_joint_of


    def test_validate_then_number_walks_once(self, monkeypatch):
        walks = []
        validate = urdfplus.model._validate

        def counted(model):
            walks.append(model)
            return validate(model)

        monkeypatch.setattr(urdfplus.model, "_validate", counted)
        model = chain(4)
        report = validate_model(model)
        numbered = regular_numbering(model)
        assert validate_model(model) is report
        assert len(walks) == 1
        assert numbered.body_names == report.walk[0]
        # a changed copy is a model of its own, validated afresh
        assert not validate_model(replace(model, links=model.links[:1])).ok
        assert len(walks) == 2


class TestDofCounting:
    def test_wrist_counts(self, wrist):
        n, n_c = count_degrees_of_freedom(wrist.numbered)
        assert n == 8  # four universal joints
        assert n_c == 8  # two universal loop joints, 4 constraints each

    def test_belt_counts(self, belt):
        n, n_c = count_degrees_of_freedom(belt.numbered)
        assert (n, n_c) == (3, 1)  # coupling contributes exactly one

    def test_fixed_only_model(self):
        numbered = regular_numbering(chain(4, JointType.FIXED))
        assert count_degrees_of_freedom(numbered) == (0, 0)

    def test_loop_free_has_no_constraints(self):
        numbered = regular_numbering(chain(5))
        n, n_c = count_degrees_of_freedom(numbered)
        assert n == 4 and n_c == 0

    def test_joint_count_identities(self, wrist):
        numbered = wrist.numbered
        assert numbered.n_bodies == len(numbered.model.links) - 1
        assert numbered.n_joints == numbered.n_bodies + len(numbered.loop_entries)


def _full_model(mass=2.0, axis=(1.0, 0.0, 0.0)) -> RobotModel:
    """A model with every field of every model class set."""
    inertia = ((1.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 3.0))
    origin = SpatialTransform.from_rpy_xyz((0.1, 0.2, 0.3), (1.0, 2.0, 3.0))
    return RobotModel(
        name="full",
        links=(Link("base", Inertial(mass, (0.1, 0.2, 0.3), inertia), ("<visual/>",)),
               Link("arm")),
        tree_joints=(TreeJoint("j", JointType.UNIVERSAL, "base", "arm", origin, axis,
                               (0.0, 1.0, 0.0), None, ("<limit effort='1'/>",)),),
        loop_joints=(LoopJoint("l", JointType.REVOLUTE, "arm", "base", origin, origin,
                               (0.0, 0.0, 1.0), None),),
        couplings=(Coupling("c", "arm", "base", 0.5),),
        payload=("<material name='m'/>",),
    )


def _nudged(x: SpatialTransform, entry) -> SpatialTransform:
    """x with one rotation (2 indices) or translation (1 index) entry moved
    by 1e-9, beyond the default tolerance."""
    rot, trans = x.rot.copy(), x.trans.copy()
    (rot if len(entry) == 2 else trans)[entry] += 1e-9
    return SpatialTransform(rot, trans)


_FULL = _full_model()
# one different value for every field of every model class
_ONE_FIELD_CHANGES = {
    RobotModel: {
        "name": "other",
        "links": _FULL.links[:1],
        "tree_joints": (),
        "loop_joints": (),
        "couplings": (),
        "payload": ("<material name='n'/>",),
    },
    Link: {"name": "base2", "inertial": None, "payload": ("<visual />",)},
    Inertial: {
        "mass": 2.0 + 1e-9,
        "center_of_mass": (0.1, 0.2, 0.3 + 1e-9),
        "inertia": ((1.0, 0.0, 0.0), (0.0, 2.0, 1e-9), (0.0, 0.0, 3.0)),
    },
    TreeJoint: {
        "name": "j2",
        "joint_type": JointType.FLOATING,
        "parent": "arm",
        "child": "base",
        "origin": _nudged(_FULL.tree_joints[0].origin, (0, 1)),
        "axis": (1.0, 1e-9, 0.0),
        "axis2": None,
        "independent": False,
        "payload": ("<limit effort='2'/>",),
    },
    LoopJoint: {
        "name": "l2",
        "joint_type": JointType.CONTINUOUS,
        "predecessor": "base",
        "successor": "arm",
        "predecessor_origin": _nudged(_FULL.loop_joints[0].predecessor_origin, (2,)),
        "successor_origin": _nudged(_FULL.loop_joints[0].successor_origin, (2, 2)),
        "axis": None,
        "axis2": (1.0, 0.0, 0.0),
    },
    Coupling: {"name": "c2", "predecessor": "base", "successor": "arm",
               "ratio": 0.5 - 1e-9},
}


def _with_change(model: RobotModel, cls, name: str, value) -> RobotModel:
    """model with field `name` of its first object of class cls set to value."""
    if cls is RobotModel:
        return replace(model, **{name: value})
    if cls in (Link, Inertial):
        first, *rest = model.links
        if cls is Link:
            first = replace(first, **{name: value})
        else:
            first = replace(first, inertial=replace(first.inertial, **{name: value}))
        return replace(model, links=(first, *rest))
    attr = {TreeJoint: "tree_joints", LoopJoint: "loop_joints", Coupling: "couplings"}[cls]
    first, *rest = getattr(model, attr)
    return replace(model, **{attr: (replace(first, **{name: value}), *rest)})


class TestStructurallyEqual:
    def test_an_equal_copy(self):
        assert structurally_equal(_FULL, _full_model())
        assert structurally_equal(_FULL, _full_model(), tol=0.0)

    @pytest.mark.parametrize("cls", list(_ONE_FIELD_CHANGES), ids=lambda c: c.__name__)
    def test_each_field_is_compared(self, cls):
        changes = _ONE_FIELD_CHANGES[cls]
        assert set(changes) == {f.name for f in fields(cls)}
        for name, value in changes.items():
            other = _with_change(_FULL, cls, name, value)
            assert other != _FULL
            assert not structurally_equal(_FULL, other), (cls.__name__, name)
            assert not structurally_equal(other, _FULL), (cls.__name__, name)

    def test_bools_are_not_numbers(self):
        true, false = (_with_change(_FULL, TreeJoint, "independent", flag)
                       for flag in (True, False))
        assert not structurally_equal(true, false, tol=1.0)

    def test_numbers_within_tolerance(self):
        near = _full_model(mass=2.0 + 1e-13)
        assert structurally_equal(_FULL, near)
        assert not structurally_equal(_FULL, near, tol=0.0)

    def test_nan_mass_is_never_equal(self):
        nan = _full_model(mass=float("nan"))
        assert not structurally_equal(nan, nan)
        assert not structurally_equal(nan, _full_model(), tol=math.inf)

    def test_int_and_array_axes_match_the_float_axis(self):
        assert structurally_equal(_full_model(axis=(1, 0, 0)), _FULL)
        assert structurally_equal(_full_model(axis=(1, 0, 0)), _FULL, tol=0.0)
        assert structurally_equal(_full_model(axis=np.array([1.0, 0.0, 0.0])), _FULL)
