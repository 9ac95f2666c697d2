"""The contract of the slotted frozen records: each class's own __init__
stores its fields through the slots' setters, and everything a frozen
dataclass promises still holds, whether the record is built with keywords
or positionally."""

from __future__ import annotations

import copy
import inspect
import pickle
from dataclasses import MISSING, FrozenInstanceError, fields, is_dataclass, replace

import numpy as np
import pytest

import urdfplus.constraints
import urdfplus.graphs
import urdfplus.model
import urdfplus.xmlio
from urdfplus.constraints import (
    ConstraintReport,
    ExplicitJacobian,
    LoopConstraintInfo,
    LoopJacobian,
    RedundantAggregate,
    _LoopStep,
)
from urdfplus.graphs import Aggregate, LoopEdge
from urdfplus.model import Coupling, Inertial, Link, LoopJoint, TreeJoint, Violation
from urdfplus.spatial import JointType, SpatialTransform
from urdfplus.xmlio import ParseDiagnostic

ORIGIN = SpatialTransform(trans=(0.1, 0.2, 0.3))
MATRIX = np.arange(6.0).reshape(2, 3)
JACOBIAN = LoopJacobian(5, "c", "coupling", (1, 2), ((0, 1), (1, 2)), MATRIX)
INFO = LoopConstraintInfo(5, "c", "coupling", 1, 2, 1, (1, 2), 0, 0.0)

# every converted class, with a value for each field in declaration order
SAMPLES = {
    Inertial: dict(mass=1.5, center_of_mass=(0.0, 0.1, 0.0),
                   inertia=((1.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 3.0))),
    Link: dict(name="a", inertial=Inertial(1.0), payload=("<visual/>",)),
    TreeJoint: dict(name="j", joint_type=JointType.REVOLUTE, parent="a", child="b",
                    origin=ORIGIN, axis=(0.0, 0.0, 1.0), axis2=None, independent=True,
                    payload=("<limit/>",)),
    LoopJoint: dict(name="l", joint_type=JointType.UNIVERSAL, predecessor="a",
                    successor="b", predecessor_origin=ORIGIN,
                    successor_origin=SpatialTransform.identity(), axis=(1.0, 0.0, 0.0),
                    axis2=(0.0, 1.0, 0.0)),
    Coupling: dict(name="c", predecessor="a", successor="b", ratio=-2.0),
    Violation: dict(code="self-loop", message="loop predecessor equals successor",
                    subject="l"),
    LoopEdge: dict(number=5, name="l", kind="loop", predecessor=1, successor=3),
    Aggregate: dict(index=1, bodies=(1, 2), loop_numbers=(5,), parent=0),
    LoopJacobian: dict(number=5, name="c", kind="coupling", joint_numbers=(1, 2),
                       joint_columns=((0, 1), (1, 2)), matrix=MATRIX),
    LoopConstraintInfo: dict(number=5, name="c", kind="coupling", rows=1, columns=2,
                             rank=1, joint_numbers=(1, 2), aggregate=0,
                             residual_norm=0.0),
    RedundantAggregate: dict(index=1, sum_rank=4, rank=3),
    ExplicitJacobian: dict(matrix=MATRIX.T, row_coordinates=(0, 1, 2),
                           independent=(0, 1)),
    ConstraintReport: dict(n=3, n_c=1, n_i=2, mode="independent", loops=(INFO,),
                           declared_joints=("j1",), declared_dof=2, passed=True,
                           max_residual=0.0, redundant=(RedundantAggregate(1, 4, 3),),
                           jacobians=(JACOBIAN,)),
    ParseDiagnostic: dict(severity="warning", line=3, column=5,
                          message="robot has no links", path="robot"),
    _LoopStep: dict(number=5, name="l", joint_numbers=(1,), joint_columns=((0, 1),),
                    psi=MATRIX.T, predecessor=0, successor=1, predecessor_origin=ORIGIN,
                    successor_origin=ORIGIN, moving=((1, 0, 1, -1.0),), width=1),
}
CLASSES = list(SAMPLES)


def state(record) -> tuple:
    """Every field's repr, including fields left out of ==, hash and repr,
    and arrays, which == compares by identity here."""
    return tuple(repr(getattr(record, f.name)) for f in fields(record))


def hash_or_unhashable(record):
    try:
        return hash(record)
    except TypeError:  # a field holds an array
        return "unhashable"


def test_every_slotted_record_has_a_sample():
    records = {cls for module in (urdfplus.model, urdfplus.graphs,
                                  urdfplus.constraints, urdfplus.xmlio)
               for cls in vars(module).values()
               if isinstance(cls, type) and is_dataclass(cls) and "__slots__" in vars(cls)}
    assert records == set(CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
class TestRecordContract:
    def test_fields_in_declaration_order(self, cls):
        assert [f.name for f in fields(cls)] == list(SAMPLES[cls])
        assert list(inspect.signature(cls).parameters) == list(SAMPLES[cls])

    def test_keyword_and_positional_construction_agree(self, cls):
        by_keyword, by_position = cls(**SAMPLES[cls]), cls(*SAMPLES[cls].values())
        assert by_keyword == by_position
        assert hash_or_unhashable(by_keyword) == hash_or_unhashable(by_position)
        assert repr(by_keyword) == repr(by_position)
        assert state(by_keyword) == state(by_position)
        assert repr(by_keyword).startswith(f"{cls.__name__}(")

    def test_pickle_and_deepcopy_round_trip(self, cls):
        record = cls(**SAMPLES[cls])
        for again in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record),
                      copy.copy(record)):
            assert type(again) is cls
            assert state(again) == state(record)
            assert repr(again) == repr(record)

    def test_replace(self, cls):
        record = cls(**SAMPLES[cls])
        first = fields(cls)[0].name
        changed = replace(record, **{first: "other"})
        assert getattr(changed, first) == "other"
        assert state(changed)[1:] == state(record)[1:]
        assert getattr(record, first) is SAMPLES[cls][first]

    def test_assignment_raises(self, cls):
        record = cls(**SAMPLES[cls])
        first = fields(cls)[0].name
        with pytest.raises(FrozenInstanceError):
            setattr(record, first, "other")
        with pytest.raises(FrozenInstanceError):
            delattr(record, first)
        with pytest.raises(FrozenInstanceError):
            record.extra = 1
        with pytest.raises(FrozenInstanceError):
            del record.extra
        assert getattr(record, first) is SAMPLES[cls][first]

    def test_no_instance_dict(self, cls):
        assert not hasattr(cls(**SAMPLES[cls]), "__dict__")

    def test_defaults(self, cls):
        parameters = inspect.signature(cls).parameters
        required = {name: value for name, value in SAMPLES[cls].items()
                    if parameters[name].default is inspect.Parameter.empty}
        record = cls(**required)
        for f in fields(cls):
            if f.name in required:
                assert getattr(record, f.name) is required[f.name]
            elif f.default_factory is MISSING:
                assert getattr(record, f.name) is f.default
            else:
                assert repr(getattr(record, f.name)) == repr(f.default_factory())


def test_each_default_origin_is_its_own_identity():
    joints = (TreeJoint("j", JointType.FIXED, "a", "b"),
              TreeJoint(name="k", joint_type=JointType.FIXED, parent="a", child="b"))
    loops = (LoopJoint("l", JointType.FIXED, "a", "b"),
             LoopJoint(name="m", joint_type=JointType.FIXED, predecessor="a",
                       successor="b"))
    origins = [joint.origin for joint in joints]
    origins += [origin for loop in loops
                for origin in (loop.predecessor_origin, loop.successor_origin)]
    assert len({id(origin) for origin in origins}) == 6
    for origin in origins:
        assert type(origin) is SpatialTransform
        assert (origin.rot == np.eye(3)).all() and not origin.trans.any()
