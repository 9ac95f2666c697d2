"""The reader's leaves and the writer's numbers, against the oracles.

Each element an interpreter reads for its attributes alone (a leaf) is read
wrong three ways -- a bad number, a missing required attribute, and once
too often -- and the streaming reader must give the error the two-pass
oracle reader of `tests/test_reader_oracle.py` gives: its type, message,
line, column and path.  The verbatim writer oracle of
`tests/test_xml_oracle.py` also runs on the generated ladders, which hold
what its random trees lack: couplings, mimics, payloads, `axis2` and
`independent` flags.  A model holding numpy scalars must write the bytes
its Python floats write.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from test_reader_oracle import LADDERS, assert_same_outcome
from test_xml_oracle import check_against_oracle
from urdfplus.xmlio import parse_urdf_plus, serialize_urdf_plus

# every leaf once, each on a line of its own and spelled uniquely
DOCUMENT = """<robot name="r">
<link name="a">
  <inertial>
    <origin xyz="0 0 0.1" rpy="0 0.2 0"/>
    <mass value="1.5"/>
    <inertia ixx="1" ixy="0" ixz="0" iyy="1" iyz="0" izz="1"/>
  </inertial>
</link>
<link name="b"/>
<link name="c"/>
<joint name="j" type="universal">
  <origin xyz="0 0 1" rpy="0 0 0.5"/>
  <parent link="a"/>
  <child link="b"/>
  <axis xyz="1 0 0"/>
  <axis2 xyz="0 1 0"/>
</joint>
<joint name="k" type="revolute">
  <parent link="b"/>
  <child link="c"/>
  <axis xyz="0 0 1"/>
  <mimic joint="j" multiplier="2"/>
</joint>
<loop name="l" type="universal">
  <predecessor link="a">
    <origin xyz="0.1 0 0"/>
  </predecessor>
  <successor link="c"/>
  <axis xyz="0 1 0"/>
  <axis2 xyz="0 0 -1"/>
</loop>
<coupling name="m">
  <predecessor name="b"/>
  <successor name="c"/>
  <ratio value="3"/>
</coupling>
</robot>"""

# leaf -> (its line in DOCUMENT, a bad number in it, it without a required
# attribute); None where the leaf holds no number or requires no attribute
LEAVES = {
    "inertial_origin": ('<origin xyz="0 0 0.1" rpy="0 0.2 0"/>',
                        '<origin xyz="0 0 0.1" rpy="0 0.2 zero"/>', None),
    # the bad mass is a case of test_which_error_wins
    "mass": ('<mass value="1.5"/>', None, "<mass/>"),
    "inertia": ('<inertia ixx="1" ixy="0" ixz="0" iyy="1" iyz="0" izz="1"/>',
                '<inertia ixx="1" ixy="0" ixz="0" iyy="1" iyz="0" izz="nan"/>',
                '<inertia ixx="1" ixy="0" ixz="0" iyy="1" izz="1"/>'),
    "joint_origin": ('<origin xyz="0 0 1" rpy="0 0 0.5"/>',
                     '<origin xyz="0 0 1 0" rpy="0 0 0.5"/>', None),
    "parent": ('<parent link="a"/>', None, '<parent lnk="a"/>'),
    "child": ('<child link="b"/>', None, "<child/>"),
    "joint_axis": ('<axis xyz="1 0 0"/>', '<axis xyz="1 0 inf"/>', None),
    "joint_axis2": ('<axis2 xyz="0 1 0"/>', '<axis2 xyz="0 1e400 0"/>', None),
    "mimic": ('<mimic joint="j" multiplier="2"/>', '<mimic joint="j" multiplier="2x"/>',
              '<mimic multiplier="2"/>'),
    "loop_predecessor": ('<predecessor link="a">', None, "<predecessor>"),
    "loop_end_origin": ('<origin xyz="0.1 0 0"/>', '<origin xyz="0.1 0 -"/>', None),
    "loop_successor": ('<successor link="c"/>', None, '<successor linc="c"/>'),
    "loop_axis": ('<axis xyz="0 1 0"/>', '<axis xyz="0 one 0"/>', None),
    "loop_axis2": ('<axis2 xyz="0 0 -1"/>', '<axis2 xyz="0,0,-1"/>', None),
    "coupling_predecessor": ('<predecessor name="b"/>', None, "<predecessor/>"),
    "coupling_successor": ('<successor name="c"/>', None, "<successor/>"),
    "ratio": ('<ratio value="3"/>', '<ratio value="three"/>', "<ratio/>"),
}


def _cases():
    for leaf, (line, bad_number, missing) in LEAVES.items():
        assert DOCUMENT.count(line) == 1, line
        if bad_number is not None:
            yield f"{leaf}-bad-number", DOCUMENT.replace(line, bad_number)
        if missing is not None:
            yield f"{leaf}-missing-attribute", DOCUMENT.replace(line, missing)
        # an empty copy on the line before, so the leaf itself is the repeat
        at = DOCUMENT.index(line)
        indent = DOCUMENT[DOCUMENT.rfind("\n", 0, at) + 1 : at]
        copy = line if line.endswith("/>") else line[:-1] + "/>"
        yield f"{leaf}-repeated", DOCUMENT.replace(line, f"{copy}\n{indent}{line}")

CASES = dict(_cases())


def test_document_reads_as_the_oracle_reads_it():
    model, warnings = assert_same_outcome(DOCUMENT.encode())
    assert model.startswith("RobotModel(") and warnings == []


@pytest.mark.parametrize("case", CASES)
def test_leaf_errors_read_as_the_oracle_reads_them(case):
    kind, message, line, column, path = assert_same_outcome(CASES[case].encode())
    assert isinstance(kind, type) and line > 1 and column > 1, (kind, message)


@pytest.mark.parametrize("name", sorted(LADDERS))
def test_generated_ladders_write_as_the_oracle_writes_them(name):
    check_against_oracle(LADDERS[name])


def _numpy_scalars(model):
    """`model` with its axes, masses, inertias, centers of mass and ratios
    as np.float64."""
    def floats(values):
        return None if values is None else tuple(map(np.float64, values))

    def inertial(inertial):
        if inertial is None:
            return None
        return dataclasses.replace(
            inertial, mass=np.float64(inertial.mass),
            center_of_mass=floats(inertial.center_of_mass),
            inertia=tuple(map(floats, inertial.inertia)))

    def axes(joint):
        return dataclasses.replace(joint, axis=floats(joint.axis), axis2=floats(joint.axis2))

    return dataclasses.replace(
        model,
        links=tuple(dataclasses.replace(link, inertial=inertial(link.inertial))
                    for link in model.links),
        tree_joints=tuple(map(axes, model.tree_joints)),
        loop_joints=tuple(map(axes, model.loop_joints)),
        couplings=tuple(dataclasses.replace(c, ratio=np.float64(c.ratio))
                        for c in model.couplings),
    )


@pytest.mark.parametrize("text", [DOCUMENT, LADDERS["ladder100"]],
                         ids=["document", "ladder100"])
def test_numpy_scalars_write_as_python_floats(text):
    model = parse_urdf_plus(text).model
    as_numpy = _numpy_scalars(model)
    assert type(as_numpy.couplings[0].ratio) is np.float64
    assert serialize_urdf_plus(as_numpy) == serialize_urdf_plus(model)
