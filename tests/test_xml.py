import gc
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from test_mutation_fuzz import MODELS, SEED, mutate
from urdfplus.errors import (
    InvalidNumberError,
    MissingAttributeError,
    UnknownElementError,
    UnknownJointTypeError,
    UnsupportedMimicOffsetError,
    UrdfPlusError,
    XmlSyntaxError,
)
from urdfplus.model import structurally_equal, validate_model
from urdfplus.spatial import JointType
from urdfplus.xmlio import parse_file, parse_urdf_plus, serialize_urdf_plus

# the published sketch of the wrist, joints and loops unnamed, no geometry
ABRIDGED_WRIST = """
<robot name="wrist_sketch">
  <link name="Base"/>
  <link name="Link 1"/>
  <link name="Link 2"/>
  <link name="Link 3"/>
  <link name="Output"/>
  <joint type="universal" independent="true">
    <parent name="Base"/>
    <child name="Link 1"/>
  </joint>
  <joint type="universal" independent="false">
    <parent name="Base"/>
    <child name="Link 2"/>
  </joint>
  <joint type="universal" independent="false">
    <parent name="Base"/>
    <child name="Link 3"/>
  </joint>
  <joint type="universal" independent="false">
    <parent name="Link 1"/>
    <child name="Output"/>
  </joint>
  <loop type="universal">
    <predecessor name="Link 2"/>
    <successor name="Output"/>
  </loop>
  <loop type="universal">
    <predecessor name="Link 3"/>
    <successor name="Output"/>
  </loop>
</robot>
"""


class TestParsing:
    def test_wrist_golden_file(self, wrist):
        model = wrist.model
        assert len(model.links) == 5
        assert len(model.tree_joints) == 4
        assert len(model.loop_joints) == 2
        assert len(model.couplings) == 0
        assert all(j.joint_type is JointType.UNIVERSAL for j in model.tree_joints)
        assert model.tree_joints[0].independent is True
        assert model.tree_joints[1].independent is False

    def test_belt_golden_file(self, belt):
        model = belt.model
        assert len(model.links) == 4
        assert len(model.tree_joints) == 3
        assert len(model.loop_joints) == 0
        assert len(model.couplings) == 1
        assert model.couplings[0].ratio == 2.0
        assert model.couplings[0].predecessor == "foot"
        assert model.couplings[0].successor == "motor"

    def test_abridged_sketch_parses_with_generated_names(self):
        result = parse_urdf_plus(ABRIDGED_WRIST)
        model = result.model
        assert len(model.links) == 5
        assert len(model.tree_joints) == 4
        assert len(model.loop_joints) == 2
        assert [j.name for j in model.tree_joints] == [
            "joint_1", "joint_2", "joint_3", "joint_4"
        ]
        assert [l.name for l in model.loop_joints] == ["loop_1", "loop_2"]
        assert validate_model(model).ok
        assert any("unnamed" in w.message for w in result.warnings)

    def test_plain_urdf_has_no_loops(self, plain_paths):
        assert len(plain_paths) >= 5
        for path in plain_paths:
            model = parse_file(path).model
            assert model.loop_joints == ()
            assert model.couplings == ()
            assert validate_model(model).ok

    def test_omitted_origin_defaults_to_identity(self):
        model = parse_urdf_plus(
            '<robot name="r"><link name="a"/><link name="b"/>'
            '<joint name="j" type="fixed"><parent link="a"/>'
            '<child link="b"/></joint></robot>'
        ).model
        origin = model.tree_joints[0].origin
        assert (origin.rot == np.eye(3)).all() and not origin.trans.any()

    def test_omitted_independent_is_unspecified(self, fourbar):
        plain = parse_urdf_plus(
            '<robot name="r"><link name="a"/><link name="b"/>'
            '<joint name="j" type="revolute"><parent link="a"/>'
            '<child link="b"/><axis xyz="0 0 1"/></joint></robot>'
        ).model
        assert plain.tree_joints[0].independent is None

    def test_scientific_notation_and_default_axis(self):
        model = parse_urdf_plus(
            '<robot name="r"><link name="a"/><link name="b"/>'
            '<joint name="j" type="prismatic">'
            '<origin xyz="1e-3 0 2.5E2" rpy="0 0 0"/>'
            '<parent link="a"/><child link="b"/></joint></robot>'
        ).model
        joint = model.tree_joints[0]
        assert joint.origin.trans[0] == pytest.approx(1e-3)
        assert joint.origin.trans[2] == pytest.approx(250.0)
        assert joint.axis == (1.0, 0.0, 0.0)  # URDF default

    def test_axis_normalization(self):
        model = parse_urdf_plus(
            '<robot name="r"><link name="a"/><link name="b"/>'
            '<joint name="j" type="revolute"><parent link="a"/>'
            '<child link="b"/><axis xyz="0 0 2"/></joint></robot>'
        ).model
        assert model.tree_joints[0].axis == (0.0, 0.0, 1.0)

    @staticmethod
    def revolute_axis(xyz: str) -> str:
        return ('<robot name="r"><link name="a"/><link name="b"/>\n'
                '<joint name="j" type="revolute"><parent link="a"/>'
                f'<child link="b"/><axis xyz="{xyz}"/></joint></robot>')

    def test_huge_axis_components_still_normalize(self):
        """Components whose squares overflow are scaled down first, so a
        huge axis is not read as the zero axis."""
        def axis(xyz):
            return parse_urdf_plus(self.revolute_axis(xyz)).model.tree_joints[0].axis

        assert axis("1e200 0 0") == (1.0, 0.0, 0.0)
        assert axis("0 -1e300 0") == (0.0, -1.0, 0.0)
        x, y, z = axis("1e300 1e300 0")
        assert x == y > 0.0 and z == 0.0 and math.isclose(math.hypot(x, y), 1.0)

    @pytest.mark.parametrize("xyz", ["0 0 0", "1e-13 0 0"])
    def test_zero_axis_is_a_located_error(self, xyz):
        with pytest.raises(InvalidNumberError, match="has zero length") as err:
            parse_urdf_plus(self.revolute_axis(xyz))
        assert (err.value.line, err.value.column, err.value.path) == (
            2, 68, "robot/joint(j)/axis")

    def test_inertial_parsed(self, plain_paths):
        model = parse_file([p for p in plain_paths if p.name == "pendulum.urdf"][0]).model
        upper = next(l for l in model.links if l.name == "upper")
        assert upper.inertial.mass == 1.2
        assert upper.inertial.center_of_mass == (0.0, 0.0, -0.25)

    def test_determinism(self, models_dir):
        data = (models_dir / "wrist.urdf").read_bytes()
        a = parse_urdf_plus(data).model
        b = parse_urdf_plus(data).model
        assert structurally_equal(a, b, tol=0.0)
        assert serialize_urdf_plus(a) == serialize_urdf_plus(b)


class TestMimicTranslation:
    def test_unity_mimic_becomes_coupling(self, models_dir):
        model = parse_file(models_dir / "mimic_gripper.urdf").model
        coupling = next(c for c in model.couplings if c.name == "follower_mimic")
        assert coupling.ratio == 1.0
        assert coupling.predecessor == "jaw2"
        assert coupling.successor == "jaw1"

    def test_negative_multiplier(self, models_dir):
        model = parse_file(models_dir / "mimic_gripper.urdf").model
        coupling = next(c for c in model.couplings if c.name == "gear_mimic")
        assert coupling.ratio == -2.5
        assert coupling.predecessor == "lever"

    def test_mimic_offset_rejected(self, models_dir):
        with pytest.raises(UnsupportedMimicOffsetError) as err:
            parse_file(models_dir / "errors" / "mimic_offset.urdf")
        assert err.value.line > 0

    def test_mimic_of_unknown_joint(self):
        with pytest.raises(UnknownElementError):
            parse_urdf_plus(
                '<robot name="r"><link name="a"/><link name="b"/>'
                '<joint name="j" type="revolute"><parent link="a"/>'
                '<child link="b"/><axis xyz="0 0 1"/>'
                '<mimic joint="ghost"/></joint></robot>'
            )


class TestErrors:
    def test_malformed_xml_carries_location(self, models_dir):
        with pytest.raises(XmlSyntaxError) as err:
            parse_file(models_dir / "errors" / "malformed.urdf")
        assert err.value.line >= 1
        assert err.value.column >= 1

    def test_planar_joint_rejected(self, models_dir):
        with pytest.raises(UnknownJointTypeError) as err:
            parse_file(models_dir / "errors" / "planar_joint.urdf")
        assert "planar" in str(err.value)

    def test_unknown_joint_type(self):
        with pytest.raises(UnknownJointTypeError):
            parse_urdf_plus(
                '<robot name="r"><link name="a"/><link name="b"/>'
                '<joint name="j" type="helical"><parent link="a"/>'
                '<child link="b"/></joint></robot>'
            )

    def test_unknown_element_under_robot(self):
        with pytest.raises(UnknownElementError) as err:
            parse_urdf_plus('<robot name="r"><lop name="typo"/></robot>')
        assert err.value.line == 1

    def test_missing_ratio_value(self):
        with pytest.raises(MissingAttributeError):
            parse_urdf_plus(
                '<robot name="r"><link name="a"/><link name="b"/>'
                '<coupling name="c"><predecessor name="a"/>'
                '<successor name="b"/><ratio/></coupling></robot>'
            )

    def test_rejects_non_finite_numbers(self):
        for bad in ("nan", "inf", "-inf"):
            with pytest.raises(InvalidNumberError):
                parse_urdf_plus(
                    f'<robot name="r"><link name="a"/><link name="b"/>'
                    f'<joint name="j" type="fixed">'
                    f'<origin xyz="0 {bad} 0"/>'
                    f'<parent link="a"/><child link="b"/></joint></robot>'
                )

    def test_non_utf8_payload_is_located(self):
        text = (
            '<?xml version="1.0" encoding="ISO-8859-1"?>\n'
            '<robot name="r"><link name="a">\n'
            '  <visual><material name="caf\xe9"/></visual></link></robot>\n'
        ).encode("latin-1")
        with pytest.raises(XmlSyntaxError, match="not UTF-8") as err:
            parse_urdf_plus(text)
        assert (err.value.line, err.value.column) == (3, 3)

    def test_rejects_wrong_arity_triple(self):
        with pytest.raises(InvalidNumberError):
            parse_urdf_plus(
                '<robot name="r"><link name="a"/><link name="b"/>'
                '<joint name="j" type="fixed"><origin xyz="1 2"/>'
                '<parent link="a"/><child link="b"/></joint></robot>'
            )

    def test_errors_carry_element_path(self):
        with pytest.raises(InvalidNumberError) as err:
            parse_urdf_plus(
                '<robot name="r"><link name="a"/><link name="b"/>'
                '<joint name="lift" type="fixed"><origin xyz="x y z"/>'
                '<parent link="a"/><child link="b"/></joint></robot>'
            )
        assert "joint(lift)" in err.value.path


def robot_ab(*lines: str) -> str:
    """A robot with links a and b; `lines` follow from line 4 on."""
    return "\n".join(['<robot name="r">', '<link name="a"/>', '<link name="b"/>',
                      *lines, "</robot>"])


JOINT = ['<joint name="j" type="universal">', '  <parent link="a"/>',
         '  <child link="b"/>']  # lines 4-6
LOOP = ['<loop name="l" type="universal">', '  <predecessor link="a"/>',
        '  <successor link="b"/>']
COUPLING = ['<coupling name="c">', '  <predecessor name="a"/>',
            '  <successor name="b"/>', '  <ratio value="2"/>']
INERTIAL = ['<link name="c">', '  <inertial>']  # its children from line 6 on

# name -> (elements from line 4 on, message, line, column, path): each holds
# one child too many, or one no rule admits, at that line and column
REJECTED_CHILDREN = {
    "link_inertial": (['<link name="c">', "  <inertial/>", "  <inertial/>", "</link>"],
                      "repeated <inertial> inside <link>", 6, 3, "robot/link(c)"),
    **{f"inertial_{tag}": (
        [*INERTIAL, f"    {child}", f"    {child}", "  </inertial>", "</link>"],
        f"repeated <{tag}> inside <inertial>", 7, 5, "robot/link(c)/inertial")
       for tag, child in [("origin", '<origin xyz="0 0 1"/>'), ("mass", '<mass value="1"/>'),
                          ("inertia", '<inertia ixx="1" ixy="0" ixz="0" iyy="1" '
                                      'iyz="0" izz="1"/>')]},
    "inertial_unknown": ([*INERTIAL, '    <Tass value="1"/>', "  </inertial>", "</link>"],
                         "unknown element <Tass> inside <inertial>", 6, 5,
                         "robot/link(c)/inertial"),
    "joint_parent": ([*JOINT, '  <parent link="b"/>', "</joint>"],
                     "repeated <parent> inside <joint>", 7, 3, "robot/joint(j)"),
    "joint_child": ([*JOINT, '  <child link="a"/>', "</joint>"],
                    "repeated <child> inside <joint>", 7, 3, "robot/joint(j)"),
    **{f"joint_{tag}": ([*JOINT, f"  {child}", f"  {child}", "</joint>"],
                        f"repeated <{tag}> inside <joint>", 8, 3, "robot/joint(j)")
       for tag, child in [("origin", "<origin/>"), ("axis", '<axis xyz="1 0 0"/>'),
                          ("axis2", '<axis2 xyz="0 1 0"/>'), ("mimic", '<mimic joint="j"/>')]},
    "loop_predecessor": ([*LOOP, '  <predecessor link="b"/>', "</loop>"],
                         "repeated <predecessor> inside <loop>", 7, 3, "robot/loop(l)"),
    "loop_successor": ([*LOOP, '  <successor link="a"/>', "</loop>"],
                       "repeated <successor> inside <loop>", 7, 3, "robot/loop(l)"),
    **{f"loop_{tag}": ([*LOOP, f"  {child}", f"  {child}", "</loop>"],
                       f"repeated <{tag}> inside <loop>", 8, 3, "robot/loop(l)")
       for tag, child in [("axis", '<axis xyz="1 0 0"/>'), ("axis2", '<axis2 xyz="0 1 0"/>')]},
    "endpoint_origin": (['<loop name="l" type="fixed">', '  <predecessor link="a">',
                         "    <origin/>", "    <origin/>", "  </predecessor>",
                         '  <successor link="b"/>', "</loop>"],
                        "repeated <origin> inside <predecessor>", 7, 5,
                        "robot/loop(l)/predecessor"),
    "endpoint_unknown": (['<loop name="l" type="fixed">', '  <predecessor link="a"/>',
                          '  <successor link="b">', '    <axis xyz="0 0 1"/>',
                          "  </successor>", "</loop>"],
                         "unknown element <axis> inside <successor>", 7, 5,
                         "robot/loop(l)/successor"),
    "coupling_predecessor": ([*COUPLING, '  <predecessor name="b"/>', "</coupling>"],
                             "repeated <predecessor> inside <coupling>", 8, 3,
                             "robot/coupling(c)"),
    "coupling_successor": ([*COUPLING, '  <successor name="a"/>', "</coupling>"],
                           "repeated <successor> inside <coupling>", 8, 3,
                           "robot/coupling(c)"),
    "coupling_ratio": ([*COUPLING, '  <ratio value="3"/>', "</coupling>"],
                       "repeated <ratio> inside <coupling>", 8, 3, "robot/coupling(c)"),
}


def fuzz_mutant(index: int) -> bytes:
    """Mutant `index` of tests/test_mutation_fuzz.py's seeded sequence."""
    rng = random.Random(SEED)
    sources = [path.read_bytes() for path in MODELS]
    for _ in range(index):
        mutate(rng, rng.choice(sources))
    return mutate(rng, rng.choice(sources))


class TestChildRule:
    """Each interpreted element takes each of its own children at most
    once, preserves only its payload tags, and rejects any other child."""

    @pytest.mark.parametrize("case", REJECTED_CHILDREN)
    def test_rejected_child_is_located(self, case):
        lines, message, line, column, path = REJECTED_CHILDREN[case]
        with pytest.raises(UnknownElementError) as err:
            parse_urdf_plus(robot_ab(*lines))
        assert (err.value.message, err.value.line, err.value.column, err.value.path) == (
            message, line, column, path)

    def test_each_child_once_parses(self):
        lines = [*INERTIAL, '    <origin xyz="0 0 1"/>', '    <mass value="2"/>',
                 "  </inertial>", "  <visual/>", "  <visual/>", "</link>",
                 *JOINT, '  <axis xyz="1 0 0"/>', '  <axis2 xyz="0 1 0"/>',
                 '  <limit effort="1"/>', '  <limit effort="2"/>', "</joint>",
                 *LOOP, "</loop>", *COUPLING, "</coupling>"]
        model = parse_urdf_plus(robot_ab(*lines)).model
        link, joint = model.links[2], model.tree_joints[0]
        assert (link.inertial.mass, link.payload) == (2.0, ("<visual/>", "<visual/>"))
        assert (joint.axis, joint.axis2) == ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
        assert joint.payload == ('<limit effort="1"/>', '<limit effort="2"/>')
        assert model.loop_joints[0].predecessor == "a"
        assert model.couplings[0].ratio == 2.0

    @pytest.mark.parametrize("index, source, message, line, column, path", [
        # wrist's <axis2> of Joint3 became a second <axis>
        (404, b'<axis xyz="1 0 0"/>\n    <axis xyz="0 1 0"/>',
         "repeated <axis> inside <joint>", 34, 5, "robot/joint(Joint3)"),
        # rover's <mass value="25.0"/> became <Tass value="25.0"/>
        (1168, b'<Tass value="25.0"/>',
         "unknown element <Tass> inside <inertial>", 6, 7, "robot/link(chassis)/inertial"),
    ], ids=["mutant404", "mutant1168"])
    def test_fuzz_mutants_that_parsed_are_rejected(self, index, source, message,
                                                   line, column, path):
        data = fuzz_mutant(index)
        assert source in data
        with pytest.raises(UnknownElementError) as err:
            parse_urdf_plus(data)
        assert (err.value.message, err.value.line, err.value.column, err.value.path) == (
            message, line, column, path)


# name -> (where the source goes, that source, the payload it must give);
# "link" is inside link a, "joint" inside joint j, "robot" under <robot>
PAYLOAD_EXTENTS = {
    "empty_last_child": ("link", "<visual/>", ("<visual/>",)),
    "gt_in_double_quotes": (
        "link", '<visual a=">/>"/>', ('<visual a=">/>"/>',)),
    "slash_gt_in_single_quotes": (
        "link", "<visual a='\"/>'>x</visual>\n<collision b='\"/>'/>",
        ("<visual a='\"/>'>x</visual>", "<collision b='\"/>'/>")),
    "text_ends_in_slash_gt": (
        "link", "<collision>t/></collision>", ("<collision>t/></collision>",)),
    "nested_same_name": (
        "link", "<visual><visual/></visual>", ("<visual><visual/></visual>",)),
    "comment_pi_cdata": (
        "link", "<visual><!-- </visual> --><?pi a/>?><![CDATA[</visual>]]></visual>",
        ("<visual><!-- </visual> --><?pi a/>?><![CDATA[</visual>]]></visual>",)),
    "space_in_end_tag": (
        "link", "<visual>\n</visual >", ("<visual>\n</visual >",)),
    "joint_limit": (
        "joint", '<limit lower="0" upper="1" effort="2" velocity="3"/>',
        ('<limit lower="0" upper="1" effort="2" velocity="3"/>',)),
    "robot_material_gazebo": (
        "robot", '<material name="m"/>\n  <gazebo>x</gazebo>',
        ('<material name="m"/>', "<gazebo>x</gazebo>")),
    "non_ascii_text": (
        "link", '<visual name="\u00e9">\u00fc \u4e2d</visual>',
        ('<visual name="\u00e9">\u00fc \u4e2d</visual>',)),
}


class TestPayloadExtent:
    @pytest.mark.parametrize("case", PAYLOAD_EXTENTS)
    def test_payload_is_the_source_text(self, case):
        where, source, expected = PAYLOAD_EXTENTS[case]
        inside = {key: source if key == where else "" for key in ("link", "joint", "robot")}
        model = parse_urdf_plus(
            f'<robot name="r"><link name="a">{inside["link"]}</link><link name="b"/>'
            f'<joint name="j" type="fixed"><parent link="a"/><child link="b"/>'
            f'{inside["joint"]}</joint>{inside["robot"]}</robot>'
        ).model
        payload = {"link": model.links[0].payload,
                   "joint": model.tree_joints[0].payload, "robot": model.payload}
        assert payload[where] == expected

    def test_payload_from_an_entity_is_located(self):
        text = (
            '<!DOCTYPE robot [<!ENTITY v "<visual><box/></visual>">]>\n'
            '<robot name="r"><link name="a">&v;</link></robot>'
        )
        with pytest.raises(XmlSyntaxError, match="comes from an entity") as err:
            parse_urdf_plus(text)
        assert (err.value.line, err.value.column) == (2, 32)

    def test_entity_inside_a_payload_is_kept_as_written(self):
        model = parse_urdf_plus(
            '<!DOCTYPE robot [<!ENTITY v "<box/>">]>'
            '<robot name="r"><link name="a"><visual>&v;</visual></link></robot>'
        ).model
        assert model.links[0].payload == ("<visual>&v;</visual>",)


# a preserved element holding a reference to an entity its document
# declares: its owner, its source, its tag and the reference
ENTITY_PAYLOADS = {
    "link_text": ("link", "<visual>&t;</visual>", "visual", "&t;"),
    "joint_attribute": ("joint", '<limit upper="&v;"/>', "limit", "&v;"),
    "robot_text": ("robot", "<material>&t;</material>", "material", "&t;"),
    "after_predefined": ("joint", '<limit lower="&#49;&amp;" upper="&v;"/>', "limit", "&v;"),
}


def entity_document(where: str, source: str) -> str:
    """A document whose DTD declares &t; and &v;, with `source` in <link
    name="a">, <joint name="j"> or <robot> on its second line."""
    inside = {key: source if key == where else "" for key in ("link", "joint", "robot")}
    return ('<!DOCTYPE robot [<!ENTITY t "x"><!ENTITY v "1">]>\n'
            f'<robot name="r"><link name="a">{inside["link"]}</link><link name="b"/>'
            '<joint name="j" type="fixed"><parent link="a"/><child link="b"/>'
            f'{inside["joint"]}</joint>{inside["robot"]}</robot>')


class TestEntityInPayload:
    """A preserved element that refers to an entity its document declares
    reads as written, with a warning, and the writer refuses it; both name
    the reference."""

    @pytest.mark.parametrize("case", ENTITY_PAYLOADS)
    def test_reader_warns_and_writer_refuses(self, case):
        where, source, tag, ref = ENTITY_PAYLOADS[case]
        text = entity_document(where, source)
        result = parse_urdf_plus(text)
        model = result.model
        assert payload_of(model, where) == (source,)
        path = {"link": "robot/link(a)", "joint": "robot/joint(j)", "robot": "robot"}[where]
        column = text.splitlines()[1].index(source) + 1
        assert [(w.line, w.column, w.path, w.message) for w in result.warnings] == [
            (2, column, path, f"preserved <{tag}> cannot be written back: alone, it "
                              f"refers to the undefined entity {ref}")]
        with pytest.raises(UrdfPlusError) as err:
            serialize_urdf_plus(model)
        assert type(err.value) is UrdfPlusError
        assert str(err.value) == (f"cannot write <{where}> {owner_name(model, where)!r}: "
                                  f"its payload blob 0 refers to the undefined entity {ref}")

    def test_reference_in_cdata_is_written_back(self):
        source = "<visual><![CDATA[&x;]]></visual>"
        result = parse_urdf_plus(entity_document("link", source))
        assert result.warnings == []
        back = parse_urdf_plus(serialize_urdf_plus(result.model)).model
        assert payload_of(back, "link") == (source,)


# blobs a model built in code may hold that are not one well-formed
# element alone, so that the text written would not read back as them
BAD_BLOBS = {
    "invalid_character": "<visual>\x01</visual>",
    "unclosed": "<visual>",
    "two_elements": "<a/><b/>",
    "leading_space": " <visual/>",
    "comment_first": "<!-- c --><visual/>",
    "declaration_first": '<?xml version="1.0"?><visual/>',
    "trailing_text": "<visual/>text",
    "trailing_newline": "<visual/>\n",
    "trailing_comment": "<visual/><!-- c -->",
    "trailing_instruction": "<visual>x</visual><?pi?>",
    "comment_like_end_tag": "<a--></a--><!--</a-->",
    "doctype_first": "<!DOCTYPE visual><visual/>",
    "text_only": "text",
    "cdata_only": "<![CDATA[x]]>",
    "empty": "",
    "lone_surrogate": "<visual>\ud800</visual>",
}
# one valid nested element of each owner's preserved kind
GOOD_BLOBS = {
    "link": '<visual><geometry><box size="1 1 1"/></geometry></visual>',
    "joint": '<limit effort="1" velocity="1"><x a="/>"/></limit>',
    "robot": '<material name="m"><color rgba="1 0 0 1"/></material>',
}


def with_payload(model, owner: str, payload: tuple):
    if owner == "link":
        return replace(model, links=(replace(model.links[0], payload=payload),
                                     *model.links[1:]))
    if owner == "joint":
        return replace(model, tree_joints=(replace(model.tree_joints[0], payload=payload),
                                           *model.tree_joints[1:]))
    return replace(model, payload=payload)


def payload_of(model, owner: str) -> tuple:
    return {"link": model.links[0].payload, "joint": model.tree_joints[0].payload,
            "robot": model.payload}[owner]


def owner_name(model, owner: str) -> str:
    return {"link": model.links[0].name, "joint": model.tree_joints[0].name,
            "robot": model.name}[owner]


class TestPayloadWriting:
    """The writer refuses a payload blob that would not read back as itself."""

    @pytest.fixture(scope="class")
    def fourbar(self, models_dir):
        return parse_file(models_dir / "fourbar.urdf").model

    @pytest.mark.parametrize("owner", ["link", "joint", "robot"])
    @pytest.mark.parametrize("case", BAD_BLOBS)
    def test_bad_blob_raises_naming_owner_and_index(self, fourbar, owner, case):
        model = with_payload(fourbar, owner, (GOOD_BLOBS[owner], BAD_BLOBS[case]))
        with pytest.raises(UrdfPlusError) as err:
            serialize_urdf_plus(model)
        assert type(err.value) is UrdfPlusError
        assert str(err.value) == (f"cannot write <{owner}> {owner_name(model, owner)!r}: "
                                  "its payload blob 1 is not one well-formed element alone")

    @pytest.mark.parametrize("owner, blob, tag", [
        ("joint", "<visual/>", "visual"),  # would read back as an unknown element
        ("robot", "<visual/>", "visual"),
        ("link", '<inertial><mass value="2"/></inertial>', "inertial"),  # the link's Inertial
        ("robot", '<link name="extra"/>', "link"),  # a fifth link
        ("joint", "<limits/>", "limits"),
        ("robot", "<material:x/>", "material:x"),
    ])
    def test_blob_its_owner_would_not_keep_raises(self, fourbar, owner, blob, tag):
        model = with_payload(fourbar, owner, (GOOD_BLOBS[owner], blob))
        with pytest.raises(UrdfPlusError) as err:
            serialize_urdf_plus(model)
        assert type(err.value) is UrdfPlusError
        assert str(err.value) == (f"cannot write <{owner}> {owner_name(model, owner)!r}: "
                                  f"its payload blob 1 is a <{tag}>, which <{owner}> "
                                  "does not keep as payload")

    @pytest.mark.parametrize("owner, blob", [
        *[("joint", f"<{tag}\n/>") for tag in ("limit", "dynamics", "calibration",
                                                "safety_controller")],
        *[("robot", f"<{tag}\t></{tag}>") for tag in ("material", "transmission", "gazebo",
                                                      "sensor")],
        ("link", '<x:inertial a="1"/>'),
        ("link", "<inertials/>"),
    ])
    def test_blob_its_owner_keeps_round_trips(self, fourbar, owner, blob):
        model = with_payload(fourbar, owner, (blob,))
        back = parse_urdf_plus(serialize_urdf_plus(model)).model
        assert payload_of(back, owner) == (blob,)

    def test_error_names_the_owner_as_the_model_holds_it(self, fourbar):
        model = with_payload(fourbar, "link", ("<a/><b/>",))
        model = replace(model, links=(replace(model.links[0], name="a&b"), *model.links[1:]))
        with pytest.raises(UrdfPlusError) as err:
            serialize_urdf_plus(model)
        assert str(err.value) == ("cannot write <link> 'a&b': its payload blob 0 "
                                  "is not one well-formed element alone")

    @pytest.mark.parametrize("owner", ["link", "joint", "robot"])
    def test_good_blob_round_trips(self, fourbar, owner):
        model = with_payload(fourbar, owner, (GOOD_BLOBS[owner],) * 2)
        back = parse_urdf_plus(serialize_urdf_plus(model)).model
        assert payload_of(back, owner) == (GOOD_BLOBS[owner],) * 2

    @pytest.mark.parametrize("blob", ["<a--></a-->", "<v><!-- c --><?pi x?></v>",
                                      "<v>&amp;&#x1F600;<![CDATA[<]]></v >"])
    def test_unusual_element_round_trips(self, fourbar, blob):
        model = with_payload(fourbar, "link", (blob,))
        back = parse_urdf_plus(serialize_urdf_plus(model)).model
        assert payload_of(back, "link") == (blob,)

    @pytest.mark.parametrize("case", PAYLOAD_EXTENTS)
    def test_reader_blobs_are_written_as_read(self, case):
        where, source, expected = PAYLOAD_EXTENTS[case]
        model = parse_urdf_plus(
            f'<robot name="r"><link name="a">{source if where == "link" else ""}</link>'
            '<link name="b"/><joint name="j" type="fixed"><parent link="a"/>'
            f'<child link="b"/>{source if where == "joint" else ""}</joint>'
            f'{source if where == "robot" else ""}</robot>').model
        back = parse_urdf_plus(serialize_urdf_plus(model)).model
        assert payload_of(back, where) == expected

    def test_a_write_leaves_no_cyclic_garbage(self, fourbar):
        model = with_payload(fourbar, "link", (GOOD_BLOBS["link"],) * 50)
        gc.collect()
        gc.disable()
        try:
            serialize_urdf_plus(model)
            with pytest.raises(UrdfPlusError):
                serialize_urdf_plus(with_payload(model, "robot", ("<a/><b/>",)))
            assert gc.collect() == 0
        finally:
            gc.enable()


UTF16_PAYLOAD = (
    '<?xml version="1.0" encoding="UTF-16"?>\n'
    '<robot name="r"><link name="a">\n'
    "  <visual><box/></visual></link></robot>\n"
)


def utf16_with_bom(text: str, codec: str) -> bytes:
    return ("\ufeff" + text).encode(codec)


@pytest.mark.parametrize("codec", ["utf-16-le", "utf-16-be"])
class TestUtf16:
    def test_payload_is_located_error(self, codec):
        with pytest.raises(XmlSyntaxError, match="preserved <visual> is not UTF-8") as err:
            parse_urdf_plus(utf16_with_bom(UTF16_PAYLOAD, codec))
        assert (err.value.line, err.value.column) == (3, 3)

    def test_file_without_payload_parses_like_utf8(self, models_dir, codec):
        text = (models_dir / "wrist.urdf").read_text(encoding="utf-8")
        utf8 = parse_urdf_plus(text.encode("utf-8"))
        utf16 = parse_urdf_plus(utf16_with_bom(text, codec))
        assert structurally_equal(utf16.model, utf8.model, tol=0.0)
        assert serialize_urdf_plus(utf16.model) == serialize_urdf_plus(utf8.model)
        assert utf16.warnings == utf8.warnings


class TestDeclaredEncoding:
    """A str is text already decoded: the encoding its declaration names no
    longer applies.  Bytes are decoded as their declaration says."""

    @pytest.mark.parametrize("encoding", ["ISO-8859-1", "UTF-16"])
    def test_str_ignores_the_declaration(self, encoding):
        text = (f'<?xml version="1.0" encoding="{encoding}"?>\n'
                '<robot name="\u00e9"><link name="\u00e9"/></robot>')
        model = parse_urdf_plus(text).model
        assert (model.name, model.links[0].name) == ("\u00e9", "\u00e9")

    def test_bytes_follow_the_declaration(self):
        data = ('<?xml version="1.0" encoding="ISO-8859-1"?>\n'
                '<robot name="\u00e9"/>').encode("latin-1")
        assert parse_urdf_plus(data).model.name == "\u00e9"

    def test_lone_surrogate_in_str_is_located(self):
        with pytest.raises(XmlSyntaxError, match="lone surrogate U\\+D800") as err:
            parse_urdf_plus('<robot name="a\ud800"><link name="b"/></robot>')
        assert (err.value.line, err.value.column) == (1, 15)

    @pytest.mark.parametrize("surrogate", ["\ud800", "\udfff"])
    def test_lone_surrogate_is_located_as_expat_locates(self, surrogate):
        """Lines end at \\n, \\r\\n or \\r and columns count characters from
        1: an unknown element in the surrogate's place reports there too."""
        before = '<robot name="\u20ac">\r\n<link name="b"/>\r<link name="\u00e9"/>'
        with pytest.raises(XmlSyntaxError, match="lone surrogate") as err:
            parse_urdf_plus(f"{before}{surrogate}</robot>")
        assert (err.value.line, err.value.column) == (3, 17)
        with pytest.raises(UnknownElementError) as unknown:
            parse_urdf_plus(f"{before}<bogus/></robot>")
        assert (unknown.value.line, unknown.value.column) == (3, 17)

    def test_bytes_with_surrogate_bytes_stay_a_syntax_error(self):
        data = '<robot name="a\ud800"/>'.encode("utf-8", "surrogatepass")
        with pytest.raises(XmlSyntaxError, match="not well-formed") as err:
            parse_urdf_plus(data)
        assert (err.value.line, err.value.column) == (1, 15)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name",
        ["wrist.urdf", "belt.urdf", "fourbar.urdf", "nested.urdf",
         "overlapping.urdf", "mimic_gripper.urdf"],
    )
    def test_golden_round_trip(self, models_dir, name):
        first = parse_file(models_dir / name).model
        text = serialize_urdf_plus(first)
        second = parse_urdf_plus(text).model
        assert structurally_equal(first, second)
        # serialization is a fixpoint after one pass
        assert serialize_urdf_plus(second) == text

    def test_plain_round_trip(self, plain_paths):
        for path in plain_paths:
            first = parse_file(path).model
            text = serialize_urdf_plus(first)
            second = parse_urdf_plus(text).model
            assert structurally_equal(first, second), path.name
            assert "<loop" not in text
            assert "<coupling" not in text

    def test_payload_preserved_byte_identical(self, plain_paths):
        path = [p for p in plain_paths if p.name == "branched.urdf"][0]
        first = parse_file(path).model
        torso = next(l for l in first.links if l.name == "torso")
        assert len(torso.payload) == 1
        assert torso.payload[0].startswith("<visual>")
        assert "<box size=" in torso.payload[0]
        second = parse_urdf_plus(serialize_urdf_plus(first)).model
        torso2 = next(l for l in second.links if l.name == "torso")
        assert torso2.payload == torso.payload

    def test_robot_level_payload_preserved(self, plain_paths):
        path = [p for p in plain_paths if p.name == "rover.urdf"][0]
        first = parse_file(path).model
        assert any(blob.startswith("<gazebo") for blob in first.payload)
        second = parse_urdf_plus(serialize_urdf_plus(first)).model
        assert second.payload == first.payload

    def test_axis2_survives_round_trip(self, models_dir):
        first = parse_file(models_dir / "wrist.urdf").model
        second = parse_urdf_plus(serialize_urdf_plus(first)).model
        assert second.tree_joints[0].axis2 == (0.0, 1.0, 0.0)

    @pytest.mark.parametrize("old, new, message, field", [
        ('<axis xyz="0 0 1"/>\n  </loop>',
         '<axis xyz="0 0 1"/>\n    <axis2 xyz="0 1 0"/>\n  </loop>',
         "axis2 ignored on revolute joint", "axis2"),
        ('<loop name="closure" type="revolute">', '<loop name="closure" type="fixed">',
         "axis ignored on fixed joint", "axis"),
    ])
    def test_loop_drops_an_axis_its_type_takes_none_of(self, models_dir, old, new,
                                                       message, field):
        text = (models_dir / "fourbar.urdf").read_text()
        assert old in text
        result = parse_urdf_plus(text.replace(old, new))
        assert [w.message for w in result.warnings] == [message]
        assert getattr(result.model.loop_joints[0], field) is None
        again = parse_urdf_plus(serialize_urdf_plus(result.model))
        assert structurally_equal(result.model, again.model)
        assert not again.warnings

    def test_tab_newline_and_return_in_names_survive(self):
        """Attribute-value normalization reads a literal tab, newline or
        carriage return back as a space; the writer spells them as
        character references."""
        text = ('<robot name="r&#10;x"><link name="a&#9;b"/><link name="c&#13;d"/>'
                '<joint name="j" type="fixed"><parent link="a&#9;b"/>'
                '<child link="c&#13;d"/></joint></robot>')
        first = parse_urdf_plus(text).model
        assert (first.name, first.link_names()) == ("r\nx", ["a\tb", "c\rd"])
        out = serialize_urdf_plus(first)
        assert '<robot name="r&#10;x">' in out
        assert '<parent link="a&#9;b"/>' in out and '<child link="c&#13;d"/>' in out
        second = parse_urdf_plus(out).model
        assert (second.name, second.link_names()) == (first.name, first.link_names())
        assert structurally_equal(first, second)
        assert serialize_urdf_plus(second) == out

    # each character that no XML 1.0 document can carry, even as a reference
    REFUSED = ["\x00", "\x01", "\x08", "\x0b", "\x0c", "\x0e", "\x1f",
               "\ud800", "\udbff", "\udc00", "\udfff", "\ufffe", "\uffff"]
    NAMED = ('<robot name="r"><link name="a"/><link name="b"/>'
             '<joint name="j" type="revolute"><parent link="a"/><child link="b"/></joint>'
             '<loop name="l" type="revolute"><predecessor name="a"/>'
             '<successor name="b"/></loop>'
             '<coupling name="c"><predecessor name="a"/><successor name="b"/>'
             '<ratio value="2"/></coupling></robot>')

    @pytest.mark.parametrize("records, tag, field", [
        (None, "robot", "name"),
        ("links", "link", "name"),
        ("tree_joints", "joint", "name"),
        ("tree_joints", "joint", "parent"),
        ("tree_joints", "joint", "child"),
        ("loop_joints", "loop", "name"),
        ("loop_joints", "loop", "predecessor"),
        ("loop_joints", "loop", "successor"),
        ("couplings", "coupling", "name"),
        ("couplings", "coupling", "predecessor"),
        ("couplings", "coupling", "successor"),
    ])
    def test_name_xml_cannot_carry_is_refused(self, records, tag, field):
        model = parse_urdf_plus(self.NAMED).model
        for char in self.REFUSED:
            if records is None:
                bad = replace(model, name=f"x{char}y")
            else:
                record = getattr(model, records)[0]
                bad = replace(model, **{records: (
                    replace(record, **{field: f"x{char}y"}),)})
            with pytest.raises(UrdfPlusError) as err:
                serialize_urdf_plus(bad)
            message = str(err.value)
            assert f"<{tag}>" in message, message
            assert f"its {field} holds U+{ord(char):04X}" in message, message

    def test_character_outside_the_bmp_round_trips(self):
        text = self.NAMED.replace('"a"', '"a\U0001F916"').replace('"c"', '"\U0001F916"')
        first = parse_urdf_plus(text).model
        assert first.links[0].name == "a\U0001F916"
        out = serialize_urdf_plus(first)
        assert out.encode("utf-8")
        second = parse_urdf_plus(out).model
        assert repr(second) == repr(first)

    def test_rpy_survives_round_trip(self, plain_paths):
        path = [p for p in plain_paths if p.name == "branched.urdf"][0]
        first = parse_file(path).model
        second = parse_urdf_plus(serialize_urdf_plus(first)).model
        left = next(j for j in second.tree_joints if j.name == "left_shoulder")
        import numpy as np

        expected = parse_file(path).model.tree_joints[0].origin.rot
        assert np.abs(left.origin.rot - expected).max() < 1e-12

    def test_loop_origin_survives_round_trip(self, models_dir):
        first = parse_file(models_dir / "wrist.urdf").model
        second = parse_urdf_plus(serialize_urdf_plus(first)).model
        import numpy as np

        assert np.allclose(
            second.loop_joints[0].predecessor_origin.trans, [0, 0, 1.0]
        )
        assert np.allclose(
            second.loop_joints[0].successor_origin.trans, [0.2, 0, 0]
        )


def _ladder(n_bodies: int) -> str:
    """An n-body chain with inertials, geometry, limits, origins and a loop
    every tenth body: the element mix of a generated ladder."""
    out = ['<robot name="ladder">']
    for i in range(n_bodies + 1):
        out.append(
            f'<link name="b{i}"><inertial><origin xyz="0 0 0.{i % 10}"/>'
            f'<mass value="1.5"/><inertia ixx="0.1" ixy="0" ixz="0" iyy="0.2" '
            f'iyz="0" izz="0.3"/></inertial>'
            f'<visual><geometry><box size="0.1 0.2 0.3"/></geometry></visual></link>')
    for i in range(n_bodies):
        out.append(
            f'<joint name="j{i}" type="revolute"><origin xyz="0 0 0.5" '
            f'rpy="0.{i % 7} -0.{i % 5} 0.{i % 3}"/><parent link="b{i}"/>'
            f'<child link="b{i + 1}"/><axis xyz="0 0 1"/>'
            f'<limit lower="-1" upper="1" effort="1" velocity="1"/></joint>')
    for i in range(0, n_bodies - 2, 10):
        out.append(
            f'<loop name="l{i}" type="revolute"><predecessor name="b{i}">'
            f'<origin xyz="0 0.1 0" rpy="0 0.3 0"/></predecessor>'
            f'<successor name="b{i + 2}"/><axis xyz="0 0 1"/></loop>')
    out.append("</robot>")
    return "\n".join(out)


def _parse_outcome(text: str):
    """None when the text parses, else the type of the error it raises; the
    parse result and the exception are dropped before this returns."""
    try:
        parse_urdf_plus(text)
    except UrdfPlusError as exc:
        return type(exc)
    return None


@pytest.mark.parametrize("text, error", [
    (_ladder(800), None),
    ('<robot name="r"><link name="a"></robot>', XmlSyntaxError),
    ('<robot name="r"><link name="a"/><bogus/></robot>', UnknownElementError),
    # the reader holds this error while expat reads the 800 elements after it
    ('<robot name="r"><link name="a"><inertial><bogus/></inertial></link>'
     + '<link name="b"/>' * 800 + "</robot>", UnknownElementError),
    ('<robot name="r"><link name="a"><inertial><bogus/></inertial></link>'
     + '<link name="b"/>' * 800 + "</robt>", XmlSyntaxError),
], ids=["ladder", "syntax-error", "unknown-element", "held-error", "held-then-syntax"])
def test_a_parse_leaves_no_cyclic_garbage(text, error):
    """Everything a parse builds is freed by reference counting alone, so
    the element tree does not wait for the cyclic collector."""
    gc.collect()
    gc.disable()
    try:
        assert _parse_outcome(text) is error
        assert gc.collect() == 0
    finally:
        gc.enable()
