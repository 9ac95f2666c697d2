"""Differential test of the streaming URDF+ reader.

The oracle below is the earlier two-pass reader, copied verbatim: the
expat pass that built a positioned element tree of the whole document
(`_build_tree`), the walk that interpreted it (`interpret`) and the child
rule as it was then (`read_children`).  The element interpreters it calls
(`parse_link`, `parse_joint`, ...), their helpers, the element record and
the reader's rule tables are its own copies too, verbatim from the reader
as it stood before its nodes became plain tuples and lists, so the oracle
runs none of the code it checks.  The streaming reader must give the
oracle's outcome -- the model's repr and the warnings, or the error's
type, message, line, column and path -- on every `models/` file, on three
generated ladders and on seeded mutants of both.  Targeted cases pin the
order in which errors win.
"""

from __future__ import annotations

import importlib.util
import math
import random
import re
import sys
import xml.parsers.expat as expat
from pathlib import Path

import numpy as np
import pytest

from test_mutation_fuzz import MODELS, mutate
from urdfplus.errors import (
    InvalidNumberError,
    MissingAttributeError,
    UnknownElementError,
    UnknownJointTypeError,
    UnsupportedMimicOffsetError,
    XmlSyntaxError,
)
from urdfplus.model import Coupling, Inertial, Link, LoopJoint, RobotModel, TreeJoint
from urdfplus.spatial import JointType, SpatialTransform, _rots_from_rpy, rot_from_rpy
from urdfplus.xmlio import ParseDiagnostic, ParseResult, parse_urdf_plus

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = 3000
SEED = 13013

# -- oracle ----------------------------------------------------------------------

# What follows down to `_build_tree` is every reader piece the oracle calls,
# copied verbatim from the reader as it stood before its nodes became plain
# tuples and lists.

# The streaming reader's rules: by tag, what it keeps of each child of an
# element whose children an interpreter reads.  A nested rule keeps an
# _Element whose own children that rule reads; _LEAF keeps a _Leaf; a tag
# missing from the rule keeps an _Element whose descendants go unread (a
# preserved payload, or an unknown element for the child rule to report).
# A rule's tags are also the tags its element takes at most once.
_LEAF = "leaf"
_INERTIAL_RULE = dict.fromkeys(("origin", "mass", "inertia"), _LEAF)
_JOINT_RULE = dict.fromkeys(("origin", "parent", "child", "axis", "axis2", "mimic"), _LEAF)
_LOOP_END_RULE = {"origin": _LEAF}
_LOOP_RULE = {"predecessor": _LOOP_END_RULE, "successor": _LOOP_END_RULE,
              "axis": _LEAF, "axis2": _LEAF}
_COUPLING_RULE = dict.fromkeys(("predecessor", "successor", "ratio"), _LEAF)
_LINK_RULE = {"inertial": _INERTIAL_RULE}
_ROBOT_RULE = {"link": _LINK_RULE, "joint": _JOINT_RULE, "loop": _LOOP_RULE,
               "coupling": _COUPLING_RULE}
# the children a <joint> preserves verbatim (semantics out of scope, kept
# for round-trip), and the robot children preserved verbatim
_JOINT_PAYLOAD_TAGS = {"limit", "dynamics", "calibration", "safety_controller"}
_ROBOT_PAYLOAD_TAGS = {"material", "transmission", "gazebo", "sensor"}
_JOINT_TYPES = {jt.value: jt for jt in JointType}


class _Element:
    __slots__ = ("tag", "attrib", "children", "line", "column",
                 "start_byte", "close_byte")  # close_byte: set at the end event

    def __init__(self, tag, attrib, line, column, start_byte):
        self.tag = tag
        self.attrib = attrib
        self.children: list[_Element | _Leaf] | tuple = ()  # a list from the first child on
        self.line = line
        self.column = column
        self.start_byte = start_byte  # the '<' of the start tag


_TAG = re.compile(rb"""[^"'>]*(?:(?:"[^"]*"|'[^']*')[^"'>]*)*>""")


def _plain_number(text: str) -> bool:
    """Whether a number's text is ASCII without '_', as URDF's C/C++ parsers
    read it, where float() also takes '_' between digits and non-ASCII
    digits and spaces."""
    return text.isascii() and "_" not in text


def _scan_tag_end(data: bytes, start: int) -> int:
    """Index just past the '>' closing the tag that starts at `start`,
    ignoring '>' inside quoted attribute values."""
    match = _TAG.match(data, start)
    return match.end() if match else len(data)


class _Interpreter:
    """Reads a document into a RobotModel in one expat pass, one child of
    <robot> at a time."""

    def __init__(self, data: bytes):
        self.data = data
        self.warnings: list[ParseDiagnostic] = []
        self.counters = {"joint": 0, "loop": 0, "coupling": 0}
        # each <origin>'s transform with its rpy and xyz: one stacked product
        # at the end of the read gives all their rotations, so no origin
        # costs numpy calls of its own
        self.origins: list[tuple[SpatialTransform, tuple, tuple]] = []
        self.root: _Element | None = None
        self.links: list[Link] = []
        self.joints: list[TreeJoint] = []
        self.loops: list[LoopJoint] = []
        self.couplings: list[Coupling] = []
        self.payload: list[str] = []
        self.mimics: list[tuple] = []

    def warn(self, element: _Element, message: str, path: str = ""):
        self.warnings.append(
            ParseDiagnostic("warning", element.line, element.column, message, path)
        )

    def raw(self, element: _Element) -> str:
        """Source text of a preserved element, its extent taken from the XML
        grammar: no STag has '/' before its '>', so a tag ending in '/>' is
        a whole empty element, and any other element ends at the '>' after
        the '</' that expat reported at its end event."""
        data, start = self.data, element.start_byte
        if data.startswith(b"&", start):  # elements from an entity sit at its '&'
            msg = f"preserved <{element.tag}> comes from an entity reference"
            raise XmlSyntaxError(msg, element.line, element.column)
        end = _scan_tag_end(data, start)
        if not data.endswith(b"/>", start, end):
            end = _scan_tag_end(data, element.close_byte)
        source = data[start:end]
        # expat admits no NUL in an ASCII-compatible encoding: one means UTF-16
        if b"\0" not in source:
            try:
                return source.decode("utf-8")
            except UnicodeDecodeError:
                pass
        raise XmlSyntaxError(
            f"preserved <{element.tag}> is not UTF-8", element.line, element.column
        )

    # -- attribute and numeric helpers ------------------------------------

    def require_attr(self, element: _Element, attr: str, path: str) -> str:
        value = element.attrib.get(attr)
        if value is None:
            raise MissingAttributeError(
                f"<{element.tag}> requires attribute {attr!r}",
                element.line, element.column, path,
            )
        return value

    def parse_float(self, text: str, element: _Element, path: str) -> float:
        try:
            if not _plain_number(text):
                raise ValueError
            value = float(text)
        except ValueError:
            raise InvalidNumberError(
                f"invalid number {text!r}", element.line, element.column, path
            ) from None
        if not math.isfinite(value):
            raise InvalidNumberError(
                f"non-finite number {text!r}", element.line, element.column, path
            )
        return value

    def parse_triple(self, text: str, element: _Element, path: str):
        try:
            x, y, z = map(float, text.split())
        except ValueError:  # not three numbers
            pass
        else:
            if math.isfinite(x + y + z) and _plain_number(text):  # finite, plain numbers
                return x, y, z
        parts = text.split()
        if len(parts) != 3:
            raise InvalidNumberError(
                f"expected 3 numbers, got {len(parts)} in {text!r}",
                element.line, element.column, path,
            )
        # raises, naming the first part that is not a finite number (the
        # whole text if any of it is not ASCII), unless only the sum overflowed
        return tuple([self.parse_float(p if text.isascii() else text, element, path)
                      for p in parts])

    def parse_bool(self, text: str, element: _Element, path: str) -> bool:
        if text == "true":
            return True
        if text == "false":
            return False
        raise InvalidNumberError(
            f"expected 'true' or 'false', got {text!r}",
            element.line, element.column, path,
        )

    def auto_name(self, element: _Element, kind: str, path: str) -> str:
        name = element.attrib.get("name")
        if name:
            return name
        generated = f"{kind}_{self.counters[kind]}"
        self.warn(element, f"unnamed <{element.tag}> assigned name {generated!r}", path)
        return generated

    # -- shared sub-elements ----------------------------------------------

    def parse_origin(self, element: _Element | None, path: str) -> SpatialTransform:
        """The pose an <origin> states (the identity when there is none);
        interpret sets its rot and trans once the document is read."""
        if element is None:
            return SpatialTransform.identity()
        attrib = element.attrib
        xyz = rpy = (0.0, 0.0, 0.0)
        if "xyz" in attrib:
            xyz = self.parse_triple(attrib["xyz"], element, path)
        if "rpy" in attrib:
            rpy = self.parse_triple(attrib["rpy"], element, path)
        origin = SpatialTransform._raw(None, None)
        self.origins.append((origin, rpy, xyz))
        return origin

    def parse_axis(self, element: _Element, path: str):
        """Unit direction from an <axis>/<axis2> element; nonzero vectors
        are normalized, matching common URDF tooling."""
        xyz = element.attrib.get("xyz", "1 0 0")
        x, y, z = self.parse_triple(xyz, element, path)
        norm = math.sqrt(sum([x * x, y * y, z * z]))
        if not math.isfinite(norm):  # the squares overflow: scale down first
            scale = max(abs(x), abs(y), abs(z))
            x, y, z = x / scale, y / scale, z / scale
            norm = math.sqrt(sum([x * x, y * y, z * z]))
        if norm < 1e-12:
            raise InvalidNumberError(
                f"axis {xyz!r} has zero length", element.line, element.column, path
            )
        return x / norm, y / norm, z / norm

    def joint_axes(self, element: _Element, jtype: JointType, found: dict, path: str):
        """The (axis, axis2) a <joint> or <loop> of type jtype keeps from its
        children `found` by tag: the URDF default axis if it needs one, and
        no axis it takes none of (dropped with a warning)."""
        axis, axis2 = found.get("axis"), found.get("axis2")
        if axis is not None:
            axis = self.parse_axis(axis, f"{path}/axis")
        if axis2 is not None:
            axis2 = self.parse_axis(axis2, f"{path}/axis2")
        requires_axis = jtype.requires_axis
        if requires_axis and axis is None:
            axis = (1.0, 0.0, 0.0)
        if not requires_axis and axis is not None:
            self.warn(element, f"axis ignored on {jtype.value} joint", path)
            axis = None
        if axis2 is not None and jtype is not JointType.UNIVERSAL:
            self.warn(element, f"axis2 ignored on {jtype.value} joint", path)
            axis2 = None
        return axis, axis2

    def parse_link_ref(self, element: _Element, path: str) -> str:
        # standard URDF spells it link="..."; the loop/coupling templates and
        # some writers use name="..." -- accept both
        value = element.attrib.get("link", element.attrib.get("name"))
        if value is None:
            raise MissingAttributeError(
                f"<{element.tag}> requires attribute 'link' (or 'name')",
                element.line, element.column, path,
            )
        return value

    def joint_type(self, element: _Element, path: str) -> JointType:
        text = self.require_attr(element, "type", path)
        if text == "planar":
            raise UnknownJointTypeError(
                "joint type 'planar' is not supported; model it with two "
                "prismatic joints and a continuous joint",
                element.line, element.column, path,
            )
        jtype = _JOINT_TYPES.get(text)
        if jtype is None:
            raise UnknownJointTypeError(
                f"unknown joint type {text!r}", element.line, element.column, path
            )
        return jtype


    # -- element interpreters ----------------------------------------------

    def parse_link(self, element: _Element) -> Link:
        name = self.require_attr(element, "name", "robot/link")
        path = f"robot/link({name})"
        found, payload = self.read_children(element, path, _LINK_RULE, preserved=None)
        inertial = found.get("inertial")
        if inertial is not None:
            inertial = self.parse_inertial(inertial, f"{path}/inertial")
        return Link(name, inertial, payload)

    def parse_inertial(self, element: _Element, path: str) -> Inertial:
        found, _ = self.read_children(element, path, _INERTIAL_RULE)
        mass = 0.0
        mass_el = found.get("mass")
        if mass_el is not None:
            mass = self.parse_float(
                self.require_attr(mass_el, "value", path), mass_el, path
            )
        com = (0.0, 0.0, 0.0)
        rot = None
        origin_el = found.get("origin")
        if origin_el is not None:
            if "xyz" in origin_el.attrib:
                com = self.parse_triple(origin_el.attrib["xyz"], origin_el, path)
            if "rpy" in origin_el.attrib:
                rpy = self.parse_triple(origin_el.attrib["rpy"], origin_el, path)
                if any(rpy):
                    rot = rot_from_rpy(*rpy)
        inertia = ((0.0,) * 3,) * 3
        inertia_el = found.get("inertia")
        if inertia_el is not None:
            attrib, keys = inertia_el.attrib, ("ixx", "ixy", "ixz", "iyy", "iyz", "izz")
            try:
                values = [float(attrib[key]) for key in keys]
                finite = math.isfinite(sum(values)) and _plain_number("".join(attrib.values()))
            except (KeyError, ValueError):  # missing or not a number
                finite = False
            if not finite:
                # raises at the first missing, non-finite or not plain value,
                # unless only the sum overflowed
                values = [self.parse_float(self.require_attr(inertia_el, key, path),
                                           inertia_el, path) for key in keys]
            ixx, ixy, ixz, iyy, iyz, izz = values
            inertia = ((ixx, ixy, ixz), (ixy, iyy, iyz), (ixz, iyz, izz))
        if rot is not None:
            # re-express the inertia tensor in the link frame
            m = rot @ [list(row) for row in inertia] @ rot.T
            inertia = tuple(tuple(float(x) for x in row) for row in m)
        return Inertial(mass, com, inertia)

    def parse_joint(self, element: _Element):
        """Returns (TreeJoint, mimic | None); mimic resolution happens after
        every joint is known."""
        self.counters["joint"] += 1
        name = self.auto_name(element, "joint", "robot/joint")
        path = f"robot/joint({name})"
        jtype = self.joint_type(element, path)
        independent = None
        if "independent" in element.attrib:
            independent = self.parse_bool(
                element.attrib["independent"], element, path
            )
        found, payload = self.read_children(element, path, _JOINT_RULE,
                                            _JOINT_PAYLOAD_TAGS)
        if "parent" not in found or "child" not in found:
            raise MissingAttributeError(
                "<joint> requires <parent> and <child> elements",
                element.line, element.column, path,
            )
        origin = self.parse_origin(found.get("origin"), f"{path}/origin")
        parent = self.parse_link_ref(found["parent"], f"{path}/parent")
        child = self.parse_link_ref(found["child"], f"{path}/child")
        axis, axis2 = self.joint_axes(element, jtype, found, path)
        mimic = found.get("mimic")
        if mimic is not None:
            mimic = self.parse_mimic(mimic, name, f"{path}/mimic")
        return TreeJoint(name, jtype, parent, child, origin, axis, axis2, independent,
                         payload), mimic

    def parse_mimic(self, element: _Element, follower: str, path: str):
        target = self.require_attr(element, "joint", path)
        multiplier = 1.0
        offset = 0.0
        if "multiplier" in element.attrib:
            multiplier = self.parse_float(element.attrib["multiplier"], element, path)
        if "offset" in element.attrib:
            offset = self.parse_float(element.attrib["offset"], element, path)
        if offset != 0.0:
            raise UnsupportedMimicOffsetError(
                f"mimic with nonzero offset {offset} cannot be expressed as a "
                "coupling", element.line, element.column, path,
            )
        return (follower, target, multiplier, element)

    def parse_loop(self, element: _Element) -> LoopJoint:
        self.counters["loop"] += 1
        name = self.auto_name(element, "loop", "robot/loop")
        path = f"robot/loop({name})"
        jtype = self.joint_type(element, path)
        found, _ = self.read_children(element, path, _LOOP_RULE)
        links, origins = [], []  # of the predecessor, then the successor
        for tag in ("predecessor", "successor"):
            if tag not in found:
                raise MissingAttributeError(
                    f"<loop> requires a <{tag}> element",
                    element.line, element.column, path,
                )
            end, end_path = found[tag], f"{path}/{tag}"
            origin = self.read_children(end, end_path, _LOOP_END_RULE)[0].get("origin")
            links.append(self.parse_link_ref(end, end_path))
            origins.append(self.parse_origin(origin, end_path))
        axis, axis2 = self.joint_axes(element, jtype, found, path)
        return LoopJoint(name, jtype, *links, *origins, axis, axis2)

    def parse_coupling(self, element: _Element) -> Coupling:
        self.counters["coupling"] += 1
        name = self.auto_name(element, "coupling", "robot/coupling")
        path = f"robot/coupling({name})"
        found, _ = self.read_children(element, path, _COUPLING_RULE)
        if "predecessor" not in found or "successor" not in found:
            raise MissingAttributeError(
                "<coupling> requires <predecessor> and <successor> elements",
                element.line, element.column, path,
            )
        if "ratio" not in found:
            raise MissingAttributeError(
                "<coupling> requires a <ratio> element with a 'value' attribute",
                element.line, element.column, path,
            )
        ratio_el = found["ratio"]
        return Coupling(
            name,
            self.parse_link_ref(found["predecessor"], f"{path}/predecessor"),
            self.parse_link_ref(found["successor"], f"{path}/successor"),
            self.parse_float(self.require_attr(ratio_el, "value", f"{path}/ratio"),
                             ratio_el, f"{path}/ratio"),
        )


def _build_tree(data: bytes) -> _Element:
    """Parse bytes into a positioned element tree (expat-based).  Only start
    and end events are heard: `_Interpreter.raw` finds an element's source
    from the byte indices of its start tag and its end event alone."""
    parser = expat.ParserCreate()
    document = _Element("", {}, 0, 0, 0)  # its one child is the document element
    stack = [document]
    push, pop = stack.append, stack.pop

    def on_start(tag, attrs):
        element = _Element(tag, attrs, parser.CurrentLineNumber,
                           parser.CurrentColumnNumber + 1, parser.CurrentByteIndex)
        parent = stack[-1]
        if parent.children:
            parent.children.append(element)
        else:
            parent.children = [element]
        push(element)

    def on_end(_tag):
        pop().close_byte = parser.CurrentByteIndex

    parser.StartElementHandler = on_start
    parser.EndElementHandler = on_end
    try:
        parser.Parse(data, True)
    except expat.ExpatError as exc:
        raise XmlSyntaxError(
            expat.errors.messages[exc.code], exc.lineno, exc.offset + 1
        ) from exc
    finally:
        # the handlers hold the parser and the parser holds them: without
        # this the element tree would live until the cyclic collector runs
        parser.StartElementHandler = parser.EndElementHandler = None
    return document.children[0]


class _OracleInterpreter(_Interpreter):
    def read_children(self, element: _Element, path: str, once, preserved=()):
        """The one child rule: a tag in `once` comes back by tag in a dict,
        a repeat of it an error; a tag in `preserved` (every other tag when
        it is None) adds its source text to the payload in document order;
        any other tag is an error.  Both errors sit at the child."""
        found, payload = {}, []
        for child in element.children:
            tag = child.tag
            if tag in once:
                if tag in found:
                    raise UnknownElementError(
                        f"repeated <{tag}> inside <{element.tag}>",
                        child.line, child.column, path,
                    )
                found[tag] = child
            elif preserved is None or tag in preserved:
                payload.append(self.raw(child))
            else:
                raise UnknownElementError(
                    f"unknown element <{tag}> inside <{element.tag}>",
                    child.line, child.column, path,
                )
        return found, tuple(payload)

    def interpret(self, root: _Element) -> RobotModel:
        if root.tag != "robot":
            raise UnknownElementError(
                f"expected <robot> document element, got <{root.tag}>",
                root.line, root.column, "",
            )
        name = root.attrib.get("name")
        if name is None:
            self.warn(root, "<robot> has no name attribute", "robot")
            name = "robot"

        links: list[Link] = []
        joints: list[TreeJoint] = []
        loops: list[LoopJoint] = []
        couplings: list[Coupling] = []
        payload: list[str] = []
        mimics = []
        for child in root.children:
            if child.tag == "link":
                links.append(self.parse_link(child))
            elif child.tag == "joint":
                joint, mimic = self.parse_joint(child)
                joints.append(joint)
                if mimic is not None:
                    mimics.append(mimic)
            elif child.tag == "loop":
                loops.append(self.parse_loop(child))
            elif child.tag == "coupling":
                couplings.append(self.parse_coupling(child))
            elif child.tag in _ROBOT_PAYLOAD_TAGS:
                payload.append(self.raw(child))
            else:
                raise UnknownElementError(
                    f"unknown element <{child.tag}> under <robot>",
                    child.line, child.column, "robot",
                )

        by_name = {j.name: j for j in joints}
        for follower, target, multiplier, element in mimics:
            if target not in by_name:
                raise UnknownElementError(
                    f"mimic references unknown joint {target!r}",
                    element.line, element.column,
                    f"robot/joint({follower})/mimic",
                )
            couplings.append(
                Coupling(
                    name=f"{follower}_mimic",
                    predecessor=by_name[follower].child,
                    successor=by_name[target].child,
                    ratio=multiplier,
                )
            )

        if not links:
            self.warn(root, "robot has no links", "robot")
        if self.origins:
            origins, rpys, xyzs = zip(*self.origins)
            for origin, rot, trans in zip(origins, _rots_from_rpy(rpys), np.array(xyzs)):
                origin.rot, origin.trans = rot, trans

        return RobotModel(
            name=name,
            links=tuple(links),
            tree_joints=tuple(joints),
            loop_joints=tuple(loops),
            couplings=tuple(couplings),
            payload=tuple(payload),
        )


def oracle_parse(data: bytes) -> ParseResult:
    interpreter = _OracleInterpreter(data)
    model = interpreter.interpret(_build_tree(data))
    return ParseResult(model, interpreter.warnings)


# -- comparison ------------------------------------------------------------------


def outcome(parse, data: bytes):
    """What a reader makes of `data`: the model's repr and the warnings, or
    the error's type and, for a located error, its message and location."""
    try:
        result = parse(data)
    except Exception as exc:  # any error, so that a new error type shows too
        return (type(exc), getattr(exc, "message", str(exc)), getattr(exc, "line", None),
                getattr(exc, "column", None), getattr(exc, "path", None))
    return repr(result.model), result.warnings


def assert_same_outcome(data: bytes):
    expected = outcome(oracle_parse, data)
    assert outcome(parse_urdf_plus, data) == expected, data
    return expected


def _load_generator():
    """perfbench/generator.py, under a name of its own."""
    name = "perfbench_generator"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "generator.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


# generated ladders, 10% loop joints, with couplings, mimics and payloads
LADDERS = {f"ladder{n}": _load_generator().generate(13 + n, n, n // 10, name="ladder").text
           for n in (10, 100, 800)}


@pytest.mark.parametrize("path", MODELS, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_models_read_as_the_oracle_reads_them(path):
    assert_same_outcome(path.read_bytes())


@pytest.mark.parametrize("name", sorted(LADDERS))
def test_generated_ladders_read_as_the_oracle_reads_them(name):
    model, warnings = assert_same_outcome(LADDERS[name])
    assert model.startswith("RobotModel(") and warnings == []


def test_mutants_read_as_the_oracle_reads_them():
    """Mutants of every models/ file and of the smallest generated ladder,
    whose many top-level children leave room for an interpretation error
    before a syntax error or a second interpretation error."""
    rng = random.Random(SEED)
    sources = [path.read_bytes() for path in MODELS] + [LADDERS["ladder10"]] * 2
    firsts = set()  # an error's type, or a parsed model's repr
    for _ in range(MUTANTS):
        firsts.add(assert_same_outcome(mutate(rng, rng.choice(sources)))[0])
    # the mutants reach the interpreter, not only expat, and some parse
    assert {XmlSyntaxError, InvalidNumberError, UnknownElementError} <= firsts
    assert any(isinstance(first, str) for first in firsts)


# -- which error wins --------------------------------------------------------------

_TAIL = '<link name="z"/>' * 20


@pytest.mark.parametrize("text, error, line, column", [
    # an early unknown element, then a syntax error: the syntax error wins
    ('<robot name="r">\n<bogus/>\n' + _TAIL + '\n<link name="a">\n</robot>',
     XmlSyntaxError, 5, 3),
    # two interpretation errors: the first in document order wins
    ('<robot name="r">\n<link name="a"><inertial><mass value="x"/></inertial></link>\n'
     + _TAIL + '\n<joint name="j" type="planar"/>\n</robot>',
     InvalidNumberError, 2, 26),
    # a document element other than <robot>, then a syntax error
    ('<robt name="r">\n' + _TAIL + '\n<link name="a">\n</robt>', XmlSyntaxError, 4, 3),
    ('<robt name="r">\n' + _TAIL + '\n</robt>', UnknownElementError, 1, 1),
    # a mimic of an unknown joint is resolved once every joint is read
    ('<robot name="r">\n<link name="a"/><link name="b"/>\n<joint name="j" type="revolute">'
     '<parent link="a"/><child link="b"/><mimic joint="k"/></joint>\n</robot>',
     UnknownElementError, 3, 68),
    # ... so an interpretation error after it wins over it
    ('<robot name="r">\n<link name="a"/><link name="b"/>\n<joint name="j" type="revolute">'
     '<parent link="a"/><child link="b"/><mimic joint="k"/></joint>\n'
     '<joint name="k" type="bogus"/>\n</robot>',
     UnknownJointTypeError, 4, 1),
], ids=["syntax-after-unknown", "first-of-two", "not-robot-then-syntax", "not-robot",
        "mimic-of-unknown-joint", "error-after-bad-mimic"])
def test_which_error_wins(text, error, line, column):
    kind, _, at_line, at_column, _ = assert_same_outcome(text.encode())
    assert (kind, at_line, at_column) == (error, line, column)


def test_warnings_keep_document_order():
    text = (
        '<robot>\n'
        '<joint type="fixed"><parent link="a"/><child link="b"/>'
        '<axis xyz="0 0 1"/></joint>\n'
        '<loop type="revolute"><predecessor name="a"/><successor name="b"/>'
        '<axis2 xyz="0 1 0"/></loop>\n'
        '<coupling><predecessor name="a"/><successor name="b"/><ratio value="2"/></coupling>\n'
        '</robot>'
    )
    _, warnings = assert_same_outcome(text.encode())
    assert [(w.line, w.message) for w in warnings] == [
        (1, "<robot> has no name attribute"),
        (2, "unnamed <joint> assigned name 'joint_1'"),
        (2, "axis ignored on fixed joint"),
        (3, "unnamed <loop> assigned name 'loop_1'"),
        (3, "axis2 ignored on revolute joint"),
        (4, "unnamed <coupling> assigned name 'coupling_1'"),
        (1, "robot has no links"),
    ]


def _joint(attributes: str, *children: str) -> bytes:
    """A document whose <joint> sits at line 3 with `attributes`, each of
    its children on a line of its own from line 4 on."""
    return ('<robot name="r">\n<link name="a"/><link name="b"/>\n'
            f'<joint name="j" {attributes}>\n' + "".join(f"{c}\n" for c in children)
            + "</joint>\n</robot>").encode()


@pytest.mark.parametrize("data, expected", [
    # the joint's own attributes are read before its children
    (_joint('type="bogus"', "<origin/>", "<origin/>", '<parent link="a"/>', '<child link="b"/>'),
     (UnknownJointTypeError, "unknown joint type 'bogus'", 3, 1, "robot/joint(j)")),
    # among the children, the first error in document order
    (_joint('type="fixed"', '<parent link="a"/>', '<parent link="a"/>', "<foo/>",
            '<child link="b"/>'),
     (UnknownElementError, "repeated <parent> inside <joint>", 5, 1, "robot/joint(j)")),
    (_joint('type="fixed"', '<parent link="a"/>', "<foo/>", '<parent link="a"/>',
            '<child link="b"/>'),
     (UnknownElementError, "unknown element <foo> inside <joint>", 5, 1, "robot/joint(j)")),
    (_joint('type="fixed" independent="maybe"', "<foo/>", '<parent link="a"/>',
            '<child link="b"/>'),
     (InvalidNumberError, "expected 'true' or 'false', got 'maybe'", 3, 1, "robot/joint(j)")),
    # the child rule runs before any child taken once is read
    (_joint('type="fixed"', '<origin xyz="1 x 0"/>', '<parent link="a"/>', '<child link="b"/>',
            "<foo/>"),
     (UnknownElementError, "unknown element <foo> inside <joint>", 7, 1, "robot/joint(j)")),
], ids=["type-before-repeat", "repeat-before-unknown", "unknown-before-repeat",
        "independent-before-unknown", "unknown-before-bad-number"])
def test_which_joint_error_wins(data, expected):
    assert assert_same_outcome(data) == expected
