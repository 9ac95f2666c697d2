"""Bidirectional mapping between URDF+ XML text and RobotModel.

Plain URDF parses unchanged.  Three extensions are understood on top of it:

* ``<loop>`` elements under ``<robot>`` describing loop-closing joints, with
  ``predecessor``/``successor`` children (each naming a link and optionally
  carrying an ``origin``) plus the usual ``type``/``axis``;
* ``<coupling>`` elements relating the summed positions of the two path
  subchains between ``predecessor`` and ``successor`` by a ``ratio``;
* an optional ``independent="true|false"`` attribute on ``<joint>`` marking
  which tree joints span the independent coordinates.

Visual, collision, and vendor extensions inside ``<link>``, the
limit/dynamics family inside ``<joint>``, and material/transmission/gazebo/
sensor elements under ``<robot>`` are preserved as verbatim text blobs and
written back untouched.  ``<mimic>`` children are translated into couplings
(zero offset only).  Every parse failure carries a line and column.

The reader streams: one expat pass checks ``<robot>`` at its start event and
interprets each child of ``<robot>`` at that child's end event, so only one
top-level element's subtree is alive at a time.  In that subtree an
_Element is made only for an element whose children an interpreter reads
and for a preserved element, which keeps the byte indices of its start and
end tags; a leaf an interpreter reads (origin, axis, mass, parent, ratio,
mimic, ...) is a _Leaf, its attribute dict with its position, and nothing
below a leaf or inside a preserved element is kept.  A syntax error
anywhere wins; otherwise the first interpretation error in document order
is raised once expat has read the whole document.  The interpreters build
the model's records positionally, their cheapest call.

The writer emits each element as one string.  One search over all the
names of a document looks for a character that needs escaping; only when
there is one are the names escaped, and a name that XML 1.0 cannot carry
(a C0 control other than tab, newline and carriage return, a surrogate,
U+FFFE or U+FFFF) is refused, so the text written always parses back.
"""

from __future__ import annotations

import math
import re
import xml.parsers.expat as expat
from collections import namedtuple
from dataclasses import dataclass, field, replace
from types import MappingProxyType

import numpy as np

from .errors import (
    InvalidNumberError,
    MissingAttributeError,
    UnknownElementError,
    UnknownJointTypeError,
    UnsupportedMimicOffsetError,
    UrdfPlusError,
    XmlSyntaxError,
)
from .model import Coupling, Inertial, Link, LoopJoint, RobotModel, TreeJoint, _record
from .spatial import (
    JointType,
    SpatialTransform,
    _rots_from_rpy,
    _rpy_from_rows,
    rot_from_rpy,
)

# The streaming reader's rules: by tag, what it keeps of each child of an
# element whose children an interpreter reads.  A nested rule keeps an
# _Element whose own children that rule reads; _LEAF keeps a _Leaf; a tag
# missing from the rule keeps an _Element whose descendants go unread (a
# preserved payload, or an unknown element for the child rule to report).
# A rule's tags are also the tags its element takes at most once.
_LEAF = "leaf"
_UNREAD = (None, None)  # the reader's frame for a leaf and for what goes unread
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
# what the child rule reads from an element without children, shared
_NO_CHILDREN = (MappingProxyType({}), ())


@_record
class ParseDiagnostic:
    severity: str  # "error" | "warning"
    line: int
    column: int
    message: str
    path: str = ""

    def __str__(self) -> str:
        loc = f"line {self.line}, column {self.column}"
        if self.path:
            loc += f" ({self.path})"
        return f"{self.severity}: {self.message} [{loc}]"


@dataclass
class ParseResult:
    model: RobotModel
    warnings: list[ParseDiagnostic] = field(default_factory=list)


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


# an element read for its attributes alone: a tuple, made without an
# __init__, that an interpreter reads as it reads an _Element
_Leaf = namedtuple("_Leaf", ("tag", "attrib", "line", "column"))


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

    def read_children(self, element: _Element, path: str, once, preserved=()):
        """The one child rule: a tag in `once` comes back by tag in a dict,
        a repeat of it an error; a tag in `preserved` (every other tag when
        it is None) adds its source text to the payload in document order;
        any other tag is an error.  Both errors sit at the child."""
        if not element.children:
            return _NO_CHILDREN
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

    # -- the read: <robot>, then each of its children, then the finish -----

    def start_robot(self, root: _Element):
        if root.tag != "robot":
            raise UnknownElementError(
                f"expected <robot> document element, got <{root.tag}>",
                root.line, root.column, "",
            )
        self.root = root
        if "name" not in root.attrib:
            self.warn(root, "<robot> has no name attribute", "robot")

    def interpret(self, child: _Element):
        tag = child.tag
        if tag == "link":
            self.links.append(self.parse_link(child))
        elif tag == "joint":
            joint, mimic = self.parse_joint(child)
            self.joints.append(joint)
            if mimic is not None:
                self.mimics.append(mimic)
        elif tag == "loop":
            self.loops.append(self.parse_loop(child))
        elif tag == "coupling":
            self.couplings.append(self.parse_coupling(child))
        elif tag in _ROBOT_PAYLOAD_TAGS:
            self.payload.append(self.raw(child))
        else:
            raise UnknownElementError(
                f"unknown element <{tag}> under <robot>",
                child.line, child.column, "robot",
            )

    def finish(self) -> RobotModel:
        root, couplings = self.root, self.couplings
        by_name = {j.name: j for j in self.joints}
        for follower, target, multiplier, element in self.mimics:
            if target not in by_name:
                raise UnknownElementError(
                    f"mimic references unknown joint {target!r}",
                    element.line, element.column,
                    f"robot/joint({follower})/mimic",
                )
            couplings.append(Coupling(f"{follower}_mimic", by_name[follower].child,
                                      by_name[target].child, multiplier))

        if not self.links:
            self.warn(root, "robot has no links", "robot")
        if self.origins:
            origins, rpys, xyzs = zip(*self.origins)
            for origin, rot, trans in zip(origins, _rots_from_rpy(rpys), np.array(xyzs)):
                origin.rot, origin.trans = rot, trans

        return RobotModel(
            name=root.attrib.get("name", "robot"),
            links=tuple(self.links),
            tree_joints=tuple(self.joints),
            loop_joints=tuple(self.loops),
            couplings=tuple(couplings),
            payload=tuple(self.payload),
        )

    def read(self, parser) -> RobotModel:
        """The one expat pass (see the module docstring).  Only start and end
        events are heard: `raw` finds an element's source from the byte
        indices of its start tag and its end event alone.  The first
        interpretation error stops the interpreting but not expat."""
        # a frame per open element: the rule for its children (None when
        # they go unread) and its _Element (None for <robot> and leaves)
        stack: list[tuple] = []
        push, pop = stack.append, stack.pop
        held = []  # the first interpretation error
        interpret, new_leaf = self.interpret, tuple.__new__

        def hold(error):
            # raised later without the handler's frame, from the interpreter's
            # frames on; `held` is emptied before the read ends, as those
            # frames hold it
            held.append(error.with_traceback(error.__traceback__.tb_next))
            parser.StartElementHandler = parser.EndElementHandler = None

        def on_robot(tag, attrs):
            parser.StartElementHandler, parser.EndElementHandler = on_start, on_end
            push((_ROBOT_RULE, None))
            try:
                self.start_robot(_Element(tag, attrs, parser.CurrentLineNumber,
                                          parser.CurrentColumnNumber + 1,
                                          parser.CurrentByteIndex))
            except UrdfPlusError as exc:
                hold(exc)

        def on_start(tag, attrs):
            rule, parent = stack[-1]
            if rule is None:  # below a leaf or an unread element
                push(_UNREAD)
                return
            kind = rule.get(tag)
            if kind is _LEAF:
                child = new_leaf(_Leaf, (tag, attrs, parser.CurrentLineNumber,
                                         parser.CurrentColumnNumber + 1))
                push(_UNREAD)
            else:
                child = _Element(tag, attrs, parser.CurrentLineNumber,
                                 parser.CurrentColumnNumber + 1, parser.CurrentByteIndex)
                push((kind, child))
            if parent is not None:
                if parent.children:
                    parent.children.append(child)
                else:
                    parent.children = [child]

        def on_end(_tag):
            rule, element = pop()
            if element is not None:  # else a leaf, an unread element or <robot> ends
                if rule is None:  # `raw` may read up to its end tag
                    element.close_byte = parser.CurrentByteIndex
                if len(stack) == 1:  # a child of <robot> ends
                    try:
                        interpret(element)
                    except UrdfPlusError as exc:
                        hold(exc)

        parser.StartElementHandler = on_robot
        try:
            parser.Parse(self.data, True)
        except expat.ExpatError as exc:
            held.clear()  # a syntax error wins
            raise XmlSyntaxError(
                expat.errors.messages[exc.code], exc.lineno, exc.offset + 1
            ) from exc
        finally:
            # the handlers hold the parser and the parser holds them: without
            # this the last subtree would live until the cyclic collector runs
            parser.StartElementHandler = parser.EndElementHandler = None
        if held:
            raise held.pop()  # from no local, so the raising frame keeps none
        return self.finish()


def parse_urdf_plus(text: str | bytes) -> ParseResult:
    """Parse URDF+ text into a RobotModel plus any warning diagnostics.

    Raises subclasses of UrdfXmlError (each with .line/.column) on malformed
    input.  Structural problems beyond the syntax level are left to
    model.validate_model so they can all be reported together.  A str is
    text already decoded, so the encoding its declaration names is ignored.
    """
    if isinstance(text, str):
        try:
            data, encoding = text.encode("utf-8"), "utf-8"
        except UnicodeEncodeError as exc:
            # located as expat locates a character: lines end at \n, \r\n or
            # \r, and columns count characters from 1
            before = text[: exc.start].replace("\r\n", "\n").replace("\r", "\n")
            raise XmlSyntaxError(
                f"lone surrogate U+{ord(text[exc.start]):04X} is not a character",
                before.count("\n") + 1, len(before) - before.rfind("\n"),
            ) from None
    else:
        data, encoding = bytes(text), None
    interpreter = _Interpreter(data)
    model = interpreter.read(expat.ParserCreate(encoding))
    return ParseResult(model, interpreter.warnings)


def parse_file(path) -> ParseResult:
    with open(path, "rb") as handle:
        return parse_urdf_plus(handle.read())


# -- serialization ----------------------------------------------------------


# What a name cannot hold as it is: the markup characters, and tab, newline
# and carriage return, written as character references (attribute-value
# normalization would read them back as spaces); the other C0 controls, the
# surrogates, U+FFFE and U+FFFF are not XML 1.0 characters at all.
_ATTR_ENTITIES = {"&": "&amp;", "<": "&lt;", '"': "&quot;",
                  "\t": "&#9;", "\n": "&#10;", "\r": "&#13;"}
_ATTR_SPECIAL = re.compile(r'[&<"\x00-\x1f\ud800-\udfff\ufffe\uffff]')
# the name fields of each record the writer emits, by RobotModel field
_NAME_FIELDS = (("links", "link", ("name",)),
                ("tree_joints", "joint", ("name", "parent", "child")),
                ("loop_joints", "loop", ("name", "predecessor", "successor")),
                ("couplings", "coupling", ("name", "predecessor", "successor")))
_TYPE_NAMES = {jt: jt.value for jt in JointType}
_IDENTITY_ROWS = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
# a payload blob's tag; its owner's reader reads a child of a tag in `once`
# itself, and keeps as payload a tag in `preserved` (any other tag if None)
_START_TAG = re.compile(r"<([^ \t\r\n/>]+)")
_PAYLOAD_RULES = {"link": (_LINK_RULE, None), "joint": (_JOINT_RULE, _JOINT_PAYLOAD_TAGS),
                  "robot": (_ROBOT_RULE, _ROBOT_PAYLOAD_TAGS)}


def _names(model: RobotModel) -> str:
    """Every name the writer emits, run together."""
    return "".join([model.name, *[getattr(record, key) for attr, _, keys in _NAME_FIELDS
                                  for record in getattr(model, attr) for key in keys]])


def _escaped(model: RobotModel) -> RobotModel:
    """The model with every name escaped for a double-quoted attribute; a
    character no XML 1.0 document can carry raises UrdfPlusError naming
    the element and the field, at the first such name in document order."""

    def escape(value: str, tag: str, name: str, key: str) -> str:
        def entity(match) -> str:
            if match[0] not in _ATTR_ENTITIES:
                raise UrdfPlusError(
                    f"cannot write <{tag}> {name!r}: its {key} holds "
                    f"U+{ord(match[0]):04X}, which XML 1.0 cannot carry")
            return _ATTR_ENTITIES[match[0]]

        return _ATTR_SPECIAL.sub(entity, value)

    changes = {"name": escape(model.name, "robot", model.name, "name")}
    for attr, tag, keys in _NAME_FIELDS:
        changes[attr] = tuple(
            replace(record, **{key: escape(getattr(record, key), tag, record.name, key)
                               for key in keys})
            for record in getattr(model, attr))
    return replace(model, **changes)


# a number goes out as the shortest decimal that reads back to the same
# float, `{float(x)!r}`; float() also turns a numpy scalar into a float
def _fmt_triple(values) -> str:
    x, y, z = values
    return f"{float(x)!r} {float(y)!r} {float(z)!r}"


def _origin_line(origin: SpatialTransform, indent: str) -> str:
    """The <origin> line of a pose, or "" for the identity."""
    trans, rot = origin.trans.tolist(), origin.rot.tolist()
    if trans == [0.0, 0.0, 0.0] and rot == _IDENTITY_ROWS:
        return ""
    return (f'{indent}<origin xyz="{_fmt_triple(trans)}" '
            f'rpy="{_fmt_triple(_rpy_from_rows(rot))}"/>\n')


def _axis_lines(joint) -> str:
    lines = ""
    if joint.axis is not None:
        lines = f'    <axis xyz="{_fmt_triple(joint.axis)}"/>\n'
    if joint.axis2 is not None:
        lines += f'    <axis2 xyz="{_fmt_triple(joint.axis2)}"/>\n'
    return lines


def _inertial_lines(inertial: Inertial) -> str:
    (ixx, ixy, ixz), (_, iyy, iyz), (_, _, izz) = inertial.inertia
    com = inertial.center_of_mass
    return ("    <inertial>\n"
            + (f'      <origin xyz="{_fmt_triple(com)}"/>\n' if any(com) else "")
            + f'      <mass value="{float(inertial.mass)!r}"/>\n'
            f'      <inertia ixx="{float(ixx)!r}" ixy="{float(ixy)!r}" ixz="{float(ixz)!r}" '
            f'iyy="{float(iyy)!r}" iyz="{float(iyz)!r}" izz="{float(izz)!r}"/>\n'
            "    </inertial>\n")


def _payload_lines(payload, indent: str, tag: str, name: str) -> str:
    """The blobs of a payload verbatim, one a line after `indent`.  A blob
    must be one well-formed element alone, as the reader reads it back:
    its start tag first, and no space, comment or instruction after its
    end; and its tag must be one that a <tag> element keeps as payload.
    Any other blob raises UrdfPlusError."""
    once, preserved = _PAYLOAD_RULES[tag]
    for index, blob in enumerate(payload):
        parser, ends = expat.ParserCreate("utf-8"), []  # end tags' names, None for a comment
        if blob.endswith("-->"):  # a comment's end, or an end tag such as </a-->
            parser.EndElementHandler = ends.append
            parser.CommentHandler = lambda _: ends.append(None)
        try:
            parser.Parse(data := blob.encode("utf-8"), True)
        except (UnicodeEncodeError, expat.ExpatError):
            data = b""
        if not (data[:1] == b"<" and data[1:2] not in b"!?" and data.endswith(b">")
                and not data.endswith(b"?>") and ends[-1:] != [None]):
            raise UrdfPlusError(f"cannot write <{tag}> {name!r}: its payload blob {index} "
                                "is not one well-formed element alone")
        child = _START_TAG.match(blob)[1]
        if child in once or not (preserved is None or child in preserved):
            raise UrdfPlusError(f"cannot write <{tag}> {name!r}: its payload blob {index} "
                                f"is a <{child}>, which <{tag}> does not keep as payload")
    return "".join([f"{indent}{blob}\n" for blob in payload])


def serialize_urdf_plus(model: RobotModel) -> str:
    """Canonical 2-space-indented serialization; parses back to a
    structurally equal model, one string per element.  A name holding a
    character XML 1.0 cannot carry (a C0 control but tab, newline and
    carriage return, a surrogate, U+FFFE or U+FFFF), or a payload blob that
    is not one well-formed element alone or that its owner would not read
    back as payload, raises UrdfPlusError."""
    # the payloads are checked before any name is escaped, so that an error
    # names its owner as the model holds it
    links = [_payload_lines(link.payload, "    ", "link", link.name) for link in model.links]
    joints = [_payload_lines(joint.payload, "    ", "joint", joint.name)
              for joint in model.tree_joints]
    robot = _payload_lines(model.payload, "  ", "robot", model.name)
    if _ATTR_SPECIAL.search(_names(model)) is not None:
        model = _escaped(model)
    out: list[str] = ['<?xml version="1.0"?>\n', f'<robot name="{model.name}">\n']
    for link, inner in zip(model.links, links):
        if link.inertial is not None:
            inner = _inertial_lines(link.inertial) + inner
        out.append(f'  <link name="{link.name}">\n{inner}  </link>\n' if inner
                   else f'  <link name="{link.name}"/>\n')

    for joint, payload in zip(model.tree_joints, joints):
        attrs = f'name="{joint.name}" type="{_TYPE_NAMES[joint.joint_type]}"'
        if joint.independent is not None:
            attrs += ' independent="true"' if joint.independent else ' independent="false"'
        out.append(
            f"  <joint {attrs}>\n"
            f'{_origin_line(joint.origin, "    ")}'
            f'    <parent link="{joint.parent}"/>\n'
            f'    <child link="{joint.child}"/>\n'
            f"{_axis_lines(joint)}{payload}  </joint>\n"
        )

    for loop in model.loop_joints:
        out.append(f'  <loop name="{loop.name}" type="{_TYPE_NAMES[loop.joint_type]}">\n')
        for tag, link_name, origin in (
            ("predecessor", loop.predecessor, loop.predecessor_origin),
            ("successor", loop.successor, loop.successor_origin),
        ):
            origin_line = _origin_line(origin, "      ")
            out.append(f'    <{tag} name="{link_name}">\n{origin_line}    </{tag}>\n'
                       if origin_line else f'    <{tag} name="{link_name}"/>\n')
        out.append(f"{_axis_lines(loop)}  </loop>\n")

    for coupling in model.couplings:
        out.append(
            f'  <coupling name="{coupling.name}">\n'
            f'    <predecessor name="{coupling.predecessor}"/>\n'
            f'    <successor name="{coupling.successor}"/>\n'
            f'    <ratio value="{float(coupling.ratio)!r}"/>\n'
            "  </coupling>\n"
        )

    out.append(robot)
    out.append("</robot>\n")
    return "".join(out)
