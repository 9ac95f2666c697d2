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
top-level element's subtree is alive at a time.  A syntax error anywhere
wins; otherwise the first interpretation error in document order is raised
once expat has read the whole document.
"""

from __future__ import annotations

import math
import re
import xml.parsers.expat as expat
from dataclasses import dataclass, field
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
from .model import Coupling, Inertial, Link, LoopJoint, RobotModel, TreeJoint
from .spatial import (
    JointType,
    SpatialTransform,
    _rots_from_rpy,
    rot_from_rpy,
    rpy_from_rot,
)

# the children a <joint> or <loop> takes at most once, and those a <joint>
# preserves verbatim (semantics out of scope, kept for round-trip)
_JOINT_ONCE_TAGS = {"origin", "parent", "child", "axis", "axis2", "mimic"}
_LOOP_ONCE_TAGS = {"predecessor", "successor", "axis", "axis2"}
_JOINT_PAYLOAD_TAGS = {"limit", "dynamics", "calibration", "safety_controller"}
# robot children preserved verbatim
_ROBOT_PAYLOAD_TAGS = {"material", "transmission", "gazebo", "sensor"}
_JOINT_TYPES = {jt.value: jt for jt in JointType}
# what the child rule reads from an element without children, shared
_NO_CHILDREN = (MappingProxyType({}), ())


@dataclass(frozen=True)
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
        self.children: list[_Element] | tuple = ()  # a list from the first child on
        self.line = line
        self.column = column
        self.start_byte = start_byte  # the '<' of the start tag


_TAG = re.compile(rb"""[^"'>]*(?:(?:"[^"]*"|'[^']*')[^"'>]*)*>""")


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
        if data[start : start + 1] == b"&":  # elements from an entity sit at its '&'
            msg = f"preserved <{element.tag}> comes from an entity reference"
            raise XmlSyntaxError(msg, element.line, element.column)
        end = _scan_tag_end(data, start)
        if data[end - 2 : end] != b"/>":
            end = _scan_tag_end(data, element.close_byte)
        # expat admits no NUL in an ASCII-compatible encoding: one means UTF-16
        if b"\0" not in data[start:end]:
            try:
                return data[start:end].decode("utf-8")
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
        parts = text.split()
        if len(parts) != 3:
            raise InvalidNumberError(
                f"expected 3 numbers, got {len(parts)} in {text!r}",
                element.line, element.column, path,
            )
        try:
            x, y, z = map(float, parts)
        except ValueError:
            pass
        else:
            if math.isfinite(x) and math.isfinite(y) and math.isfinite(z):
                return x, y, z
        # raises, naming the first part that is not a finite number
        return tuple([self.parse_float(p, element, path) for p in parts])

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
        found, payload = self.read_children(element, path, ("inertial",), preserved=None)
        inertial = found.get("inertial")
        if inertial is not None:
            inertial = self.parse_inertial(inertial, f"{path}/inertial")
        return Link(name=name, inertial=inertial, payload=payload)

    def parse_inertial(self, element: _Element, path: str) -> Inertial:
        found, _ = self.read_children(element, path, ("origin", "mass", "inertia"))
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
            ixx, ixy, ixz, iyy, iyz, izz = [
                self.parse_float(self.require_attr(inertia_el, key, path), inertia_el, path)
                for key in ("ixx", "ixy", "ixz", "iyy", "iyz", "izz")
            ]
            inertia = ((ixx, ixy, ixz), (ixy, iyy, iyz), (ixz, iyz, izz))
        if rot is not None:
            # re-express the inertia tensor in the link frame
            m = rot @ [list(row) for row in inertia] @ rot.T
            inertia = tuple(tuple(float(x) for x in row) for row in m)
        return Inertial(mass=mass, center_of_mass=com, inertia=inertia)

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
        found, payload = self.read_children(element, path, _JOINT_ONCE_TAGS,
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
        joint = TreeJoint(
            name=name,
            joint_type=jtype,
            parent=parent,
            child=child,
            origin=origin,
            axis=axis,
            axis2=axis2,
            independent=independent,
            payload=payload,
        )
        return joint, mimic

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
        found, _ = self.read_children(element, path, _LOOP_ONCE_TAGS)
        links, origins = [], []  # of the predecessor, then the successor
        for tag in ("predecessor", "successor"):
            if tag not in found:
                raise MissingAttributeError(
                    f"<loop> requires a <{tag}> element",
                    element.line, element.column, path,
                )
            end, end_path = found[tag], f"{path}/{tag}"
            origin = self.read_children(end, end_path, ("origin",))[0].get("origin")
            links.append(self.parse_link_ref(end, end_path))
            origins.append(self.parse_origin(origin, end_path))
        axis, axis2 = self.joint_axes(element, jtype, found, path)
        return LoopJoint(name, jtype, *links, *origins, axis=axis, axis2=axis2)

    def parse_coupling(self, element: _Element) -> Coupling:
        self.counters["coupling"] += 1
        name = self.auto_name(element, "coupling", "robot/coupling")
        path = f"robot/coupling({name})"
        found, _ = self.read_children(element, path, ("predecessor", "successor", "ratio"))
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
            name=name,
            predecessor=self.parse_link_ref(found["predecessor"], f"{path}/predecessor"),
            successor=self.parse_link_ref(found["successor"], f"{path}/successor"),
            ratio=self.parse_float(
                self.require_attr(ratio_el, "value", f"{path}/ratio"),
                ratio_el, f"{path}/ratio",
            ),
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
            couplings.append(
                Coupling(
                    name=f"{follower}_mimic",
                    predecessor=by_name[follower].child,
                    successor=by_name[target].child,
                    ratio=multiplier,
                )
            )

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
        stack: list[_Element] = []  # the open elements below <robot>
        push, pop = stack.append, stack.pop
        held = []  # the first interpretation error
        interpret = self.interpret

        def hold(error):
            # raised later without the handler's frame, from the interpreter's
            # frames on; `held` is emptied before the read ends, as those
            # frames hold it
            held.append(error.with_traceback(error.__traceback__.tb_next))
            parser.StartElementHandler = parser.EndElementHandler = None

        def on_robot(tag, attrs):
            parser.StartElementHandler, parser.EndElementHandler = on_start, on_end
            try:
                self.start_robot(_Element(tag, attrs, parser.CurrentLineNumber,
                                          parser.CurrentColumnNumber + 1,
                                          parser.CurrentByteIndex))
            except UrdfPlusError as exc:
                hold(exc)

        def on_start(tag, attrs):
            element = _Element(tag, attrs, parser.CurrentLineNumber,
                               parser.CurrentColumnNumber + 1, parser.CurrentByteIndex)
            if stack:
                parent = stack[-1]
                if parent.children:
                    parent.children.append(element)
                else:
                    parent.children = [element]
            push(element)

        def on_end(_tag):
            if stack:  # else it is </robot>
                element = pop()
                element.close_byte = parser.CurrentByteIndex
                if not stack:
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
        data, encoding = text.encode("utf-8"), "utf-8"
    else:
        data, encoding = bytes(text), None
    interpreter = _Interpreter(data)
    model = interpreter.read(expat.ParserCreate(encoding))
    return ParseResult(model, interpreter.warnings)


def parse_file(path) -> ParseResult:
    with open(path, "rb") as handle:
        return parse_urdf_plus(handle.read())


# -- serialization ----------------------------------------------------------


# tab, newline and carriage return as character references: attribute-value
# normalization would read them back as spaces
_ATTR_ENTITIES = {"&": "&amp;", "<": "&lt;", '"': "&quot;",
                  "\t": "&#9;", "\n": "&#10;", "\r": "&#13;"}
_ATTR_SPECIAL = re.compile('[&<"\t\n\r]')
_IDENTITY_ROWS = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


def _esc(value: str) -> str:
    """Escape a string for use inside a double-quoted attribute."""
    if _ATTR_SPECIAL.search(value) is None:
        return value
    return _ATTR_SPECIAL.sub(lambda match: _ATTR_ENTITIES[match[0]], value)


def _fmt(value: float) -> str:
    """Shortest decimal that round-trips to the same float."""
    return repr(float(value))


def _fmt_triple(values) -> str:
    return " ".join(map(repr, map(float, values)))


def _origin_line(origin: SpatialTransform, indent: str) -> list[str]:
    trans = origin.trans.tolist()
    if trans == [0.0, 0.0, 0.0] and origin.rot.tolist() == _IDENTITY_ROWS:
        return []
    rpy = rpy_from_rot(origin.rot)
    return [
        f'{indent}<origin xyz="{_fmt_triple(trans)}" '
        f'rpy="{_fmt_triple(rpy)}"/>'
    ]


def _axis_lines(joint) -> list[str]:
    return [f'    <{tag} xyz="{_fmt_triple(axis)}"/>'
            for tag, axis in (("axis", joint.axis), ("axis2", joint.axis2)) if axis is not None]


def _payload_lines(payload, indent: str) -> list[str]:
    # verbatim blobs; only the leading indent is ours
    return [indent + blob for blob in payload]


def serialize_urdf_plus(model: RobotModel) -> str:
    """Canonical 2-space-indented serialization; parses back to a
    structurally equal model."""
    out: list[str] = ['<?xml version="1.0"?>', f'<robot name="{_esc(model.name)}">']
    for link in model.links:
        inner: list[str] = []
        if link.inertial is not None:
            i = link.inertial
            (ixx, ixy, ixz), (_, iyy, iyz), (_, _, izz) = i.inertia
            inner.append("    <inertial>")
            if any(i.center_of_mass):
                inner.append(
                    f'      <origin xyz="{_fmt_triple(i.center_of_mass)}"/>'
                )
            inner.append(f'      <mass value="{_fmt(i.mass)}"/>')
            inner.append(
                f'      <inertia ixx="{_fmt(ixx)}" ixy="{_fmt(ixy)}" '
                f'ixz="{_fmt(ixz)}" iyy="{_fmt(iyy)}" '
                f'iyz="{_fmt(iyz)}" izz="{_fmt(izz)}"/>'
            )
            inner.append("    </inertial>")
        inner.extend(_payload_lines(link.payload, "    "))
        if inner:
            out.append(f'  <link name="{_esc(link.name)}">')
            out.extend(inner)
            out.append("  </link>")
        else:
            out.append(f'  <link name="{_esc(link.name)}"/>')

    for joint in model.tree_joints:
        attrs = f'name="{_esc(joint.name)}" type="{joint.joint_type.value}"'
        if joint.independent is not None:
            attrs += f' independent="{"true" if joint.independent else "false"}"'
        out.append(f"  <joint {attrs}>")
        out.extend(_origin_line(joint.origin, "    "))
        out.append(f'    <parent link="{_esc(joint.parent)}"/>')
        out.append(f'    <child link="{_esc(joint.child)}"/>')
        out.extend(_axis_lines(joint))
        out.extend(_payload_lines(joint.payload, "    "))
        out.append("  </joint>")

    for loop in model.loop_joints:
        out.append(f'  <loop name="{_esc(loop.name)}" type="{loop.joint_type.value}">')
        for tag, link_name, origin in (
            ("predecessor", loop.predecessor, loop.predecessor_origin),
            ("successor", loop.successor, loop.successor_origin),
        ):
            origin_lines = _origin_line(origin, "      ")
            if origin_lines:
                out.append(f'    <{tag} name="{_esc(link_name)}">')
                out.extend(origin_lines)
                out.append(f"    </{tag}>")
            else:
                out.append(f'    <{tag} name="{_esc(link_name)}"/>')
        out.extend(_axis_lines(loop))
        out.append("  </loop>")

    for coupling in model.couplings:
        out.append(f'  <coupling name="{_esc(coupling.name)}">')
        out.append(f'    <predecessor name="{_esc(coupling.predecessor)}"/>')
        out.append(f'    <successor name="{_esc(coupling.successor)}"/>')
        out.append(f'    <ratio value="{_fmt(coupling.ratio)}"/>')
        out.append("  </coupling>")

    out.extend(_payload_lines(model.payload, "  "))
    out.append("</robot>")
    return "\n".join(out) + "\n"
