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
top-level element's subtree is alive at a time.  In that subtree a node is
a plain tuple or list, not an object: a leaf an interpreter reads (origin,
axis, mass, parent, ratio, mimic, ...) is a tuple of its tag, attribute
dict and position; a preserved element is a list that also holds the byte
indices of its start and end tags, and an element whose children an
interpreter reads is such a list that goes on with its children; nothing
below a leaf or inside a preserved element is kept.  The child rule runs
in two halves: at a child's start tag the first child of each tag its
parent takes once is filed by tag, and the interpreter walks only the
children left (repeats, preserved and unknown children) in document order.
A syntax error anywhere wins; otherwise the first interpretation error in
document order is raised once expat has read the whole document.  The
interpreters build the model's records positionally, their cheapest call,
and a diagnostic's path only when they make the diagnostic.

The writer emits each element as one string, each name escaped where it
is written.  A name that XML 1.0 cannot carry (a C0 control other than tab,
newline and carriage return, a surrogate, U+FFFE or U+FFFF) is refused, as
is a number that is not finite, so the text written always parses back.
A payload blob must read back alone as itself, one well-formed element.
The reader proves that of the blobs it reads from a document that expat
reads as UTF-8: of a blob without an '&' by the document's own parse, of
one holding an '&' by parsing it alone (and warns when that fails, in any
encoding).  The model it returns keeps the texts it proved, and the writer
parses alone, once per distinct blob in a write, every other blob: one a
caller put in the model, or any blob of a model made anew from another's
fields.  The writer checks every blob's tag against its owner's rule.
"""

from __future__ import annotations

import math
import re
import xml.parsers.expat as expat
from dataclasses import dataclass, field

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
# element node whose own children that rule reads; _LEAF keeps a leaf node;
# a tag missing from the rule keeps an element node whose descendants go
# unread (a preserved payload, or an unknown element for the child rule to
# report).  A rule's tags are also the tags its element takes at most once.
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
# A node's fields by index.  A leaf is the tuple (tag, attrib, line,
# column); an element node is the list [tag, attrib, line, column, start
# byte (its '<'), close byte (set at the end event of a preserved or
# unknown element)], and one whose children an interpreter reads goes on
# with found (its first child of each tag its rule takes once, by tag) and
# *rest (its other children, in document order).
_TAG, _ATTRIB, _LINE, _COLUMN, _START, _CLOSE, _FOUND, _REST = range(8)
_AT = slice(_LINE, _START)  # a node's (line, column)
_AMP = ord("&")  # a byte, as `in` finds an int in bytes faster than a bytes


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


_TAG_TEXT = re.compile(rb"""[^"'>]*(?:(?:"[^"]*"|'[^']*')[^"'>]*)*>""")


def _plain_number(text: str) -> bool:
    """Whether a number's text is ASCII without '_', as URDF's C/C++ parsers
    read it, where float() also takes '_' between digits and non-ASCII
    digits and spaces."""
    return text.isascii() and "_" not in text


def _scan_tag_end(data: bytes, start: int) -> int:
    """Index just past the '>' closing the tag that starts at `start`,
    ignoring '>' inside quoted attribute values."""
    match = _TAG_TEXT.match(data, start)
    return match.end() if match else len(data)


class _Interpreter:
    """Reads a document into a RobotModel in one expat pass, one child of
    <robot> at a time."""

    def __init__(self, data: bytes):
        self.data = data
        # whether expat reads the document as UTF-8, as the writer's blob
        # check reads a blob: only then does the document's parse prove a
        # blob's source (see raw)
        self.utf8 = True
        self.warnings: list[ParseDiagnostic] = []
        self.counters = {"joint": 0, "loop": 0, "coupling": 0}
        # the robot child being read, for a diagnostic's path (see path)
        self.kind = self.name = ""
        # each <origin>'s transform, and its rpy and its xyz in two flat
        # lists: one stacked product at the end of the read gives all their
        # rotations, so no origin costs numpy calls or tuples of its own
        self.origins: list[SpatialTransform] = []
        self.angles: list[float] = []
        self.offsets: list[float] = []
        self.root = None  # the <robot> node
        self.links: list[Link] = []
        self.joints: list[TreeJoint] = []
        self.loops: list[LoopJoint] = []
        self.couplings: list[Coupling] = []
        self.payload: list[str] = []
        self.mimics: list[tuple] = []
        self.proven: set[str] = set()  # the blobs known to be well-formed alone (see raw)

    def declared(self, _version, encoding, _standalone):
        """expat's XML declaration handler."""
        self.utf8 = encoding is None or encoding.lower() == "utf-8"

    def path(self, suffix: str = "") -> str:
        """A diagnostic's path: the robot child being read, by kind and name,
        then `suffix`, the element within it.  The interpreters pass the
        suffix alone, so a path is built only for a diagnostic."""
        return f"robot/{self.kind}({self.name}){suffix}"

    def warn(self, element, message: str, path: str):
        self.warnings.append(ParseDiagnostic("warning", *element[_AT], message, path))

    def raw(self, element, path: str) -> str:
        """Source text of a preserved element, its extent taken from the XML
        grammar and from where expat reports its end event: just past an
        empty-element tag's '/>', and at the '</' of any other element's end
        tag.  No STag has '/' before its '>', so the element is empty when
        its start tag ends in '/>' there; any other element ends at the '>'
        after that '</'.  A source holding an '&' goes through the writer's
        blob check, and a warning names what keeps it from being written
        back (a reference to an entity that the document declares); any
        other source of a document read as UTF-8 is one well-formed element
        alone, proven by the document's parse.  The text of each source so
        proven, by either route, goes into `proven`."""
        data, start = self.data, element[_START]
        if data[start] == _AMP:  # elements from an entity sit at its '&'
            msg = f"preserved <{element[_TAG]}> comes from an entity reference"
            raise XmlSyntaxError(msg, *element[_AT])
        end = element[_CLOSE]  # where expat reported its end event
        if not (data.endswith(b"/>", start, end) and _scan_tag_end(data, start) == end):
            end = data.find(b">", end) + 1  # past its end tag
        source = data[start:end]
        # expat admits no NUL in an ASCII-compatible encoding: one means UTF-16
        if 0 not in source:
            try:
                text = source.decode("utf-8")
            except UnicodeDecodeError:
                pass
            else:
                if _AMP not in source:
                    if self.utf8:
                        self.proven.add(text)
                    return text
                if (fault := _blob_fault(text)) is None:
                    self.proven.add(text)
                    return text
                self.warn(element, f"preserved <{element[_TAG]}> cannot be written "
                                   f"back: alone, it {fault}", path)
                return text
        raise XmlSyntaxError(f"preserved <{element[_TAG]}> is not UTF-8", *element[_AT])

    # -- attribute and numeric helpers: each takes the suffix of its path ---

    def require_attr(self, element, attr: str, suffix: str) -> str:
        value = element[_ATTRIB].get(attr)
        if value is None:
            raise MissingAttributeError(f"<{element[_TAG]}> requires attribute {attr!r}",
                                        *element[_AT], self.path(suffix))
        return value

    def parse_float(self, text: str, element, suffix: str) -> float:
        try:
            if not _plain_number(text):
                raise ValueError
            value = float(text)
        except ValueError:
            raise InvalidNumberError(f"invalid number {text!r}", *element[_AT],
                                     self.path(suffix)) from None
        if not math.isfinite(value):
            raise InvalidNumberError(f"non-finite number {text!r}", *element[_AT],
                                     self.path(suffix))
        return value

    def parse_triple(self, text: str, element, suffix: str):
        try:
            x, y, z = text.split()
            x, y, z = float(x), float(y), float(z)
        except ValueError:  # not three numbers
            pass
        else:
            if math.isfinite(x + y + z) and _plain_number(text):
                return x, y, z
        parts = text.split()
        if len(parts) != 3:
            raise InvalidNumberError(f"expected 3 numbers, got {len(parts)} in {text!r}",
                                     *element[_AT], self.path(suffix))
        # raises, naming the first part that is not a finite number (the
        # whole text if any of it is not ASCII), unless only the sum overflowed
        return tuple([self.parse_float(p if text.isascii() else text, element, suffix)
                      for p in parts])

    def auto_name(self, element, kind: str) -> str:
        """A name for an unnamed <kind>, with a warning."""
        generated = f"{kind}_{self.counters[kind]}"
        self.warn(element, f"unnamed <{element[_TAG]}> assigned name {generated!r}",
                  f"robot/{kind}")
        return generated

    # -- shared sub-elements ----------------------------------------------

    def parse_origin(self, element, suffix: str) -> SpatialTransform:
        """The pose an <origin> states (the identity when there is none);
        finish sets its rot and trans once the document is read."""
        if element is None:
            return SpatialTransform.identity()
        attrib = element[_ATTRIB]
        xyz = rpy = (0.0, 0.0, 0.0)
        if "xyz" in attrib:
            xyz = self.parse_triple(attrib["xyz"], element, suffix)
        if "rpy" in attrib:
            rpy = self.parse_triple(attrib["rpy"], element, suffix)
        origin = object.__new__(SpatialTransform)  # finish sets its fields
        self.origins.append(origin)
        self.angles += rpy
        self.offsets += xyz
        return origin

    def parse_axis(self, element, suffix: str):
        """Unit direction from an <axis>/<axis2> element; nonzero vectors
        are normalized, matching common URDF tooling."""
        xyz = element[_ATTRIB].get("xyz", "1 0 0")
        x, y, z = self.parse_triple(xyz, element, suffix)
        norm = math.sqrt(sum([x * x, y * y, z * z]))
        if not math.isfinite(norm):  # the squares overflow: scale down first
            scale = max(abs(x), abs(y), abs(z))
            x, y, z = x / scale, y / scale, z / scale
            norm = math.sqrt(sum([x * x, y * y, z * z]))
        if norm < 1e-12:
            raise InvalidNumberError(f"axis {xyz!r} has zero length", *element[_AT],
                                     self.path(suffix))
        return x / norm, y / norm, z / norm

    def joint_axes(self, element, jtype: JointType):
        """The (axis, axis2) a <joint> or <loop> of type jtype keeps from its
        children: the URDF default axis if it needs one, and no axis it
        takes none of (dropped with a warning)."""
        found = element[_FOUND]
        axis, axis2 = found.get("axis"), found.get("axis2")
        if axis is not None:
            axis = self.parse_axis(axis, "/axis")
        if axis2 is not None:
            axis2 = self.parse_axis(axis2, "/axis2")
        if jtype.requires_axis:
            if axis is None:
                axis = (1.0, 0.0, 0.0)
        elif axis is not None:
            self.warn(element, f"axis ignored on {jtype.value} joint", self.path())
            axis = None
        if axis2 is not None and jtype is not JointType.UNIVERSAL:
            self.warn(element, f"axis2 ignored on {jtype.value} joint", self.path())
            axis2 = None
        return axis, axis2

    def parse_link_ref(self, element, suffix: str) -> str:
        # standard URDF spells it link="..."; the loop/coupling templates and
        # some writers use name="..." -- accept both
        attrib = element[_ATTRIB]
        value = attrib.get("link")
        if value is None:
            value = attrib.get("name")
            if value is None:
                raise MissingAttributeError(f"<{element[_TAG]}> requires attribute 'link' "
                                            "(or 'name')", *element[_AT], self.path(suffix))
        return value

    def joint_type(self, element) -> JointType:
        jtype = _JOINT_TYPES.get(element[_ATTRIB].get("type"))
        if jtype is not None:
            return jtype
        text = self.require_attr(element, "type", "")
        if text == "planar":
            raise UnknownJointTypeError(
                "joint type 'planar' is not supported; model it with two "
                "prismatic joints and a continuous joint", *element[_AT], self.path())
        raise UnknownJointTypeError(f"unknown joint type {text!r}", *element[_AT], self.path())

    def read_children(self, element, suffix: str, preserved=()) -> tuple:
        """The one child rule: the first child of each tag the element's rule
        takes once is in its found dict (the reader filed it at its start
        tag), a repeat of it an error; a tag in `preserved` (every other tag
        when it is None) adds its source text to the payload returned, in
        document order; any other tag is an error.  Both errors sit at the
        child."""
        if len(element) == _REST:  # no children
            return ()
        found, payload, path = element[_FOUND], [], self.path(suffix)
        for child in element[_REST:]:
            tag = child[_TAG]
            if tag in found:
                raise UnknownElementError(f"repeated <{tag}> inside <{element[_TAG]}>",
                                          *child[_AT], path)
            if preserved is None or tag in preserved:
                payload.append(self.raw(child, path))
            else:
                raise UnknownElementError(f"unknown element <{tag}> inside <{element[_TAG]}>",
                                          *child[_AT], path)
        return tuple(payload)

    # -- element interpreters ----------------------------------------------

    def parse_link(self, element) -> Link:
        name = element[_ATTRIB].get("name")
        if name is None:
            raise MissingAttributeError("<link> requires attribute 'name'", *element[_AT],
                                        "robot/link")
        self.kind, self.name = "link", name
        payload = self.read_children(element, "", preserved=None)
        inertial = element[_FOUND].get("inertial")
        if inertial is not None:
            inertial = self.parse_inertial(inertial)
        return Link(name, inertial, payload)

    def parse_inertial(self, element) -> Inertial:
        self.read_children(element, "/inertial")
        found = element[_FOUND]
        mass = 0.0
        mass_el = found.get("mass")
        if mass_el is not None:
            mass = self.parse_float(self.require_attr(mass_el, "value", "/inertial"), mass_el,
                                    "/inertial")
        com = (0.0, 0.0, 0.0)
        rot = None
        origin_el = found.get("origin")
        if origin_el is not None:
            attrib = origin_el[_ATTRIB]
            if "xyz" in attrib:
                com = self.parse_triple(attrib["xyz"], origin_el, "/inertial")
            if "rpy" in attrib:
                rpy = self.parse_triple(attrib["rpy"], origin_el, "/inertial")
                if any(rpy):
                    rot = rot_from_rpy(*rpy)
        inertia = ((0.0,) * 3,) * 3
        inertia_el = found.get("inertia")
        if inertia_el is not None:
            attrib, keys = inertia_el[_ATTRIB], ("ixx", "ixy", "ixz", "iyy", "iyz", "izz")
            try:
                values = [float(attrib[key]) for key in keys]
                finite = math.isfinite(sum(values)) and _plain_number("".join(attrib.values()))
            except (KeyError, ValueError):  # missing or not a number
                finite = False
            if not finite:
                # raises at the first missing, non-finite or not plain value,
                # unless only the sum overflowed
                values = [self.parse_float(self.require_attr(inertia_el, key, "/inertial"),
                                           inertia_el, "/inertial") for key in keys]
            ixx, ixy, ixz, iyy, iyz, izz = values
            inertia = ((ixx, ixy, ixz), (ixy, iyy, iyz), (ixz, iyz, izz))
        if rot is not None:
            # re-express the inertia tensor in the link frame
            m = rot @ [list(row) for row in inertia] @ rot.T
            inertia = tuple(tuple(float(x) for x in row) for row in m)
        return Inertial(mass, com, inertia)

    def parse_joint(self, element):
        """Returns (TreeJoint, mimic | None); mimic resolution happens after
        every joint is known."""
        self.counters["joint"] += 1
        attrib, found = element[_ATTRIB], element[_FOUND]
        name = attrib.get("name") or self.auto_name(element, "joint")
        self.kind, self.name = "joint", name
        jtype = self.joint_type(element)
        independent = attrib.get("independent")
        if independent is not None:
            if independent not in ("true", "false"):
                raise InvalidNumberError(f"expected 'true' or 'false', got {independent!r}",
                                         *element[_AT], self.path())
            independent = independent == "true"
        payload = self.read_children(element, "", _JOINT_PAYLOAD_TAGS)
        if "parent" not in found or "child" not in found:
            raise MissingAttributeError("<joint> requires <parent> and <child> elements",
                                        *element[_AT], self.path())
        origin = self.parse_origin(found.get("origin"), "/origin")
        parent = self.parse_link_ref(found["parent"], "/parent")
        child = self.parse_link_ref(found["child"], "/child")
        axis, axis2 = self.joint_axes(element, jtype)
        mimic = found.get("mimic")
        if mimic is not None:
            mimic = self.parse_mimic(mimic, name)
        return TreeJoint(name, jtype, parent, child, origin, axis, axis2, independent,
                         payload), mimic

    def parse_mimic(self, element, follower: str):
        target = self.require_attr(element, "joint", "/mimic")
        multiplier = 1.0
        offset = 0.0
        if "multiplier" in element[_ATTRIB]:
            multiplier = self.parse_float(element[_ATTRIB]["multiplier"], element, "/mimic")
        if "offset" in element[_ATTRIB]:
            offset = self.parse_float(element[_ATTRIB]["offset"], element, "/mimic")
        if offset != 0.0:
            raise UnsupportedMimicOffsetError(
                f"mimic with nonzero offset {offset} cannot be expressed as a "
                "coupling", *element[_AT], self.path("/mimic"))
        return (follower, target, multiplier, element)

    def parse_loop(self, element) -> LoopJoint:
        self.counters["loop"] += 1
        name = element[_ATTRIB].get("name") or self.auto_name(element, "loop")
        self.kind, self.name = "loop", name
        jtype = self.joint_type(element)
        self.read_children(element, "")
        found = element[_FOUND]
        links, origins = [], []  # of the predecessor, then the successor
        for tag, suffix in (("predecessor", "/predecessor"), ("successor", "/successor")):
            end = found.get(tag)
            if end is None:
                raise MissingAttributeError(f"<loop> requires a <{tag}> element",
                                            *element[_AT], self.path())
            self.read_children(end, suffix)
            links.append(self.parse_link_ref(end, suffix))
            origins.append(self.parse_origin(end[_FOUND].get("origin"), suffix))
        axis, axis2 = self.joint_axes(element, jtype)
        return LoopJoint(name, jtype, *links, *origins, axis, axis2)

    def parse_coupling(self, element) -> Coupling:
        self.counters["coupling"] += 1
        name = element[_ATTRIB].get("name") or self.auto_name(element, "coupling")
        self.kind, self.name = "coupling", name
        self.read_children(element, "")
        found = element[_FOUND]
        if "predecessor" not in found or "successor" not in found:
            raise MissingAttributeError(
                "<coupling> requires <predecessor> and <successor> elements",
                *element[_AT], self.path())
        if "ratio" not in found:
            raise MissingAttributeError(
                "<coupling> requires a <ratio> element with a 'value' attribute",
                *element[_AT], self.path())
        ratio_el = found["ratio"]
        return Coupling(
            name,
            self.parse_link_ref(found["predecessor"], "/predecessor"),
            self.parse_link_ref(found["successor"], "/successor"),
            self.parse_float(self.require_attr(ratio_el, "value", "/ratio"), ratio_el,
                             "/ratio"),
        )

    # -- the read: <robot>, then each of its children, then the finish -----

    def start_robot(self, root):
        if root[_TAG] != "robot":
            raise UnknownElementError(f"expected <robot> document element, got <{root[_TAG]}>",
                                      *root[_AT], "")
        self.root = root
        if "name" not in root[_ATTRIB]:
            self.warn(root, "<robot> has no name attribute", "robot")

    def interpret(self, child):
        tag = child[_TAG]
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
            self.payload.append(self.raw(child, "robot"))
        else:
            raise UnknownElementError(f"unknown element <{tag}> under <robot>",
                                      *child[_AT], "robot")

    def finish(self) -> RobotModel:
        root, couplings = self.root, self.couplings
        by_name = {j.name: j for j in self.joints}
        for follower, target, multiplier, element in self.mimics:
            if target not in by_name:
                raise UnknownElementError(f"mimic references unknown joint {target!r}",
                                          *element[_AT], f"robot/joint({follower})/mimic")
            couplings.append(Coupling(f"{follower}_mimic", by_name[follower].child,
                                      by_name[target].child, multiplier))

        if not self.links:
            self.warn(root, "robot has no links", "robot")
        if self.origins:
            angles = iter(self.angles)
            rots = _rots_from_rpy(list(zip(angles, angles, angles)))
            for origin, rot, trans in zip(self.origins, rots,
                                          np.array(self.offsets).reshape(-1, 3)):
                origin.rot, origin.trans = rot, trans

        model = RobotModel(
            name=root[_ATTRIB].get("name", "robot"),
            links=tuple(self.links),
            tree_joints=tuple(self.joints),
            loop_joints=tuple(self.loops),
            couplings=tuple(couplings),
            payload=tuple(self.payload),
        )
        # the texts of the blobs this read proved well-formed alone, kept out
        # of the fields as cached_property keeps a value: a copy of the model
        # keeps them, a model made anew from its fields (dataclasses.replace)
        # does not, and the writer parses every blob not among them
        model.__dict__["_proven_blobs"] = frozenset(self.proven)
        return model

    def read(self, parser) -> RobotModel:
        """The one expat pass (see the module docstring).  Only start and end
        events are heard: `raw` finds an element's source from the byte
        indices of its start tag and its end event alone.  The first
        interpretation error stops the interpreting but not expat."""
        # a frame per open element: the rule for its children (None when
        # they go unread) and its element node (None for <robot> and leaves)
        stack: list[tuple] = []
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
            push((_ROBOT_RULE, None))
            try:
                self.start_robot((tag, attrs, parser.CurrentLineNumber,
                                  parser.CurrentColumnNumber + 1))
            except UrdfPlusError as exc:
                hold(exc)

        def on_start(tag, attrs):
            rule, parent = stack[-1]
            if rule is None:  # below a leaf or an unread element
                push(_UNREAD)
                return
            kind = rule.get(tag)
            if kind is _LEAF:
                child = (tag, attrs, parser.CurrentLineNumber, parser.CurrentColumnNumber + 1)
                push(_UNREAD)
            elif kind is None:  # preserved or unknown: its children go unread
                child = [tag, attrs, parser.CurrentLineNumber, parser.CurrentColumnNumber + 1,
                         parser.CurrentByteIndex, None]
                push((None, child))
            else:
                child = [tag, attrs, parser.CurrentLineNumber, parser.CurrentColumnNumber + 1,
                         parser.CurrentByteIndex, None, {}]
                push((kind, child))
            if parent is not None:  # the child rule's first half
                found = parent[_FOUND]
                if kind is None or tag in found:
                    parent.append(child)
                else:
                    found[tag] = child

        def on_end(_tag):
            rule, element = pop()
            if element is not None:  # else a leaf, an unread element or <robot> ends
                if rule is None:  # `raw` may read up to its end tag
                    element[_CLOSE] = parser.CurrentByteIndex
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
    parser = expat.ParserCreate(encoding)
    if encoding is None:  # bytes: expat reads them as their declaration says
        parser.XmlDeclHandler = interpreter.declared
    model = interpreter.read(parser)
    return ParseResult(model, interpreter.warnings)


def parse_file(path) -> ParseResult:
    with open(path, "rb") as handle:
        return parse_urdf_plus(handle.read())


# -- serialization ----------------------------------------------------------


# What a name cannot hold as it is: the markup characters, and tab, newline
# and carriage return, written as character references (attribute-value
# normalization would read them back as spaces); the other C0 controls, the
# surrogates, U+FFFE and U+FFFF are not XML 1.0 characters at all.
_ATTR_ENTITIES = str.maketrans({"&": "&amp;", "<": "&lt;", '"': "&quot;",
                                 "\t": "&#9;", "\n": "&#10;", "\r": "&#13;"})
_ATTR_SPECIAL = re.compile(r'[&<"\x00-\x1f\ud800-\udfff\ufffe\uffff]')
_TYPE_NAMES = {jt: jt.value for jt in JointType}
_IDENTITY_ROWS = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
# a payload blob's tag; its owner's reader reads a child of a tag in `once`
# itself, and keeps as payload a tag in `preserved` (any other tag if None)
_START_TAG = re.compile(r"<([^ \t\r\n/>]+)")
_PAYLOAD_RULES = {"link": (_LINK_RULE, None), "joint": (_JOINT_RULE, _JOINT_PAYLOAD_TAGS),
                  "robot": (_ROBOT_RULE, _ROBOT_PAYLOAD_TAGS)}


def _refusal(tag: str, owner: str, detail: str) -> UrdfPlusError:
    """The writer's error for a field of a record: the element, and its owner
    as the model holds it."""
    return UrdfPlusError(f"cannot write <{tag}> {owner!r}: {detail}")


def _attr(record, key: str, tag: str) -> str:
    """A record's name field as a double-quoted attribute value of a <tag>:
    as it is when nothing in it needs escaping (an identifier never does); a
    character XML 1.0 cannot carry raises UrdfPlusError naming the field."""
    value = getattr(record, key)
    if value.isidentifier() or _ATTR_SPECIAL.search(value) is None:
        return value
    for char in _ATTR_SPECIAL.findall(value):
        if ord(char) not in _ATTR_ENTITIES:
            raise _refusal(tag, record.name, f"its {key} holds U+{ord(char):04X}, which "
                                             "XML 1.0 cannot carry")
    return value.translate(_ATTR_ENTITIES)


# a number goes out as the shortest decimal that reads back to the same
# float, `{float(x)!r}`; float() also turns a numpy scalar into a float
def _fmt_triple(values) -> str:
    x, y, z = values
    return f"{float(x)!r} {float(y)!r} {float(z)!r}"


def _finite(text: str, record, key: str, tag: str) -> str:
    """The text of a record's numbers as written, or UrdfPlusError naming the
    field when one is not finite: a finite float's repr holds no 'n', and
    nan, inf and -inf do."""
    if "n" in text:
        raise _refusal(tag, record.name, f"its {key} holds a non-finite number")
    return text


def _origin_line(record, key: str, tag: str, indent: str) -> str:
    """The <origin> line of a record's pose, or "" for the identity."""
    origin = getattr(record, key)
    trans, rot = origin.trans.tolist(), origin.rot.tolist()
    if trans == [0.0, 0.0, 0.0] and rot == _IDENTITY_ROWS:
        return ""
    (x, y, z), (roll, pitch, yaw) = trans, _rpy_from_rows(rot)  # Python floats
    numbers = f'xyz="{x!r} {y!r} {z!r}" rpy="{roll!r} {pitch!r} {yaw!r}"'
    return f"{indent}<origin {_finite(numbers, record, key, tag)}/>\n"


def _axis_lines(joint, tag: str) -> str:
    lines = ""
    if joint.axis is not None:
        lines = f'    <axis xyz="{_finite(_fmt_triple(joint.axis), joint, "axis", tag)}"/>\n'
    if joint.axis2 is not None:
        lines += f'    <axis2 xyz="{_finite(_fmt_triple(joint.axis2), joint, "axis2", tag)}"/>\n'
    return lines


def _inertial_lines(link) -> str:
    inertial = link.inertial
    (ixx, ixy, ixz), (_, iyy, iyz), (_, _, izz) = inertial.inertia
    com = _fmt_triple(inertial.center_of_mass) if any(inertial.center_of_mass) else ""
    mass = f"{float(inertial.mass)!r}"
    inertia = (f'ixx="{float(ixx)!r}" ixy="{float(ixy)!r}" ixz="{float(ixz)!r}" '
               f'iyy="{float(iyy)!r}" iyz="{float(iyz)!r}" izz="{float(izz)!r}"')
    _finite(com + mass + inertia, link, "inertial", "link")
    return ("    <inertial>\n"
            + (f'      <origin xyz="{com}"/>\n' if com else "")
            + f'      <mass value="{mass}"/>\n'
            f"      <inertia {inertia}/>\n"
            "    </inertial>\n")


def _blob_fault(blob: str) -> str | None:
    """What keeps a payload blob from reading back as one well-formed
    element alone, its start tag first and no space, comment or instruction
    after its end, or None when nothing does."""
    parser, ends = expat.ParserCreate("utf-8"), []  # end tags' names, None for a comment
    if blob.endswith("-->"):  # a comment's end, or an end tag such as </a-->
        parser.EndElementHandler = ends.append
        parser.CommentHandler = lambda _: ends.append(None)
    try:
        parser.Parse(data := blob.encode("utf-8"), True)
    except UnicodeEncodeError:
        data = b""
    except expat.ExpatError as exc:
        if expat.errors.messages[exc.code] == expat.errors.XML_ERROR_UNDEFINED_ENTITY:
            # at its '&', or at the start tag of the attribute holding it
            ref = re.compile(rb"&(?!(?:amp|lt|gt|apos|quot|#[^;]*);)[^;]*;").search(
                data, parser.ErrorByteIndex)[0]
            return f"refers to the undefined entity {ref.decode()}"
        data = b""
    if not (data[:1] == b"<" and data[1:2] not in b"!?" and data.endswith(b">")
            and not data.endswith(b"?>") and ends[-1:] != [None]):
        return "is not one well-formed element alone"
    return None


def _payload_lines(payload, indent: str, tag: str, name: str, sound: set) -> str:
    """The blobs of a payload verbatim, one a line after `indent`.  A blob
    must be one well-formed element alone, as the reader reads it back (see
    _blob_fault), and its tag must be one that a <tag> element keeps as
    payload.  Any other blob raises UrdfPlusError.  `sound` holds the blobs
    known to be well-formed: those the reader proved, and those of the write
    already parsed, each once."""
    once, preserved = _PAYLOAD_RULES[tag]
    for index, blob in enumerate(payload):
        if blob not in sound:
            if (fault := _blob_fault(blob)) is not None:
                raise _refusal(tag, name, f"its payload blob {index} {fault}")
            sound.add(blob)
        child = _START_TAG.match(blob)[1]
        if child in once or not (preserved is None or child in preserved):
            raise _refusal(tag, name, f"its payload blob {index} is a <{child}>, which "
                                      f"<{tag}> does not keep as payload")
    return "".join([f"{indent}{blob}\n" for blob in payload])


def serialize_urdf_plus(model: RobotModel) -> str:
    """Canonical 2-space-indented serialization; parses back to a
    structurally equal model, one string per element.  A name holding a
    character XML 1.0 cannot carry (a C0 control but tab, newline and
    carriage return, a surrogate, U+FFFE or U+FFFF), a number that is not
    finite, or a payload blob that is not one well-formed element alone or
    that its owner would not read back as payload, raises UrdfPlusError."""
    # every payload is checked first, then the names and numbers in
    # document order, each where it is written; a blob the reader proved
    # well-formed alone is not parsed again (_Interpreter.raw)
    sound = set(getattr(model, "_proven_blobs", ()))
    links = [_payload_lines(link.payload, "    ", "link", link.name, sound) if link.payload
             else "" for link in model.links]
    joints = [_payload_lines(joint.payload, "    ", "joint", joint.name, sound)
              if joint.payload else "" for joint in model.tree_joints]
    robot = _payload_lines(model.payload, "  ", "robot", model.name, sound)
    out: list[str] = ['<?xml version="1.0"?>\n',
                      f'<robot name="{_attr(model, "name", "robot")}">\n']
    for link, inner in zip(model.links, links):
        name = _attr(link, "name", "link")
        if link.inertial is not None:
            inner = _inertial_lines(link) + inner
        out.append(f'  <link name="{name}">\n{inner}  </link>\n' if inner
                   else f'  <link name="{name}"/>\n')

    for joint, payload in zip(model.tree_joints, joints):
        attrs = f'name="{_attr(joint, "name", "joint")}" type="{_TYPE_NAMES[joint.joint_type]}"'
        if joint.independent is not None:
            attrs += ' independent="true"' if joint.independent else ' independent="false"'
        out.append(
            f"  <joint {attrs}>\n"
            f'{_origin_line(joint, "origin", "joint", "    ")}'
            f'    <parent link="{_attr(joint, "parent", "joint")}"/>\n'
            f'    <child link="{_attr(joint, "child", "joint")}"/>\n'
            f"{_axis_lines(joint, 'joint')}{payload}  </joint>\n"
        )

    for loop in model.loop_joints:
        out.append(f'  <loop name="{_attr(loop, "name", "loop")}" '
                   f'type="{_TYPE_NAMES[loop.joint_type]}">\n')
        for tag in ("predecessor", "successor"):
            link_name = _attr(loop, tag, "loop")
            origin_line = _origin_line(loop, f"{tag}_origin", "loop", "      ")
            out.append(f'    <{tag} name="{link_name}">\n{origin_line}    </{tag}>\n'
                       if origin_line else f'    <{tag} name="{link_name}"/>\n')
        out.append(f"{_axis_lines(loop, 'loop')}  </loop>\n")

    for coupling in model.couplings:  # its fields in document order
        name = _attr(coupling, "name", "coupling")
        predecessor = _attr(coupling, "predecessor", "coupling")
        successor = _attr(coupling, "successor", "coupling")
        ratio = _finite(repr(float(coupling.ratio)), coupling, "ratio", "coupling")
        out.append(f'  <coupling name="{name}">\n'
                   f'    <predecessor name="{predecessor}"/>\n'
                   f'    <successor name="{successor}"/>\n'
                   f'    <ratio value="{ratio}"/>\n'
                   "  </coupling>\n")

    out.append(robot)
    out.append("</robot>\n")
    return "".join(out)
