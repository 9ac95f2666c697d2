"""Differential test of the streaming URDF+ reader.

The oracle below is the earlier two-pass reader, copied verbatim: the
expat pass that built a positioned element tree of the whole document
(`_build_tree`), the walk that interpreted it (`interpret`) and the child
rule as it was then (`read_children`).  The element interpreters it calls
(`parse_link`, `parse_joint`, ...) are the library's own.  The streaming
reader must give the oracle's outcome -- the model's repr and the
warnings, or the error's type, message, line, column and path -- on every
`models/` file, on three generated ladders and on seeded mutants of both.
Targeted cases pin the order in which errors win.
"""

from __future__ import annotations

import importlib.util
import random
import sys
import xml.parsers.expat as expat
from pathlib import Path

import numpy as np
import pytest

from test_mutation_fuzz import MODELS, mutate
from urdfplus.errors import (
    InvalidNumberError,
    UnknownElementError,
    UnknownJointTypeError,
    XmlSyntaxError,
)
from urdfplus.model import Coupling, Link, LoopJoint, RobotModel, TreeJoint
from urdfplus.spatial import _rots_from_rpy
from urdfplus.xmlio import (
    _ROBOT_PAYLOAD_TAGS,
    ParseResult,
    _Element,
    _Interpreter,
    parse_urdf_plus,
)

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = 3000
SEED = 13013

# -- oracle ----------------------------------------------------------------------


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
