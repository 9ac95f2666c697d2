"""Differential test of the URDF+ reader's origins and of the writer.

The oracle below is the earlier implementation, copied verbatim: the
origin path (`rot_z @ rot_y @ rot_x` of the parsed rpy, then the copies
that `SpatialTransform(rot, xyz)` made) and the writer with the helpers it
used (`_esc`, `_fmt`, `rpy_from_rot` indexing numpy scalars, the numpy
identity test and the inertia matrix).  Every parsed origin must give the
oracle's bits (`tobytes`, so signed zeros count), and `serialize_urdf_plus`
must give the oracle's bytes, on every `models/` file that parses and on
seeded generated models whose rpy angles include signed zeros and
pitch = +/-pi/2.  None of the names here holds a tab, newline or carriage
return, the one place where the writer now differs on purpose
(`tests/test_xml.py` covers that).
"""

from __future__ import annotations

import dataclasses
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from conftest import MODELS_DIR
from helpers import random_tree_model
from urdfplus.errors import UrdfPlusError
from urdfplus.model import Inertial, RobotModel
from urdfplus.spatial import SpatialTransform
from urdfplus.xmlio import parse_urdf_plus, serialize_urdf_plus

# -- oracle ----------------------------------------------------------------------


def rot_x(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rot_from_rpy(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """Fixed-axis X-Y-Z rotation: Rz(yaw) @ Ry(pitch) @ Rx(roll)."""
    return rot_z(yaw) @ rot_y(pitch) @ rot_x(roll)


def rpy_from_rot(r: np.ndarray) -> tuple[float, float, float]:
    """Inverse of rot_from_rpy (roll = 0 at the pitch = +/-pi/2 singularity)."""
    r = np.asarray(r, dtype=float)
    cos_pitch = math.hypot(r[0, 0], r[1, 0])
    pitch = math.atan2(-r[2, 0], cos_pitch)
    if cos_pitch > 1e-9:
        roll = math.atan2(r[2, 1], r[2, 2])
        yaw = math.atan2(r[1, 0], r[0, 0])
    else:
        roll = 0.0
        yaw = math.atan2(-r[0, 1], r[1, 1])
    return roll, pitch, yaw


def oracle_origin(element) -> tuple[np.ndarray, np.ndarray]:
    """(rot, trans) of an <origin> element (an ElementTree element or None),
    as `parse_origin` → `SpatialTransform.from_rpy_xyz` made them."""
    if element is None:
        return np.eye(3), np.zeros(3)
    xyz = tuple(float(v) for v in element.get("xyz", "0 0 0").split())
    r, p, y = np.asarray(
        [float(v) for v in element.get("rpy", "0 0 0").split()], dtype=float
    ).reshape(-1)
    return (np.array(rot_from_rpy(r, p, y), dtype=float),
            np.asarray(xyz, dtype=float).reshape(-1))


def _esc(value: str) -> str:
    """Escape a string for use inside a double-quoted attribute."""
    return (
        value.replace("&", "&amp;").replace("<", "&lt;").replace('"', "&quot;")
    )


def _fmt(value: float) -> str:
    """Shortest decimal that round-trips to the same float."""
    return repr(float(value))


def _fmt_triple(values) -> str:
    return " ".join(_fmt(v) for v in values)


def _is_identity(origin: SpatialTransform, tol: float = 0.0) -> bool:
    return bool(
        np.all(np.abs(origin.rot - np.eye(3)) <= tol)
        and np.all(np.abs(origin.trans) <= tol)
    )


def _origin_line(origin: SpatialTransform, indent: str) -> list[str]:
    if _is_identity(origin):
        return []
    rpy = rpy_from_rot(origin.rot)
    return [
        f'{indent}<origin xyz="{_fmt_triple(origin.trans)}" '
        f'rpy="{_fmt_triple(rpy)}"/>'
    ]


def _axis_lines(joint) -> list[str]:
    return [f'    <{tag} xyz="{_fmt_triple(axis)}"/>'
            for tag, axis in (("axis", joint.axis), ("axis2", joint.axis2)) if axis is not None]


def _payload_lines(payload, indent: str) -> list[str]:
    # verbatim blobs; only the leading indent is ours
    return [indent + blob for blob in payload]


def oracle_serialize(model: RobotModel) -> str:
    """Canonical 2-space-indented serialization; parses back to a
    structurally equal model."""
    out: list[str] = ['<?xml version="1.0"?>', f'<robot name="{_esc(model.name)}">']
    for link in model.links:
        inner: list[str] = []
        if link.inertial is not None:
            i = link.inertial
            m = np.array(i.inertia, dtype=float)
            inner.append("    <inertial>")
            if any(i.center_of_mass):
                inner.append(
                    f'      <origin xyz="{_fmt_triple(i.center_of_mass)}"/>'
                )
            inner.append(f'      <mass value="{_fmt(i.mass)}"/>')
            inner.append(
                f'      <inertia ixx="{_fmt(m[0, 0])}" ixy="{_fmt(m[0, 1])}" '
                f'ixz="{_fmt(m[0, 2])}" iyy="{_fmt(m[1, 1])}" '
                f'iyz="{_fmt(m[1, 2])}" izz="{_fmt(m[2, 2])}"/>'
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


# -- end of the oracle -------------------------------------------------------------


def document_origins(text) -> list[tuple[np.ndarray, np.ndarray]]:
    """The oracle's (rot, trans) of each <joint>'s origin, then of each
    <loop>'s predecessor and successor origins, in document order."""
    root = ET.fromstring(text)
    origins = [oracle_origin(joint.find("origin")) for joint in root.findall("joint")]
    for loop in root.findall("loop"):
        for tag in ("predecessor", "successor"):
            origins.append(oracle_origin(loop.find(tag).find("origin")))
    return origins


def model_origins(model: RobotModel) -> list[tuple[np.ndarray, np.ndarray]]:
    origins = [(j.origin.rot, j.origin.trans) for j in model.tree_joints]
    for loop in model.loop_joints:
        for origin in (loop.predecessor_origin, loop.successor_origin):
            origins.append((origin.rot, origin.trans))
    return origins


def check_against_oracle(text) -> None:
    """Parse `text`; every origin must carry the oracle's bits, and the
    serialization the oracle's bytes."""
    model = parse_urdf_plus(text).model
    got, want = model_origins(model), document_origins(text)
    assert len(got) == len(want)
    for (rot, trans), (want_rot, want_trans) in zip(got, want):
        assert rot.dtype == want_rot.dtype and rot.shape == want_rot.shape
        assert rot.tobytes() == want_rot.tobytes()
        assert trans.dtype == want_trans.dtype and trans.shape == want_trans.shape
        assert trans.tobytes() == want_trans.tobytes()
    assert serialize_urdf_plus(model) == oracle_serialize(model)


def _parses(path) -> bool:
    try:
        parse_urdf_plus(path.read_bytes())
    except UrdfPlusError:
        return False
    return True


PARSED_MODEL_FILES = [p for p in sorted(MODELS_DIR.rglob("*.urdf")) if _parses(p)]


@pytest.mark.parametrize("path", PARSED_MODEL_FILES,
                         ids=lambda p: str(p.relative_to(MODELS_DIR)))
def test_model_files_match_oracle(path):
    check_against_oracle(path.read_bytes())


# zeros of both signs and the pitch singularity, besides uniform angles
SPECIAL_ANGLES = (0.0, -0.0, math.pi / 2, -math.pi / 2)


def _angles(rng, kind: str) -> tuple[float, float, float]:
    if kind == "zero":
        return 0.0, 0.0, 0.0
    roll, pitch, yaw = rng.uniform(-math.pi, math.pi, 3).tolist()
    if kind == "gimbal":
        pitch = SPECIAL_ANGLES[2 + int(rng.integers(0, 2))]
    elif kind == "special":
        roll, pitch, yaw = (SPECIAL_ANGLES[i] for i in rng.integers(0, 4, 3))
    return roll, pitch, yaw


def _origin(rng, kind: str) -> SpatialTransform:
    if rng.random() < 0.15:
        return SpatialTransform.identity()
    xyz = rng.uniform(-0.5, 0.5, 3) if rng.random() < 0.8 else np.zeros(3)
    return SpatialTransform(rot_from_rpy(*_angles(rng, kind)), xyz)


def _inertial(rng) -> Inertial | None:
    if rng.random() < 0.3:
        return None
    com = tuple(rng.uniform(-0.1, 0.1, 3).tolist()) if rng.random() < 0.7 else (0.0,) * 3
    ixx, iyy, izz, ixy, ixz, iyz = rng.uniform(0.01, 0.2, 6).tolist()
    return Inertial(mass=float(rng.uniform(0.1, 5.0)), center_of_mass=com,
                    inertia=((ixx, ixy, ixz), (ixy, iyy, iyz), (ixz, iyz, izz)))


ANGLE_KINDS = ("zero", "uniform", "gimbal", "special")


@pytest.mark.parametrize("seed", range(20))
def test_generated_models_match_oracle(seed):
    """A random tree with random origins and inertials, written by the
    writer (against the oracle's bytes) and read back (against the
    oracle's origins), then written again."""
    rng = np.random.default_rng(seed)
    kind = ANGLE_KINDS[seed % len(ANGLE_KINDS)]
    base = random_tree_model(rng, max_bodies=25, max_loops=5)
    model = dataclasses.replace(
        base,
        name=f'random & <{seed}> "{kind}"',
        links=tuple(dataclasses.replace(link, inertial=_inertial(rng))
                    for link in base.links),
        tree_joints=tuple(dataclasses.replace(joint, origin=_origin(rng, kind))
                          for joint in base.tree_joints),
        loop_joints=tuple(dataclasses.replace(loop, predecessor_origin=_origin(rng, kind),
                                              successor_origin=_origin(rng, kind))
                          for loop in base.loop_joints),
    )
    text = serialize_urdf_plus(model)
    assert text == oracle_serialize(model)
    check_against_oracle(text)


@pytest.mark.parametrize("seed", range(4))
def test_written_rpy_angles_match_oracle(seed):
    """Origins as a file states them: every angle written out, the signed
    zeros and +/-pi/2 among them, and some attributes left out."""
    rng = np.random.default_rng(100 + seed)
    out = ['<robot name="angles">', '<link name="b0"/>']
    for i in range(60):
        rpy = " ".join(repr(a) for a in _angles(rng, ANGLE_KINDS[i % len(ANGLE_KINDS)]))
        xyz = " ".join(repr(v) for v in rng.uniform(-1.0, 1.0, 3).tolist())
        attrs = [f'xyz="{xyz}"' if i % 5 else "", f'rpy="{rpy}"' if i % 7 else ""]
        origin = f'<origin {" ".join(attrs)}/>' if i % 11 else ""
        out.append(f'<link name="b{i + 1}"/><joint name="j{i}" type="fixed">{origin}'
                   f'<parent link="b{i}"/><child link="b{i + 1}"/></joint>')
    out.append(f'<loop name="l" type="fixed"><predecessor name="b0"><origin rpy="{rpy}"/>'
               f'</predecessor><successor name="b60"/></loop></robot>')
    check_against_oracle("\n".join(out))
