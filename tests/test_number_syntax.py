"""Numbers as URDF's C/C++ parsers read them: ASCII text without '_'.

`float()` reads more: `1_0` as 10.0, Arabic-Indic digits as digits, and
after `split()` a no-break space separates numbers like a space.  The reader
refuses each of those in a numeric attribute with a located
`InvalidNumberError`, on its fast paths (a triple, the inertia row) and on
its per-part fallback (the path a triple or an inertia row takes when its
sum overflows); a `--config` value gets `ConfigurationError`'s "invalid
number".
"""

from __future__ import annotations

import re

import pytest

from urdfplus.cli import main
from urdfplus.constraints import parse_configuration
from urdfplus.errors import ConfigurationError, InvalidNumberError
from urdfplus.xmlio import parse_urdf_plus

NBSP, ARABIC_ONE = "\u00a0", "\u0661"  # a no-break space, an Arabic-Indic 1

def robot(origin="", axis="0 0 1", mimic="", inertial="", ratio="2"):
    """Three links, joints j and k and a coupling, all on line 2."""
    return "\n".join([
        '<robot name="r">',
        f'<link name="a">{inertial}</link><link name="b"/><link name="c"/>'
        f'<joint name="j" type="revolute" independent="true">{origin}'
        f'<parent link="a"/><child link="b"/><axis xyz="{axis}"/></joint>'
        '<joint name="k" type="revolute"><parent link="a"/><child link="c"/>'
        f'<axis xyz="0 0 1"/>{mimic}</joint>'
        f'<coupling name="g"><predecessor name="b"/><successor name="c"/>'
        f'<ratio value="{ratio}"/></coupling>',
        "</robot>",
    ])


def inertial(mass="1", ixx="1", ixy="0", ixz="0"):
    return (f'<inertial><mass value="{mass}"/><inertia ixx="{ixx}" ixy="{ixy}" '
            f'ixz="{ixz}" iyy="1" iyz="0" izz="1"/></inertial>')


# (the document, the text the error names, the element's tag, its path's tail)
REFUSED = [
    (robot(origin='<origin xyz="1_0 0 0"/>'), "1_0", "origin", "joint(j)/origin"),
    (robot(origin=f'<origin rpy="0 0 {ARABIC_ONE}"/>'), f"0 0 {ARABIC_ONE}", "origin",
     "joint(j)/origin"),
    (robot(origin=f'<origin xyz="1{NBSP}0 0"/>'), f"1{NBSP}0 0", "origin",
     "joint(j)/origin"),
    (robot(origin='<origin xyz="1e308 1e308 1_0"/>'), "1_0", "origin", "joint(j)/origin"),
    (robot(axis="0 0 1_0"), "1_0", "axis", "joint(j)/axis"),
    (robot(axis=f"0{NBSP}0 1"), f"0{NBSP}0 1", "axis", "joint(j)/axis"),
    (robot(inertial=inertial(mass="1_0")), "1_0", "mass", "link(a)/inertial"),
    (robot(inertial=inertial(mass=ARABIC_ONE)), ARABIC_ONE, "mass", "link(a)/inertial"),
    (robot(inertial=inertial(ixx="1_0")), "1_0", "inertia", "link(a)/inertial"),
    (robot(inertial=inertial(ixy=ARABIC_ONE)), ARABIC_ONE, "inertia", "link(a)/inertial"),
    (robot(inertial=inertial(ixz=f"{NBSP}0")), f"{NBSP}0", "inertia", "link(a)/inertial"),
    (robot(inertial=inertial(ixx="1e308", ixy="1e308", ixz="1_0")), "1_0", "inertia",
     "link(a)/inertial"),
    (robot(ratio="2_0"), "2_0", "ratio", "coupling(g)/ratio"),
    (robot(mimic='<mimic joint="j" multiplier="1_0"/>'), "1_0", "mimic",
     "joint(k)/mimic"),
]


@pytest.mark.parametrize("text, bad, tag, tail", REFUSED,
                         ids=[f"{tail}={bad}" for _, bad, _, tail in REFUSED])
def test_reader_refuses_what_urdf_parsers_refuse(text, bad, tag, tail):
    with pytest.raises(InvalidNumberError) as err:
        parse_urdf_plus(text)
    assert err.value.message == f"invalid number {bad!r}"
    assert err.value.line == 2
    assert err.value.column == text.splitlines()[1].index(f"<{tag} ") + 1
    assert err.value.path.endswith(tail)


def test_reader_reads_plain_numbers_as_before():
    """Signs, exponents, leading dots and ASCII white space around and
    between numbers (a tab written as a character reference) still read."""
    model = parse_urdf_plus(robot(origin='<origin xyz=" +1.5e1&#9;-.5  2E-1 "/>',
                                  inertial=inertial(mass=" 2 ", ixx="1e0"),
                                  ratio="-0.5")).model
    joint = model.tree_joints[0]
    assert joint.origin.trans.tolist() == [15.0, -0.5, 0.2]
    assert model.links[0].inertial.mass == 2.0
    assert model.links[0].inertial.inertia[0][0] == 1.0
    assert model.couplings[0].ratio == -0.5


@pytest.mark.parametrize("values", ["1_0", ARABIC_ONE, f"0.1{NBSP}0.2", f"0.1 -0{NBSP}",
                                    f"1e999{NBSP}"])
def test_configuration_refuses_what_urdf_parsers_refuse(wrist, values):
    """The message quotes the values as written, a trailing no-break space
    included; only ASCII white space around them is trimmed."""
    with pytest.raises(ConfigurationError,
                       match=f"^{re.escape(f'line 2: invalid number in {values!r}')}$"):
        parse_configuration(f"Joint1: 0.5 0.5\nJoint4: {values}\n", wrist.numbered)


def test_configuration_comment_may_hold_any_character(fourbar):
    q = parse_configuration(f"crank_pivot: 0.25 # {ARABIC_ONE}{NBSP}_\n", fourbar.numbered)
    assert q.tolist() == [0.25, 0.0, 0.0]


def test_cli_config_number_is_usage_error(capsys, tmp_path, models_dir):
    config = tmp_path / "q.cfg"
    config.write_text("crank_pivot: 1_0\n", encoding="utf-8")
    code = main(["constraints", str(models_dir / "fourbar.urdf"), "--config", str(config)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == "error: line 1: invalid number in '1_0'\n"


@pytest.mark.parametrize("control", ["\x1c", "\x1d", "\x1e", "\x1f"])
def test_configuration_splits_values_at_ascii_white_space_only(wrist, control):
    """str.split() also splits at the controls \\x1c-\\x1f, which float()
    and C's strtod do not read as white space."""
    values = f"0.1{control}0.2"
    with pytest.raises(ConfigurationError,
                       match=f"^{re.escape(f'line 1: invalid number in {values!r}')}$"):
        parse_configuration(f"Joint4: {values}\n", wrist.numbered)
    q = parse_configuration("Joint4: 0.1 \t\x0b\x0c0.2\n", wrist.numbered)
    assert q[-2:].tolist() == [0.1, 0.2]


def test_cli_config_control_between_values_is_usage_error(capsys, tmp_path, models_dir):
    config = tmp_path / "q.cfg"
    config.write_text("Joint4: 0.1\x1c0.2\n", encoding="utf-8")
    code = main(["constraints", str(models_dir / "wrist.urdf"), "--config", str(config)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == "error: line 1: invalid number in '0.1\\x1c0.2'\n"
