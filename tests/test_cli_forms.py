"""Byte-exact outputs of the CLI forms that `cli_golden.json` lacks:
a configuration file, a rank tolerance, `--json --strict` together, and
`graph --out`.

Each case runs `urdfplus.cli.main` in-process and compares its exit code,
standard output, standard error and, for `--out`, the written file with
`cli_forms.json`.  The fixture key is the case tuple joined by spaces; a
configuration is named by its key in CONFIGS.
"""

import json
from pathlib import Path

import pytest

from urdfplus.cli import main

TESTS_DIR = Path(__file__).resolve().parent
MODELS_DIR = TESTS_DIR.parent / "models"
FIXTURE = TESTS_DIR / "cli_forms.json"

CONFIGS = {
    "fourbar_closed": "crank_pivot: 0.4\nrocker_pivot: 0.4\ncoupler_pivot: -0.4\n",
    "fourbar_open": "crank_pivot: 0.3\n",
    "wrist_open": "Joint1: 0.3 -0.2\n",
    "belt": "knee: 0.3\nankle: 0.5\nmotor_rotor: 0.4\n",
}

CASES = (
    ("constraints", "fourbar.urdf", "--config", "fourbar_closed"),
    ("constraints", "wrist.urdf", "--config", "wrist_open"),
    ("constraints", "belt.urdf", "--config", "belt"),
    ("validate", "fourbar.urdf", "--config", "fourbar_open"),
    ("validate", "wrist.urdf", "--config", "wrist_open"),
    ("constraints", "wrist.urdf", "--tolerance", "0.3"),
    ("constraints", "wrist.urdf", "--tolerance", "0.6"),
    ("constraints", "fourbar.urdf", "--json", "--strict", "--config", "fourbar_open"),
    ("constraints", "wrist.urdf", "--json", "--strict"),
    ("graph", "wrist.urdf", "--kind", "lacg", "--out"),
)


def run_case(case, tmp_path: Path, capsys) -> dict:
    """Run one case; returns what the fixture records for it."""
    command, model, *flags = case
    argv = [command, str(MODELS_DIR / model)]
    out_file = tmp_path / "out.dot"
    rest = iter(flags)
    for flag in rest:
        argv.append(flag)
        if flag == "--config":
            config = tmp_path / "q.cfg"
            config.write_text(CONFIGS[next(rest)], encoding="utf-8")
            argv.append(str(config))
        elif flag == "--out":
            argv.append(str(out_file))
    code = main(argv)
    captured = capsys.readouterr()
    record = {"exit": code, "stdout": captured.out, "stderr": captured.err}
    if "--out" in flags:
        record["file"] = out_file.read_text(encoding="utf-8")
    return record


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_case(recorded):
    assert sorted(recorded) == sorted(" ".join(case) for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=[" ".join(case) for case in CASES])
def test_cli_form_bytes(recorded, case, tmp_path, capsys):
    assert run_case(case, tmp_path, capsys) == recorded[" ".join(case)]
