"""Byte-exact CLI outputs over every file under models/.

Each case runs `urdfplus.cli.main` in-process and compares its exit code,
standard output and standard error with `cli_golden.json`.  The fixture key
is "<path relative to models/> | <command form>".
"""

import json
from pathlib import Path

import pytest

from urdfplus.cli import main

TESTS_DIR = Path(__file__).resolve().parent
MODELS_DIR = TESTS_DIR.parent / "models"
FIXTURE = TESTS_DIR / "cli_golden.json"

FORMS = (
    ("validate",),
    ("validate", "--strict"),
    ("info",),
    ("graph", "--kind", "cg"),
    ("graph", "--kind", "cdd"),
    ("graph", "--kind", "lacg"),
    ("constraints",),
    ("constraints", "--strict"),
    ("constraints", "--json"),
)

PATHS = sorted(MODELS_DIR.rglob("*.urdf"))
CASES = [(path, form) for path in PATHS for form in FORMS]


def case_key(path: Path, form) -> str:
    return f"{path.relative_to(MODELS_DIR).as_posix()} | {' '.join(form)}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_every_case(golden):
    assert len(CASES) == 162
    assert sorted(golden) == sorted(case_key(path, form) for path, form in CASES)


@pytest.mark.parametrize(
    "path,form", CASES, ids=[case_key(path, form) for path, form in CASES]
)
def test_cli_bytes(capsys, golden, path, form):
    command, *flags = form
    code = main([command, str(path), *flags])
    captured = capsys.readouterr()
    want = golden[case_key(path, form)]
    assert code == want["exit"]
    assert captured.out == want["stdout"]
    assert captured.err == want["stderr"]
