"""`cli.main` can be called again in one process: every call gives the exit
code, standard output and standard error of `python -m urdfplus.cli` in a
fresh process."""

from __future__ import annotations

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from urdfplus.cli import main

ROOT = Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"
COLUMNS = "80"  # argparse wraps its help and usage to the terminal's width

CALLS = [
    ["validate", str(MODELS / "wrist.urdf")],
    ["graph", str(MODELS / "wrist.urdf"), "--kind", "lacg"],
    ["constraints", str(MODELS / "wrist.urdf"), "--json"],
    ["info", str(MODELS / "belt.urdf")],
    ["--version"],
    ["--help"],
    ["graph", str(MODELS / "wrist.urdf"), "--kind", "nope"],
]


def fresh(argv):
    env = dict(os.environ, COLUMNS=COLUMNS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-m", "urdfplus.cli", *argv], env=env,
                            capture_output=True, text=True, timeout=60)
    return result.returncode, result.stdout, result.stderr


def test_main_twice_in_one_process_matches_fresh_processes(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", COLUMNS)
    with ThreadPoolExecutor(max_workers=4) as pool:
        expected = pool.map(fresh, CALLS)
        got = []
        for argv in CALLS:
            for _ in range(2):
                code = main(list(argv))
                captured = capsys.readouterr()
                got.append((code, captured.out, captured.err))
        expected = list(expected)
    assert [code for code, _, _ in expected] == [0, 0, 0, 0, 0, 0, 3]
    for k, want in enumerate(expected):
        assert got[2 * k] == want, CALLS[k]
        assert got[2 * k + 1] == want, CALLS[k]
