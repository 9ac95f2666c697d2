"""README's examples run: the Python block of "Library" and every
`urdfplus ...` line of "Command line", from the repository root."""

import re
import shlex
from pathlib import Path

import pytest

from urdfplus.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def block(section: str, language: str) -> str:
    """The first fenced `language` block under the `## section` heading."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", body, re.S).group(1)


COMMANDS = [shlex.split(line, comments=True)[1:]
            for line in block("Command line", "sh").splitlines()
            if line.startswith("urdfplus ")]


def test_the_command_block_holds_four_commands():
    assert [args[0] for args in COMMANDS] == ["validate", "info", "graph", "constraints"]


@pytest.mark.parametrize("args", COMMANDS, ids=[" ".join(args) for args in COMMANDS])
def test_command_line_example(args, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert main(args) == 0
    assert capsys.readouterr().out


def test_library_example(monkeypatch):
    monkeypatch.chdir(ROOT)
    namespace = {}
    exec(compile(block("Library", "python"), "README.md", "exec"), namespace)
    assert namespace["report"].passed
    assert namespace["g"].matrix.shape == (namespace["numbered"].total_dof,
                                           namespace["report"].n_i)
