"""The README's examples run as written: each command of its "Command line"
block through cli.main, and its "Library quickstart" block."""

import re
import shlex
from pathlib import Path

import pytest

from dissipent.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_block(heading: str, lang: str) -> str:
    """The first ```lang block after the "## heading" line."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


COMMANDS = [
    shlex.split(cmd)
    for cmd in fenced_block("Command line", "sh").replace("\\\n", " ").splitlines()
    if cmd.strip()
]


def test_the_command_line_block_is_parsed():
    # an empty list would leave the test below with nothing to run
    assert COMMANDS and all(argv[0] == "dissipent" for argv in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(a[1:3]) for a in COMMANDS])
def test_readme_command_exits_zero(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the --output files land here
    assert main(argv[1:]) == 0
    assert capsys.readouterr().err == ""


def test_readme_library_quickstart(capsys):
    exec(compile(fenced_block("Library quickstart", "python"), "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2
