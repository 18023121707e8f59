"""The README's examples run as written: each command of its "Command line"
block through cli.main, and its "Library quickstart" block.  Its "Command
line" section names every option of the CLI.  Its oracle ledger has a row
for every public function of bath, gaussian and spinboson, and cites only
tests that exist.  Its claims ledger gives each verdict in the fixed form,
cites only tests that exist, and cites every strict xfail.  Its count of
strict-xfail checks, and of known discrepancies, is the suite's number of
strict xfails."""

import argparse
import re
import shlex
import types
from pathlib import Path

import pytest

from dissipent import bath, gaussian, spinboson
from dissipent.cli import build_parser, main

TESTS = Path(__file__).resolve().parent
README = (TESTS.parent / "README.md").read_text(encoding="utf-8")


def section(heading: str) -> str:
    """The text from the "## heading" line to the next "## " heading."""
    return README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def fenced_block(heading: str, lang: str) -> str:
    """The first ```lang block of the "## heading" section."""
    return re.search(rf"```{lang}\n(.*?)```", section(heading), re.S).group(1)


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


def options(parser) -> set:
    """Every option string of parser and of its subcommands, but --help."""
    found = set()
    for action in parser._actions:
        found.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                found |= options(sub)
    return found - {"-h", "--help"}


def test_readme_names_every_cli_option():
    text = section("Command line")
    missing = [o for o in options(build_parser()) if not re.search(rf"{o}(?![\w-])", text)]
    assert not missing, sorted(missing)


def test_readme_library_quickstart(capsys):
    exec(compile(fenced_block("Library quickstart", "python"), "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2


# (function cell, test cell) of each row of the oracle ledger's table
LEDGER = [
    (cells[1], cells[3])
    for cells in (line.split("|") for line in section("Oracle ledger").splitlines())
    if len(cells) == 6 and cells[1].startswith(" `")
]


@pytest.mark.parametrize("module", [bath, gaussian, spinboson], ids=lambda m: m.__name__)
def test_oracle_ledger_has_a_row_per_public_function(module):
    named = {re.match(r" `(\w+)`", function).group(1) for function, _ in LEDGER}
    public = [n for n in module.__all__ if isinstance(getattr(module, n), types.FunctionType)]
    assert public and set(public) <= named, sorted(set(public) - named)


def cites_tests_that_exist(cells: list) -> None:
    """Each `file::test` cited in cells names a test function of that file."""
    cited = [c for tests in cells for c in re.findall(r"`(test_\w+\.py)::(test_\w+)`", tests)]
    assert len(cited) >= len(cells)
    for file, name in cited:
        assert re.search(rf"^def {name}\(", (TESTS / file).read_text(encoding="utf-8"), re.M), name


def test_oracle_ledger_cites_tests_that_exist():
    cites_tests_that_exist([tests for _, tests in LEDGER])


# (verdict cell, test cell) of each row of the claims ledger's table
CLAIMS = [
    (cells[2], cells[3])
    for cells in (line.split("|") for line in section("Claims ledger").splitlines())
    if len(cells) == 5 and "**" in cells[2]
]
VERDICT = r"\*\*(?:confirmed|refuted|open \(item \d+\))\*\* for the (?:closed forms|max rule|model)\b"

# the test functions marked strict-xfail, by file
STRICT_XFAILS = {
    path.name: re.findall(r"@pytest\.mark\.xfail\(\s*strict=True.*?\)\ndef (test_\w+)\(",
                          path.read_text(encoding="utf-8"), re.S)
    for path in TESTS.glob("test_*.py")
}


def test_claims_ledger_gives_each_verdict_in_the_fixed_form():
    assert len(CLAIMS) >= 5
    for verdict, _ in CLAIMS:
        assert len(re.findall(VERDICT, verdict)) == verdict.count("**") // 2 > 0, verdict


def test_claims_ledger_cites_tests_that_exist():
    cites_tests_that_exist([tests for _, tests in CLAIMS])


def test_claims_ledger_cites_every_strict_xfail():
    cited = {c for _, tests in CLAIMS for c in re.findall(r"`(test_\w+\.py::test_\w+)`", tests)}
    marked = {f"{file}::{name}" for file, names in STRICT_XFAILS.items() for name in names}
    assert marked and not marked - cited, sorted(marked - cited)


COUNTS = {"Three": 3, "Four": 4, "Five": 5, "Six": 6}


def test_readme_counts_the_strict_xfails():
    # "N checks are marked strict-`xfail`" and "N standard claims" with N
    # numbered known discrepancies: one per strict xfail of the suite
    marked = sum(map(len, STRICT_XFAILS.values()))
    checks = re.search(r"(\w+) checks are marked strict-`xfail`", README).group(1)
    claims = re.search(r"(\w+) standard claims", section("Known analytical discrepancies")).group(1)
    items = re.findall(r"^\d+\. \*\*", section("Known analytical discrepancies"), re.M)
    assert COUNTS[checks] == COUNTS[claims] == len(items) == marked
