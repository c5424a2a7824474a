"""The README's command examples stay in step with the command-line flags."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from gathersim.cli import build_parser, main

REPO = Path(__file__).resolve().parent.parent


def readme_commands() -> list[list[str]]:
    """The arguments of every `gathersim ...` line in the README's code blocks,
    with lines continued by a trailing backslash joined first."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.split()[:1] == ["gathersim"]:
                commands.append(shlex.split(line, comments=True)[1:])
    return commands


COMMANDS = readme_commands()


def test_readme_shows_every_subcommand():
    assert {argv[0] for argv in COMMANDS} == {"validate", "simulate", "sweep", "region", "analyze"}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command_parses(argv):
    parser = build_parser()
    parser.parse_args(argv)
    # argparse also accepts a unique prefix of a flag, so a renamed flag could
    # still parse: every flag shown must be spelt out in full
    (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    known = subcommands.choices[argv[0]]._option_string_actions
    assert [w for w in argv if w.startswith("--") and w not in known] == []


@pytest.mark.parametrize(
    "argv", [argv for argv in COMMANDS if argv[0] in ("validate", "analyze")], ids=" ".join
)
def test_readme_validate_and_analyze_examples_run(argv, monkeypatch, capsys):
    monkeypatch.chdir(REPO)  # the examples name scenario files relative to the repo
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
