"""README.md documents only flags and commands the `pgft` CLI accepts,
with the parser's defaults, so the two cannot drift apart."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from pgft import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _subparsers():
    """{name: parser} of every pgft subcommand."""
    return next(a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _defaults_by_flag():
    """{flag: {default, ...}} over every pgft subcommand."""
    out = {}
    for subparser in _subparsers().values():
        for action in subparser._actions:
            for flag in action.option_strings:
                out.setdefault(flag, set()).add(action.default)
    return out


def test_readme_flags_exist():
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", README))
    assert "--cluster-size" in documented
    unknown = documented - set(_defaults_by_flag())
    assert not unknown, f"README documents flags no subcommand accepts: {unknown}"


def test_readme_flag_defaults_match_parser():
    """Every "`--flag` (value)" in the README names the flag's default."""
    pairs = re.findall(r"`(--[a-z][a-z0-9-]*)` \(([^;)]+)", README)
    assert ("--grid-dim", "4096") in pairs
    defaults = _defaults_by_flag()
    for flag, value in pairs:
        assert defaults[flag] == {float(value)}, flag


def test_readme_commands_parse(capsys):
    """Each `pgft ...` line of README's bash blocks, continuations joined,
    parses as written: its flags belong to its subcommand and every
    required flag is there.  Nothing is run."""
    commands = [line for block in re.findall(r"```bash\n(.*?)```", README,
                                             re.S)
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("pgft ")]
    assert {c.split()[1] for c in commands} == set(_subparsers())
    parser = cli.build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"{command!r}: {capsys.readouterr().err}")
