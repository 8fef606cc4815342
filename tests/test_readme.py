"""README.md documents only flags the `pgft` CLI accepts, with the
parser's defaults, so the two cannot drift apart."""

import argparse
import re
from pathlib import Path

from pgft import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
# Flags in the README that belong to other tools.
_OTHER_TOOLS = {"--no-build-isolation"}  # pip's


def _defaults_by_flag():
    """{flag: {default, ...}} over every pgft subcommand."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    out = {}
    for subparser in sub.choices.values():
        for action in subparser._actions:
            for flag in action.option_strings:
                out.setdefault(flag, set()).add(action.default)
    return out


def test_readme_flags_exist():
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", README))
    assert "--epsilon2" in documented
    unknown = documented - set(_defaults_by_flag()) - _OTHER_TOOLS
    assert not unknown, f"README documents flags no subcommand accepts: {unknown}"


def test_readme_flag_defaults_match_parser():
    """Every "`--flag` (value)" in the README names the flag's default."""
    pairs = re.findall(r"`(--[a-z][a-z0-9-]*)` \(([^;)]+)", README)
    assert ("--grid-dim", "4096") in pairs
    defaults = _defaults_by_flag()
    for flag, value in pairs:
        assert defaults[flag] == {float(value)}, flag
