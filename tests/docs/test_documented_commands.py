"""Every documented ``python -m repro`` command still parses.

The commands in the README, ARCHITECTURE.md, the ``repro.cli`` module
docstring and the CI workflow go through the CLI's own argument parser
(and, for the machine commands, the ``SystemConfig`` they describe)
without running a simulation, so a flag or knob the CLI no longer has
fails here rather than in a reader's shell.
"""

import re
import shlex
from pathlib import Path

import pytest

from repro import cli
from test_cli import REMOVED_FLAGS

REPO = Path(__file__).resolve().parents[2]

#: No doc may name a per-knob flag ``--set`` replaced, not even in a
#: comment.
REMOVED = re.compile(f"({'|'.join(REMOVED_FLAGS)})(?![\\w-])")


def _sources():
    docs = {
        name: (REPO / name).read_text()
        for name in ("README.md", "ARCHITECTURE.md", ".github/workflows/ci.yml")
    }
    docs["repro.cli docstring"] = cli.__doc__
    return docs


def _commands(text: str):
    """The argument lists of every ``python -m repro`` command in ``text``:
    backslash continuations joined, each command cut at the end of its
    line or its inline-code span, comments dropped."""
    text = text.replace("\\\n", " ")
    for match in re.finditer(r"python -m repro\b([^\n`]*)", text):
        tokens = shlex.split(match.group(1), comments=True)
        if tokens:  # a bare mention of ``python -m repro`` names no command
            yield tokens


COMMANDS = [
    pytest.param(tokens, id=f"{name}: {' '.join(tokens)}")
    for name, text in _sources().items()
    for tokens in _commands(text)
]


@pytest.mark.parametrize("name", sorted(_sources()))
def test_every_source_documents_a_command(name):
    assert list(_commands(_sources()[name])), f"no repro command found in {name}"


@pytest.mark.parametrize("name", sorted(_sources()))
def test_no_removed_flag_is_documented(name):
    found = sorted({m.group(0) for m in REMOVED.finditer(_sources()[name])})
    assert not found, f"{name} still names removed flags {found}; use --set KNOB=VALUE"


@pytest.mark.parametrize("argv", COMMANDS)
def test_documented_command_parses(argv):
    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"argparse rejected the documented command (exit {exc.code})")
    if hasattr(args, "stack"):
        axes = cli._parse_knobs("axis", getattr(args, "axis", []), many=True)
        cli._config_from(args, **{knob: values[0] for knob, values in axes.items()})
