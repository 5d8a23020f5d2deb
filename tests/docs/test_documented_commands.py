"""Every documented ``python -m repro`` command still parses.

The commands in the README, ARCHITECTURE.md, the ``repro.cli`` module
docstring and the CI workflow go through the CLI's own argument parser
(and, for the machine commands, the ``SystemConfig`` and the workload
parameters they describe) without running a simulation, so a flag, knob
or parameter the CLI no longer has fails here rather than in a reader's
shell.  Every README ``run`` command is also run, twice, under the
``slow`` marker: its two metrics documents must be equal outside ``host``.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import cli
from test_cli import REMOVED_FLAGS

REPO = Path(__file__).resolve().parents[2]

#: No documented command, not even in a comment, and no CLI prose may name
#: a per-knob flag ``--set`` replaced or a per-workload flag ``--param``
#: replaced (other programs, such as the ledger, keep their own flags).
REMOVED = re.compile(f"({'|'.join(REMOVED_FLAGS)})(?![\\w-])")


def _sources():
    docs = {
        name: (REPO / name).read_text()
        for name in ("README.md", "ARCHITECTURE.md", ".github/workflows/ci.yml")
    }
    docs["repro.cli docstring"] = cli.__doc__
    return docs


def _command_texts(text: str) -> list:
    """The argument text of every ``python -m repro`` command in ``text``:
    backslash continuations joined, each command cut at the end of its
    line or its inline-code span."""
    text = text.replace("\\\n", " ")
    return re.findall(r"python -m repro\b([^\n`]*)", text)


def _commands(text: str):
    """The argument lists of every ``python -m repro`` command in
    ``text``, comments dropped."""
    for args in _command_texts(text):
        tokens = shlex.split(args, comments=True)
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
    text = _sources()[name]
    if name != "repro.cli docstring":
        text = "\n".join(_command_texts(text))
    found = sorted({m.group(0) for m in REMOVED.finditer(text)})
    assert not found, (
        f"{name} still names removed flags {found}; use --set KNOB=VALUE "
        "or --param NAME=VALUE"
    )


@pytest.mark.parametrize("argv", COMMANDS)
def test_documented_command_parses(argv):
    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"argparse rejected the documented command (exit {exc.code})")
    if hasattr(args, "stack"):
        axes = cli._parse_knobs(
            "axis", getattr(args, "axis", []), cli._KNOBS, "knob", many=True
        )
        cli._config_from(args, **{knob: values[0] for knob, values in axes.items()})
    if hasattr(args, "workload"):
        cli._workload_params(args)
    if args.command == "reproduce":
        from repro.experiments import CURVES

        assert args.name in [c.name for c in CURVES], f"no experiment {args.name!r}"


README_RUNS = [
    pytest.param(tokens, id=" ".join(tokens))
    for tokens in _commands((REPO / "README.md").read_text())
    if tokens[0] == "run"
]


@pytest.mark.slow
@pytest.mark.parametrize("argv", README_RUNS)
def test_readme_run_writes_the_same_metrics_twice(argv, tmp_path):
    """Run from a scratch directory (the commands write their outputs
    there), the command's two ``--metrics-out`` documents differ only in
    ``host``, so ``repro report A B`` exits 0."""
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
    repro_cli = [sys.executable, "-m", "repro"]
    docs = [str(tmp_path / f"metrics-{run}.json") for run in "ab"]
    for doc in docs:
        proc = subprocess.run(
            [*repro_cli, *argv, "--metrics-out", doc], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
    proc = subprocess.run(
        [*repro_cli, "report", *docs], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
