"""Shared benchmark infrastructure.

``bench_curves.py`` holds every pinned experiment, the paper's figures
and the scaling curves alike, one ``CURVES`` row each; the README's
"Reproduce the paper & the scaling curves" section indexes them.
Conventions:

* experiments run once via ``benchmark.pedantic(fn, rounds=1)`` — the
  timing pytest-benchmark reports is the *simulation wall time*, while the
  experiment's own output (the paper-shaped table) goes through
  :func:`report`, which both prints it to the real stdout (so it lands in
  ``bench_output.txt``) and writes ``benchmarks/results/<name>.txt``;
* the ``REPRO_FULL=1`` environment variable unlocks the paper's full-size
  configurations (256 cores, the n=500 Gaussian matrix, every core
  count); the module docstring of ``bench_curves.py`` lists what the
  default tier drops;
* shape assertions encode the paper's qualitative claims, so a regression
  that breaks the reproduction fails the suite rather than silently
  printing different numbers.
"""

from __future__ import annotations

import os
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"

FULL = bool(int(os.environ.get("REPRO_FULL", "0")))


#: Reports accumulated during the run, re-emitted in the terminal summary
#: (pytest's fd capture swallows ordinary prints from passing tests).
_PENDING_REPORTS: list[tuple[str, str]] = []


def report(name: str, text: str) -> None:
    """Emit experiment output: persists to disk + shows in the summary."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    _PENDING_REPORTS.append((name, text))


def pytest_terminal_summary(terminalreporter):
    """Print every experiment's paper-shaped tables after the test results."""
    for name, text in _PENDING_REPORTS:
        terminalreporter.write_line("")
        terminalreporter.write_line("=" * 78)
        terminalreporter.write_line(f"{name}   (also saved to benchmarks/results/{name}.txt)")
        terminalreporter.write_line("=" * 78)
        for line in text.splitlines():
            terminalreporter.write_line(line)

