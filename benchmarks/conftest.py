"""Shared benchmark infrastructure.

Every file in this directory regenerates one table or figure of the paper,
or (``bench_curves.py``) the pinned scaling curves; the README's
"Reproduce the paper & the scaling curves" section indexes them.
Conventions:

* experiments run once via ``benchmark.pedantic(fn, rounds=1)`` — the
  timing pytest-benchmark reports is the *simulation wall time*, while the
  experiment's own output (the paper-shaped table) goes through
  :func:`report`, which both prints it to the real stdout (so it lands in
  ``bench_output.txt``) and writes ``benchmarks/results/<name>.txt``;
* the ``REPRO_FULL=1`` environment variable unlocks the paper's full-size
  configurations (256+ cores, n=500/1000 Gaussian matrices) — the default
  tier keeps the whole suite under ~10 minutes on a laptop;
* shape assertions encode the paper's qualitative claims, so a regression
  that breaks the reproduction fails the suite rather than silently
  printing different numbers.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

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


@pytest.fixture(scope="session")
def h264_trace():
    from repro.traces import h264_wavefront_trace

    return h264_wavefront_trace()


@pytest.fixture(scope="session")
def independent_trace_full():
    from repro.traces import independent_trace

    return independent_trace()
