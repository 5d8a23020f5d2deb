"""Shared infrastructure of ``bench_curves.py``, which runs every
``repro.experiments.CURVES`` row once via ``benchmark.pedantic(fn,
rounds=1)``: pytest-benchmark reports the simulation wall time, while
the row's paper-shaped table goes through :func:`report`, which writes
``benchmarks/results/<name>.txt`` and prints it in the terminal summary
(pytest's capture swallows a passing test's prints).  ``REPRO_FULL=1``
selects the paper's full-size tier (the ``repro.experiments`` docstring
lists its points), and the shape assertions encode the paper's
qualitative claims, so a regression fails rather than printing
different numbers.
"""

from __future__ import annotations

from pathlib import Path

import pytest

# The shape checks live in the package: rewrite their asserts so that a
# failing check reports its operands, as a test's own asserts do.
pytest.register_assert_rewrite("repro.experiments")

from repro.experiments import FULL  # noqa: E402

RESULTS_DIR = Path(__file__).parent / "results"


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
    if FULL and _PENDING_REPORTS:
        terminalreporter.write_line(
            "REPRO_FULL=1 wrote the full-tier BENCH_*.json documents; "
            "re-run the default tier before committing"
        )
