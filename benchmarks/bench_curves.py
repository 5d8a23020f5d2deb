"""The pinned experiments as one benchmark: a test per
``repro.experiments.CURVES`` row.

Each test runs its row's sweep under ``benchmark.pedantic``, rewrites
``BENCH_<name>.json`` at the repository root, emits the row's table
through :func:`conftest.report` and asserts the row's shape::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_curves.py
    PYTHONPATH=src python -m pytest -q benchmarks/bench_curves.py -k fig7
"""

from pathlib import Path

import pytest
from conftest import report

from repro.experiments import CURVES

REPO = Path(__file__).parent.parent


@pytest.mark.parametrize("curve", CURVES, ids=lambda c: c.name)
def test_curve(benchmark, curve):
    rep = benchmark.pedantic(curve.sweep, rounds=1, iterations=1)
    curve.write(rep, REPO)
    report(curve.name, curve.render(rep))
    curve.check_shape(rep)
