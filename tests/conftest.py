"""Suite-wide test configuration.

Hypothesis runs derandomized and without an example database, so every
tier-1 run draws the same examples on every host: a failing example
fails every run until the program is fixed.  Per-test ``@settings``
(``max_examples``, ``deadline``) still apply on top of this profile.
"""

import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture
def ledger(monkeypatch):
    """``perf_ledger/ledger.py`` loaded as a module, without running it."""
    path = Path(__file__).parents[1] / "perf_ledger" / "ledger.py"
    spec = importlib.util.spec_from_file_location("ledger", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "ledger", module)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec.loader.exec_module(module)
    return module
