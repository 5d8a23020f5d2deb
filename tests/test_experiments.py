"""The pinned experiments, ``repro.experiments``, and ``repro reproduce``."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import experiments
from repro.cli import main

REPO = Path(__file__).parents[1]

#: The rows that fit the tier-1 budget (about 1-4 s each): the six grid
#: curves, the efficiency curve and the two paper ablations on small
#: traces.  The benchmark step writes all fifteen.
TIER1_ROWS = [
    "shard_scaling",
    "submission_scaling",
    "retire_scaling",
    "dispatch_latency",
    "resolve_latency",
    "check_scaling",
    "efficiency",
    "renaming_ablation",
    "versatility",
]


def test_every_pinned_file_has_one_curve():
    pinned = sorted(p.name for p in REPO.glob("BENCH_*.json"))
    named = sorted(c.file_name for c in experiments.CURVES)
    assert named == pinned, "CURVES must name each BENCH_*.json exactly once"


def test_experiments_stay_off_the_import_paths_and_off_pytest():
    """``import repro`` and the modules the perf ledger imports do not
    load the experiment table, and the table does not load pytest."""
    script = """
import sys

import repro
import repro.config, repro.machine, repro.runtime, repro.sim, repro.traces

assert "repro.experiments" not in sys.modules, "repro loaded the experiments"
import repro.experiments

assert "pytest" not in sys.modules, "repro.experiments loaded pytest"
print("ok")
"""
    src = Path(repro.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().endswith("ok")


@pytest.mark.parametrize("name", TIER1_ROWS)
def test_reproduce_writes_the_pinned_document(name, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["reproduce", name]) == 0
    out = capsys.readouterr().out
    assert f"machine-readable curve: BENCH_{name}.json" in out
    assert [p.name for p in tmp_path.iterdir()] == [f"BENCH_{name}.json"]
    written = (tmp_path / f"BENCH_{name}.json").read_bytes()
    assert written == (REPO / f"BENCH_{name}.json").read_bytes()


def test_reproduce_rejects_an_unknown_name_with_the_rows():
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "fig9"])
    message = str(exc.value.code)
    assert "unknown experiment" in message
    assert all(c.name in message for c in experiments.CURVES)


def test_reproduce_exits_1_with_the_failed_assertion(capsys, tmp_path, monkeypatch):
    def impossible(rep, at):
        assert at(series="reduction 256", workers=16)["violations"] > 0

    monkeypatch.setattr(experiments, "CURVES", [
        dataclasses.replace(c, check=impossible) if c.name == "versatility" else c
        for c in experiments.CURVES
    ])
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "versatility"])
    message = exc.value.code
    assert message.startswith("versatility: shape check failed in impossible: ")
    assert 'at(series="reduction 256", workers=16)["violations"] > 0' in message
    # The document and the table come first, as for a passing row.
    assert (tmp_path / "BENCH_versatility.json").exists()
    assert "Extension workloads" in capsys.readouterr().out


def test_the_efficiency_row_shares_the_one_runtime_switch():
    """The efficiency row pairs, per spin time, the memoized runs of that
    spin's ``TRACES`` key: ``run`` hands back the very results it used."""
    (curve,) = [c for c in experiments.CURVES if c.name == "efficiency"]
    rep = curve.sweep()
    cfg = repro.LADDER["contention-free"]
    spin = min(experiments.SPINS_NS)
    hw, sw = rep.runs[spin]
    key = experiments.spin_key(spin)
    assert experiments.run(key, cfg, software=True) is sw
    assert experiments.run(key, cfg) is hw
    assert experiments.TRACES[key] == (
        "wait-chain", {**experiments.CHAIN, "spin_ns": spin}
    )
