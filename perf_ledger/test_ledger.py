"""Smoke test of the performance ledger, on every workload at a tiny scale.

Run from the repository root with ``python3 -m pytest perf_ledger/test_ledger.py``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ledger
from repro.machine import NexusMachine
from repro.runtime import build_task_graph
from repro.traces import wait_chain_trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCALE = "0.02"


def _ledger(tmp_path: Path, tag: str, *extra: str):
    out = tmp_path / f"{tag}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "ledger.py"), "--scale", SCALE, "--out", str(out), *extra],
        stdout=subprocess.PIPE,
        text=True,
        timeout=600,
    )
    return proc, json.loads(out.read_text())


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ledger")
    return _ledger(tmp, "traced", "--trace"), _ledger(tmp, "untraced")


def test_every_metric_appears_with_its_unit(two_runs):
    (proc, result), _ = two_runs
    assert proc.returncode == 0
    for name, record in result["workloads"].items():
        expected = {m.name for m in ledger.CATALOGUE if not m.only or name in m.only}
        assert set(record["metrics"]) == expected, name
        for metric, entry in record["metrics"].items():
            assert entry["unit"] == ledger.METRICS[metric].unit
        assert record["attempted"] > 0 and record["failed"] == 0, record["problems"]

    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert set(line["metrics"]) == {
        f"{w}.{m.name}" for w in ledger.WORKLOADS for m in ledger.line_metrics(True)
    }


def test_deterministic_metrics_repeat_exactly(two_runs):
    (_, a), (_, b) = two_runs
    for name, record in a["workloads"].items():
        for metric, entry in record["metrics"].items():
            if not ledger.METRICS[metric].host:
                assert b["workloads"][name]["metrics"][metric] == entry, (name, metric)


def test_corrupted_record_is_counted_as_failed():
    wl = ledger.WORKLOADS["wait-chain"]
    trace = wait_chain_trace(4, 6, spin_ns=250)
    result = NexusMachine(wl.config).run(trace)
    assert wl.verify(trace, [result]) == (0, [])

    graph = build_task_graph(trace)
    succ = next(t for t in range(len(trace)) if graph.predecessors[t])
    pred = min(graph.predecessors[succ])
    # The successor fetches its inputs before the predecessor wrote them back.
    result.records[succ].fetch_start = result.records[pred].writeback_end - 1
    failed, problems = wl.verify(trace, [result])
    assert failed == 1 and problems


def test_sampler_attributes_kernel_samples_to_sim_core():
    mesh = ledger.WORKLOADS["kernel-mesh"].build(seed=1, scale=0.1)
    with ledger.ModuleSampler() as sampler:
        mesh.sim.run()
    layers = sampler.layers()
    assert layers["sim.core"] > 0
    assert set(layers) == set(ledger.SELF_LAYERS)
    assert ledger.layer_of("repro.scoreboard") == "machine"
    assert ledger.layer_of("repro.traces.gaussian") == "traces"
    assert ledger.layer_of("repro.hw.not_written_yet") == "other"


def test_comparator_verdicts():
    tasks = ledger.METRICS["tasks_per_s"]
    assert ledger.verdict(tasks, [100, 101, 99], [100, 100, 101]) == "same"
    assert ledger.verdict(tasks, [100, 101, 99], [70, 71, 69]) == "worse"
    assert ledger.verdict(tasks, [100, 101, 99], [130, 131, 129]) == "better"
    assert ledger.verdict(tasks, [100, 150, 60, 130], [100, 101, 99]) == "unresolved"
    makespan = ledger.METRICS["makespan_us"]
    assert ledger.verdict(makespan, [5.0, 5.0], [5.0, 5.0]) == "same"
    assert ledger.verdict(makespan, [5.0, 5.0], [5.000001, 5.000001]) == "worse"


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == [HERE.name]
    assert spec["workloads"] == [
        {"name": w.name, "why": w.why} for w in ledger.WORKLOADS.values()
    ]
    for key, traced in (("end_to_end", False), ("per_layer", True)):
        listed = {m["name"]: m for m in spec[key]}
        assert list(listed) == [m.name for m in ledger.line_metrics(traced)]
        for metric in ledger.line_metrics(traced):
            entry = listed[metric.name]
            assert (entry["unit"], entry["better"]) == (metric.unit, metric.better)
            assert entry.get("bound") == metric.bound


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/ledger.py", "--workload", "kernel-mesh"],
        cwd=tmp_path,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
