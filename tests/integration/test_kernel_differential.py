"""Differential tests for the timing-wheel simulation kernel.

The timing wheel must replay the heap ordering oracle's schedule
**cycle-for-cycle** on the full feature stack — every engine
(single-Maestro, forced sharded at 1 shard, 2 and 4 shards), with the
complete knob pile on (multi-master batched submission, retire
pipelining, fast dispatch, staged resolve with coalescing + speculative
kick-off, decentralized check scatter with check coalescing), with and
without the windowed telemetry sampler pausing the run at every window.

There are no pinned golden constants here: the heap kernel lives in
``tests/sim/heap_kernel.py``, and each case runs the same machine twice —
once with the machine's ``Simulator`` swapped for the oracle — and
compares complete schedules directly.  (The pinned goldens in the sibling
differential tests, recorded on the heap kernel, independently pin the
wheel kernel's absolute schedules.)
"""

import hashlib
import sys
from pathlib import Path

import pytest

import repro.machine.machine
from repro.config import BUS_MODEL_FITTED, SystemConfig
from repro.machine import run_trace
from repro.sim import NS
from repro.traces import gaussian_trace, random_trace

# The heap ordering oracle lives beside the kernel tests in tests/sim.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "sim"))
from heap_kernel import HeapSimulator  # noqa: E402


def _random():
    return random_trace(
        400,
        n_addresses=96,
        max_params=6,
        seed=7,
        mean_exec=4000,
        mean_memory=0,
        name="random-hazard-dense",
    )


def _gaussian():
    return gaussian_trace(28)


TRACES = {"random": _random, "gaussian": _gaussian}

ENGINES = {
    "single": dict(),
    "forced1": dict(maestro_shards=1, force_sharded_maestro=True),
    "shards2": dict(maestro_shards=2),
    "shards4": dict(maestro_shards=4),
}


def _config(engine: str, **extra) -> SystemConfig:
    base = dict(
        workers=8,
        master_cores=4,
        submission_batch=8,
        memory_contention=False,
        bus_model=BUS_MODEL_FITTED,
        **extra,
    )
    if engine != "single":
        # The full PR 6 stack: retire pipeline + fast dispatch + staged
        # resolve + decentralized, coalescing check path.
        base.update(
            retire_pipeline_depth=4,
            td_cache_entries=16,
            td_prefetch_depth=2,
            kickoff_fast_path=True,
            finish_coalesce_limit=8,
            speculative_kickoff=True,
            decentralized_check_scatter=True,
            check_coalesce_limit=8,
        )
    base.update(ENGINES[engine])
    return SystemConfig(**base)


def _schedule_digest(result) -> str:
    """Digest of every task's full lifecycle: any single-event drift in
    ready/dispatch/exec/retire timing or core assignment changes it."""
    rows = [
        (r.tid, r.core, r.ready, r.dispatched, r.exec_start, r.completed)
        for r in result.records
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def _modelled(result) -> str:
    """Every statistic except the host-side kernel profile and the
    wall-clock telemetry signals."""
    stats = dict(result.stats)
    stats.pop("sim")
    telemetry = stats.get("telemetry")
    if telemetry:
        host = set(telemetry.get("host_signals", []))
        telemetry = dict(telemetry)
        telemetry["signals"] = {
            k: v for k, v in telemetry["signals"].items() if k not in host
        }
        stats["telemetry"] = telemetry
    return repr(stats)


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("trace_name", sorted(TRACES))
def test_wheel_kernel_is_cycle_identical_to_heap(trace_name, engine, monkeypatch):
    trace = TRACES[trace_name]()
    config = _config(engine)
    wheel = run_trace(trace, config)
    monkeypatch.setattr(repro.machine.machine, "Simulator", HeapSimulator)
    heap = run_trace(trace, config)
    assert wheel.makespan == heap.makespan
    assert _schedule_digest(wheel) == _schedule_digest(heap)
    assert _modelled(wheel) == _modelled(heap)
    # The kernels fire the same events, not merely equivalent schedules.
    assert (
        wheel.stats["sim"]["events_processed"]
        == heap.stats["sim"]["events_processed"]
    )


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_telemetry_sampled_run_is_cycle_identical_to_heap(engine, monkeypatch):
    """The telemetry host loop pauses and resumes the kernel with
    ``run(until=)`` at every window boundary; the wheel must still fire
    the oracle's events, and the sampled series must match too."""
    trace = _random()
    config = _config(engine, telemetry_window=100 * NS)
    wheel = run_trace(trace, config)
    monkeypatch.setattr(repro.machine.machine, "Simulator", HeapSimulator)
    heap = run_trace(trace, config)
    assert wheel.stats["telemetry"]["signals"]
    assert wheel.makespan == heap.makespan
    assert _schedule_digest(wheel) == _schedule_digest(heap)
    assert _modelled(wheel) == _modelled(heap)
    assert (
        wheel.stats["sim"]["events_processed"]
        == heap.stats["sim"]["events_processed"]
    )
