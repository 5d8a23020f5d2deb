"""Large-trace end-to-end runs: the wheel kernel's reason to exist.

The timing-wheel kernel and the streaming trace generator together put
100k+-task traces in reach; this file pins three waypoints — a 2k-task
trace on each engine, a 50k-task trace and a million-task run — each
simulated end-to-end.  Every seeded run fires an exact number of kernel
events, so the waypoints assert that count (deterministic) rather than a
wall-clock budget: a different count means the machine or the kernel
changed its schedule.  The two large waypoints are marked ``slow`` and
deselected by ``pytest.ini``; run them with ``pytest -m slow``.
"""

import hashlib

import pytest

from repro.config import SystemConfig
from repro.machine import run_trace
from repro.traces import random_trace

#: Per engine: kernel events, makespan (ps) and schedule digest of the
#: seeded 2k-task run below.
SMALL_WAYPOINTS = {
    "single": (125_260, 62_955_998, "8062ed8f65ddd00d"),
    "shards2": (185_364, 43_772_000, "01746e0345e1fa72"),
    "shards4": (183_808, 31_351_000, "548ef57f0eb66391"),
}


@pytest.mark.parametrize("engine", sorted(SMALL_WAYPOINTS))
def test_2k_task_trace_fires_pinned_event_count(engine):
    """The tier-1-sized waypoint: the same shape as the 50k run, on every
    engine, with the full schedule pinned alongside the event count."""
    trace = random_trace(
        2_000,
        n_addresses=256,
        max_params=4,
        seed=11,
        mean_exec=3000,
        mean_memory=0,
        name="random-2k",
    )
    shards = {"single": 1, "shards2": 2, "shards4": 4}[engine]
    cfg = SystemConfig(
        workers=16,
        maestro_shards=shards,
        master_cores=4,
        submission_batch=8,
        memory_contention=False,
    )
    result = run_trace(trace, cfg)

    assert len(result.records) == 2_000
    assert all(r.is_complete() for r in result.records)
    rows = [
        (r.tid, r.core, r.ready, r.dispatched, r.exec_start, r.completed)
        for r in result.records
    ]
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()[:16]
    events, makespan, golden = SMALL_WAYPOINTS[engine]
    assert result.stats["sim"]["events_processed"] == events
    assert result.makespan == makespan
    assert digest == golden


#: Kernel events fired by the seeded 50k-task run below.
EVENTS_50K = 4_347_854

#: Kernel events fired by the seeded million-task run below.
EVENTS_1M = 67_997_461


@pytest.mark.slow
def test_50k_task_trace_fires_pinned_event_count():
    trace = random_trace(
        50_000,
        n_addresses=2048,
        max_params=4,
        seed=11,
        mean_exec=3000,
        mean_memory=0,
        name="random-50k",
    )
    cfg = SystemConfig(
        workers=16,
        maestro_shards=4,
        master_cores=4,
        submission_batch=8,
        memory_contention=False,
    )
    result = run_trace(trace, cfg)

    assert len(result.records) == 50_000
    assert all(r.is_complete() for r in result.records)
    assert result.stats["sim"]["events_processed"] == EVENTS_50K


@pytest.mark.slow
def test_million_task_trace_fires_pinned_event_count():
    """The scale waypoint: one million tasks end-to-end.

    A narrow address pool keeps generation time small (the chunked
    generator draws ``n_addresses`` sampling keys per task, through a
    fixed-size key block); one parameter per task keeps the run
    dependence-light — this waypoint is about the host kernel sustaining
    ~68M events over 10 ms of modelled time, not about hazard pressure
    (the 50k waypoint above and the hazard-dense differential suites
    cover that).
    """
    trace = random_trace(
        1_000_000,
        n_addresses=1024,
        max_params=1,
        seed=13,
        mean_exec=2000,
        mean_memory=0,
        name="random-1m",
    )
    cfg = SystemConfig(
        workers=32,
        maestro_shards=4,
        master_cores=8,
        submission_batch=8,
        finish_coalesce_limit=8,
        decentralized_check_scatter=True,
        check_coalesce_limit=8,
        memory_contention=False,
    )
    result = run_trace(trace, cfg)

    # Retire count: every submitted task came back out of the machine.
    assert len(result.records) == 1_000_000
    assert all(r.is_complete() for r in result.records)
    # Legality: the per-task lifecycle stamps are causally ordered.  (The
    # full golden-graph dependence check is quadratic in trace size and
    # lives in the differential suites at smaller scales.)
    assert all(
        r.submitted <= r.stored <= r.ready <= r.dispatched <= r.completed
        for r in result.records
    )
    assert result.stats["sim"]["events_processed"] == EVENTS_1M
