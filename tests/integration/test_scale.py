"""Large-trace end-to-end runs: the wheel kernel's reason to exist.

The timing-wheel kernel and the column-writing trace generator together
put 100k+-task traces in reach; this file pins two waypoints — a 50k-task
trace and a million-task run — each simulated end-to-end.  Every seeded
run fires an exact number of kernel events, so the waypoints assert that
count (deterministic) rather than a wall-clock budget: a different count
means the machine or the kernel changed its schedule.  Both are marked
``slow`` and deselected by ``pytest.ini``; run them with ``pytest -m
slow``.  The tier-1-sized 2k-task waypoint is a row set of the golden
table in ``test_goldens.py``.
"""

import pytest

from repro.config import SystemConfig
from repro.machine import run_trace
from repro.traces import random_trace


#: Kernel events fired by the seeded 50k-task run below.
EVENTS_50K = 4_350_375

#: Kernel events fired by the seeded million-task run below.
EVENTS_1M = 68_003_070


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

    One parameter per task keeps generation cheap and the run
    dependence-light — this waypoint is about the host kernel sustaining
    ~68M events over 10 ms of modelled time, not about hazard pressure
    (the 50k waypoint above and the golden table cover that).
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
    # lives in the knob-space property at smaller scales.)
    assert all(
        r.submitted <= r.stored <= r.ready <= r.dispatched <= r.completed
        for r in result.records
    )
    assert result.stats["sim"]["events_processed"] == EVENTS_1M
