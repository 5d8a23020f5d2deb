"""A finished run leaves no reference cycles.

Every block of the machine is an endless generator loop that is still
parked when the run ends, and every channel keeps a cached waitable that
points back at it.  Unless the run releases them, the whole simulator
stays resident until the cyclic collector's next full pass, so a change
that allocates fewer objects (and so triggers fewer passes) can raise
peak memory.  These tests build a run's result with the collector off,
drop it, and assert that the collector then finds nothing to free.
"""

import gc

import pytest

from repro.config import LADDER, SystemConfig
from repro.machine import NexusMachine
from repro.runtime import run_software_rts
from repro.traces import random_trace, wait_chain_trace

#: The perf ledger's hazard-dense stack: 4 shards with every resolve,
#: check, retire and dispatch knob on.
HAZARD_DENSE = LADDER["full"].with_(workers=8)


def cyclic_garbage_after(run) -> int:
    """Objects the cyclic collector frees once ``run()``'s result is
    dropped (the collector stays off while the run executes)."""
    gc.collect()
    gc.disable()
    try:
        result = run()
        assert result.n_tasks > 0
        del result
        return gc.collect()
    finally:
        gc.enable()


@pytest.fixture(scope="module")
def trace():
    return random_trace(200, n_addresses=24, max_params=6, seed=3)


@pytest.mark.parametrize(
    "config, max_time",
    [
        pytest.param(SystemConfig(workers=4), None, id="single-engine"),
        pytest.param(HAZARD_DENSE, None, id="hazard-dense-4-shards"),
        pytest.param(
            HAZARD_DENSE.with_(telemetry_window=50_000), None, id="telemetry"
        ),
        pytest.param(SystemConfig(workers=4), 2_000_000, id="max-time-truncated"),
    ],
)
def test_machine_run_leaves_no_cycles(trace, config, max_time):
    assert cyclic_garbage_after(
        lambda: NexusMachine(config).run(trace, max_time=max_time)
    ) == 0


def test_truncated_run_really_is_truncated(trace):
    result = NexusMachine(SystemConfig(workers=4)).run(trace, max_time=2_000_000)
    assert result.master_done is None or result.scoreboard.completed_count < len(trace)


def test_software_rts_leaves_no_cycles():
    trace = wait_chain_trace(4, 20, spin_ns=250)
    assert cyclic_garbage_after(
        lambda: run_software_rts(trace, SystemConfig(workers=4))
    ) == 0
