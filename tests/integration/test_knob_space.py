"""One property over the whole knob space: reject the config or retire legally.

Hypothesis draws a trace (a small hand-built hazard pool or a small
``random_trace``) and a knob vector from every axis of ``SystemConfig``:
both engines, 1-8 shards, 1-8 masters, submission batching, retire depth,
the TD cache and prefetch depth, the kick-off fast path (and with it
the steal policy), finish and check coalescing with their windows, speculative kick-off, the
decentralized check scatter, and the bounded structures down to their
minimum sizes.  Every knob vector must either be rejected by
``SystemConfig`` with a ``ValueError``, fail by name when a task needs
more Task Pool entries than the pool has, or run to completion with:

* exactly the trace retired, in a schedule legal for the golden
  dependence graph, within the critical-path bound;
* every Dependence Table slice drained;
* the conservation laws of the optional blocks: TD-cache fills equal
  hits + evictions + invalidations, every probe forwarded by a
  re-sequencer, every fast dispatch announced to its home shard, and no
  shard with more finishes in flight than it has retire tickets.

The software runtime runs the same trace as a cross-check.  The explicit
examples drive each bounded structure to its minimum on the single
engine, on 2 shards and on the 4-shard full stack (ARCHITECTURE.md, "Bounded
structures at their minimum"), and run the granularity-probe workloads,
whose 28-parameter tasks cross the TD spill and kick-off overflow
thresholds, on each engine.
"""

import dataclasses
import functools
import itertools

import pytest
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st
from laws import (
    assert_conservation_laws,
    assert_legal,
    assert_retires_legally,
    retired,
)
from strategies import traces
from test_goldens import STACKS

from repro.config import BUS_MODEL_FITTED, BUS_MODEL_FORMULA, SystemConfig
from repro.hw.errors import CapacityError
from repro.hw.task_pool import entries_needed
from repro.machine import run_trace
from repro.runtime.software_rts import run_software_rts
from repro.runtime.task_graph import build_task_graph
from repro.traces import (
    random_trace,
    spatial_decomposition_trace,
    wait_chain_trace,
)

#: Each bounded structure at its minimum size (ARCHITECTURE.md records
#: which engines reject which).
MINIMUMS = [
    dict(task_pool_entries=8),
    dict(kickoff_list_size=2),
    dict(tds_sizes_list_entries=1),
    dict(new_tasks_list_entries=1),
    dict(shard_inbox_entries=1),
    dict(td_cache_entries=1),
]

#: The engines the explicit examples run on, as knob dicts.
EXAMPLE_ENGINES = [
    dict(workers=4),
    dict(workers=4, maestro_shards=2),
    dataclasses.asdict(STACKS["full"].with_(maestro_shards=4)),
]

#: Hazard-dense: few addresses, parameter lists past the TD limit.
HAZARD_DENSE = random_trace(
    80, n_addresses=10, max_params=6, mean_exec=1500, seed=0, name="random-0"
)

#: Granularity-probe workloads: dense RAW release chains, and halo
#: exchanges whose tasks carry up to 10 (2-D) and 28 (3-D) parameters.
PROBES = [
    wait_chain_trace(8, 10, k_deps=3, spin_ns=800, cv=0.3, seed=5),
    spatial_decomposition_trace(4, 3, dims=2),
    spatial_decomposition_trace(3, 2, dims=3),
]


@st.composite
def knob_vectors(draw):
    shards = draw(st.integers(1, 8))
    knobs = dict(
        workers=draw(st.integers(1, 8)),
        buffering_depth=draw(st.integers(1, 2)),
        maestro_shards=shards,
        master_cores=draw(st.integers(1, 8)),
        submission_batch=draw(st.sampled_from([1, 2, 8])),
        bus_model=draw(st.sampled_from([BUS_MODEL_FORMULA, BUS_MODEL_FITTED])),
        finish_coalesce_limit=draw(st.sampled_from([1, 2, 8])),
        speculative_kickoff=draw(st.booleans()),
        memory_contention=draw(st.booleans()),
        memory_batch_chunks=draw(st.sampled_from([1, 8, 64])),
        max_params_per_td=draw(st.sampled_from([2, 8])),
        # Bounded structures: at their minimum, twice it, or Table IV size;
        # the Dependence Table as its Table IV total or an 8-entry slice.
        dependence_table_entries=draw(st.sampled_from([4096, 8 * shards])),
        task_pool_entries=draw(st.sampled_from([4, 8, 16, 1024])),
        kickoff_list_size=draw(st.sampled_from([2, 4, 8])),
        tds_sizes_list_entries=draw(st.sampled_from([1, 2, 1024])),
        new_tasks_list_entries=draw(st.sampled_from([1, 2, 1024])),
        shard_inbox_entries=draw(st.sampled_from([1, 2, 16])),
    )
    # The sharded-engine knobs: always drawn on a sharded machine, and on
    # half the single-engine draws (where any of them on is a ValueError).
    if shards > 1 or draw(st.booleans()):
        knobs.update(
            retire_pipeline_depth=draw(st.integers(1, 8)),
            td_cache_entries=draw(st.sampled_from([0, 1, 2, 16])),
            td_prefetch_depth=draw(st.integers(1, 3)),
            kickoff_fast_path=draw(st.booleans()),
            decentralized_check_scatter=draw(st.booleans()),
            check_coalesce_limit=draw(st.sampled_from([1, 2, 8])),
        )
    return knobs


#: The ``SystemConfig`` fields the knob space holds at their Table IV
#: value, each with the reason.  Every other field is drawn away from its
#: default, so a new field either joins the property or says here why not.
HELD_AT_DEFAULT = {
    "nexus_clock_hz": "a clock rate; the drawn traces vary task timing",
    "on_chip_access_time": "a latency; the drawn traces vary task timing",
    "off_chip_access_time": "a latency; memory_contention is drawn",
    "shard_hop_time": "a latency; the drawn traces vary task timing",
    "task_prep_time": "a latency; the drawn traces vary task timing",
    "bus_handshake_cycles": "a latency; bus_model is drawn",
    "bus_word_cycles": "a latency; bus_model is drawn",
    "memory_banks": "memory model size; memory_contention is drawn",
    "telemetry_window": "sampling injects no events (test_goldens pins it)",
    "restricted": "turns spills into errors (tests/hw pins both)",
}


@functools.cache
def _drawn_knob_vectors():
    drawn = []

    @settings(max_examples=200, phases=[Phase.generate])
    @given(knob_vectors())
    def record(knobs):
        drawn.append(knobs)

    record()
    return drawn


def test_held_at_default_names_only_fields():
    assert set(HELD_AT_DEFAULT) <= {f.name for f in dataclasses.fields(SystemConfig)}


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(SystemConfig)])
def test_knob_space_draws_every_field_off_its_default(name):
    default = getattr(SystemConfig(), name)
    moved = [k for k in _drawn_knob_vectors() if k.get(name, default) != default]
    if name in HELD_AT_DEFAULT:
        assert moved == []
    else:
        assert moved


small_random_traces = st.builds(
    random_trace,
    n_tasks=st.integers(1, 80),
    n_addresses=st.integers(1, 16),
    max_params=st.integers(1, 6),
    seed=st.integers(0, 2**16),
    mean_exec=st.sampled_from([500, 1500, 4000]),
    mean_memory=st.sampled_from([0, 500]),
)


def _examples(test):
    for minimum, engine in itertools.product(MINIMUMS, EXAMPLE_ENGINES):
        test = example(trace=HAZARD_DENSE, knobs=dict(engine, **minimum))(test)
    for trace, shards in itertools.product(PROBES, [1, 2, 3]):
        knobs = dict(workers=4, maestro_shards=shards, memory_batch_chunks=8)
        test = example(trace=trace, knobs=knobs)(test)
    return test


@_examples
@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(trace=st.one_of(traces(), small_random_traces), knobs=knob_vectors())
def test_any_knob_vector_is_rejected_or_retires_the_trace_legally(trace, knobs):
    try:
        config = SystemConfig(**knobs)
    except ValueError:
        return
    need = max(entries_needed(t.n_params, config.max_params_per_td) for t in trace)
    if need > config.task_pool_entries:
        # A task that cannot fit the whole Task Pool fails by name.
        with pytest.raises(CapacityError, match="Task Pool entries"):
            run_trace(trace, config)
        return
    graph = build_task_graph(trace)
    result = run_trace(trace, config)
    assert_retires_legally(result, trace, graph)
    assert_conservation_laws(result, trace, config)

    software = run_software_rts(trace, config, graph=graph)
    assert retired(software) == list(range(len(trace)))
    assert_legal(software, graph)
