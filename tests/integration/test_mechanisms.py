"""Each mechanism beyond the paper does what it claims, and only when on.

The golden table (``test_goldens.py``) pins that a mechanism's knobs-off
machine is the machine before it, and the knob-space property
(``test_knob_space.py``) that every knob vector retires legally.  The
tests here pin the rest:

* a knobs-off machine builds none of the mechanism's structures;
* the mechanism has the effect it exists for (fewer hops, batches that
  coalesce, finishes that overlap, a less loaded sequencer);
* the per-address orders it must not break survive on adversarial traces
  (ARCHITECTURE.md invariants 4-6);
* the TD cache stays coherent with the Task Pool;
* each machine of ``repro.config.LADDER`` retires the golden Gaussian
  trace legally and obeys the conservation laws of the blocks it wires,
  except the ``restricted`` original Nexus, which rejects it by name.
"""

import functools

import pytest
from laws import LAWS, assert_retires_legally
from test_goldens import STACKS, golden_trace

from repro.config import LADDER, SystemConfig
from repro.hw.errors import CapacityError
from repro.hw.fabric import Fabric
from repro.hw.sharded_maestro import ShardedMaestro
from repro.machine import run_trace
from repro.runtime.task_graph import build_task_graph
from repro.scoreboard import Scoreboard
from repro.sim import Simulator
from repro.traces import AccessMode, Param, TaskTrace, TraceTask, random_trace

#: The engines the check and resolve goldens ran on: the single Maestro
#: on the front-end stack, the sharded engine on the dispatch stack.
ENGINES = {
    "single": ("frontend", 1),
    "shards2": ("dispatch", 2),
    "shards4": ("dispatch", 4),
}
SHARDED_ENGINES = ["shards2", "shards4"]


def _config(engine: str, **overrides) -> SystemConfig:
    stack, shards = ENGINES[engine]
    return STACKS[stack].with_(maestro_shards=shards, **overrides)


def _retire4(**overrides) -> SystemConfig:
    """The front-end plus retire depth 4 (the fast-dispatch goldens'
    knobs-off stack)."""
    return STACKS["retire4"].with_(**overrides)


def _run_stealing(monkeypatch, trace, config, locality: bool):
    """Run ``config`` under the ticket (False) or locality (True) steal
    policy, whichever the fast-dispatch subsystem would derive."""
    monkeypatch.setattr(
        SystemConfig, "steal_locality", property(lambda self: locality)
    )
    return run_trace(trace, config)


def _waw_chain() -> TaskTrace:
    """A chain of 64 writers on one address: every probe and every finish
    hits the same Dependence Table row on the same owner shard."""
    tasks = [
        TraceTask(tid, 1, (Param(0x1000, 64, AccessMode.INOUT),), exec_time=2000)
        for tid in range(64)
    ]
    return TaskTrace("waw-chain", tasks)


# ---- batched multi-master submission ------------------------------------------


@pytest.mark.parametrize("trace_name", ["gaussian", "h264"])
def test_merge_unit_restores_program_order(trace_name):
    """Tasks must reach Write TP (be stored) in trace order even though
    four masters submit their slices concurrently."""
    trace = golden_trace(trace_name)
    result = run_trace(
        trace, SystemConfig(workers=8, master_cores=4, submission_batch=2)
    )
    stored = [r.stored for r in result.records]  # records are trace-ordered
    assert stored == sorted(stored)


def test_batching_alone_amortizes_the_handshake():
    """One master with batching submits strictly faster than without."""
    trace = golden_trace("gaussian")
    r1 = run_trace(trace, SystemConfig(workers=8, submission_batch=1))
    r8 = run_trace(trace, SystemConfig(workers=8, submission_batch=8))
    assert r8.master_done < r1.master_done
    graph = build_task_graph(trace)
    assert r8.verify_against(graph) == []


# ---- sharded Maestro --------------------------------------------------------------


def test_shard_partitioning_actually_distributes_load():
    """Multi-shard runs must spread table traffic across the shards."""
    trace = golden_trace("gaussian")
    result = run_trace(trace, SystemConfig(workers=8, maestro_shards=4))
    per_shard = result.stats["shards"]["per_shard_dep_table"]
    assert len(per_shard) == 4
    touched = [s for s in per_shard if s["high_water"] > 0]
    assert len(touched) >= 2, "hash partitioning left all traffic on one shard"
    assert result.stats["shards"]["interconnect"]["cross_shard_messages"] > 0


# ---- pipelined retire --------------------------------------------------------------


def test_pipeline_actually_overlaps_finishes():
    """On a hazard-dense flood (tiny tasks, parallel submission) a depth-4
    machine must reach >1 finish in flight on some shard — otherwise the
    tickets are decorative."""
    trace = random_trace(
        300, n_addresses=96, max_params=6, seed=7, mean_exec=4000, mean_memory=0
    )
    result = run_trace(trace, _retire4(maestro_shards=4))
    assert max(result.stats["shards"]["retire"]["inflight_max"]) > 1


def _same_address_trace(n_tasks: int = 60) -> TaskTrace:
    """Every task touches one shared address: every finish message lands on
    the same Dependence Table entry.  Alternating groups of independent
    readers (which finish nearly simultaneously — several same-address
    finishes in flight at once) and a single writer each reader group must
    strictly precede/follow."""
    addr = 0x1000
    tasks = []
    for tid in range(n_tasks):
        mode = AccessMode.INOUT if tid % 5 == 4 else AccessMode.IN
        tasks.append(
            TraceTask(
                tid=tid,
                func=0,
                params=(Param(addr, 64, mode),),
                exec_time=500 + 37 * (tid % 7),
            )
        )
    return TaskTrace("same-address", tasks)


@pytest.mark.parametrize("depth", [2, 4, 8])
@pytest.mark.parametrize("shards", [2, 4])
def test_same_address_inflight_finishes_apply_in_order(depth, shards):
    """Regression for the finish-path per-address rule: with several
    finishes for one Dependence Table entry in flight concurrently, the
    writer after each reader group must not be kicked off until *every*
    reader's finish has been applied (a gather miscount or reordered
    same-address update would release it early)."""
    trace = _same_address_trace()
    cfg = SystemConfig(
        workers=4,
        maestro_shards=shards,
        retire_pipeline_depth=depth,
        memory_contention=False,
    )
    result = run_trace(trace, cfg)
    assert_retires_legally(result, trace, build_task_graph(trace))


# ---- fast dispatch: TD prefetch cache, kick-off fast path, stealing --------------


@pytest.mark.parametrize("shards", [2, 4])
@pytest.mark.parametrize(
    "features",
    [
        dict(td_cache_entries=16),
        dict(kickoff_fast_path=True),
        dict(td_cache_entries=16, kickoff_fast_path=True),
        dict(td_cache_entries=16, kickoff_fast_path=True, td_prefetch_depth=2),
    ],
    ids=["cache", "fastpath", "both", "both-deep"],
)
def test_fast_dispatch_features_fire(shards, features):
    trace = golden_trace("random")
    result = run_trace(trace, _retire4(maestro_shards=shards, **features))
    assert_retires_legally(result, trace, build_task_graph(trace))
    sub = result.stats["dispatch"]["fast_dispatch"]
    if features.get("td_cache_entries"):
        cache = sub["td_cache"]
        assert cache["hits"] + cache["misses"] == len(result.records)
    if features.get("kickoff_fast_path"):
        assert sub["fast_dispatches"] > 0


def test_subsystem_actually_shortens_the_chain_hops():
    """On the latency-bound flood the full subsystem must beat the
    both-off machine and overlap the TD transfer (the bench pins the
    full-size 1.25x bar; this is the fast in-suite version)."""
    trace = golden_trace("random")
    off = run_trace(trace, _retire4(maestro_shards=4))
    on = run_trace(
        trace,
        _retire4(
            maestro_shards=4,
            td_cache_entries=64,
            td_prefetch_depth=2,
            kickoff_fast_path=True,
        ),
    )
    assert on.makespan < off.makespan
    off_hop = off.stats["dispatch"]["chain_hop_ns"]
    on_hop = on.stats["dispatch"]["chain_hop_ns"]
    assert on_hop["td_transfer"] < off_hop["td_transfer"]
    assert on_hop["forward"] < off_hop["forward"]


#: TD-cache coherence (ARCHITECTURE.md invariant 4): no cache entry
#: outlives its Task Pool chain.  An entry is consumed by its dispatch (a
#: hit), evicted under pressure (the dispatch re-fetches: a miss, never a
#: stale descriptor) or invalidated when retirement frees the chain.  The
#: stale path itself is a ProtocolError, checked in
#: tests/hw/test_dispatch_cache.py.
COHERENCE_SEEDS = [0, 1, 2]


def _hazard_dense(seed):
    """Few addresses, parameter lists past the TD limit."""
    return random_trace(
        n_tasks=80,
        n_addresses=10,
        max_params=6,
        mean_exec=1500,
        seed=seed,
        name=f"random-{seed}",
    )


def _two_shards(**features):
    return SystemConfig(
        workers=4, maestro_shards=2, memory_batch_chunks=8, **features
    )


@pytest.mark.parametrize("seed", COHERENCE_SEEDS)
def test_cache_entries_never_outlive_their_chain(seed):
    """The conservation law: every staged entry was consumed by its
    dispatch, evicted under pressure, or invalidated at retirement —
    nothing is left after the machine drains."""
    trace = _hazard_dense(seed)
    result = run_trace(
        trace, _two_shards(td_cache_entries=4, kickoff_fast_path=True)
    )
    cache = result.stats["dispatch"]["fast_dispatch"]["td_cache"]
    assert cache["fills"] > 0
    assert cache["fills"] == (
        cache["hits"] + cache["evictions"] + cache["invalidations"]
    )
    # Every dispatch consulted the cache exactly once.
    assert cache["hits"] + cache["misses"] == len(trace)


def _fanout_trace(n_waiters: int = 24) -> TaskTrace:
    """One long-running writer, ``n_waiters`` readers blocked behind it.

    Every reader sits *near-ready* (DC=1) for the writer's whole runtime,
    so the prefetch engines stage all of them — deterministic pressure on
    a small cache bank, deterministic eviction of staged-but-undispatched
    entries."""
    addr = 0x1000
    tasks = [
        TraceTask(
            tid=0, func=0, params=(Param(addr, 64, AccessMode.OUT),),
            exec_time=500_000,
        )
    ]
    for tid in range(1, n_waiters + 1):
        tasks.append(
            TraceTask(
                tid=tid,
                func=0,
                params=(
                    Param(addr, 64, AccessMode.IN),
                    Param(0x2000 + 64 * tid, 64, AccessMode.OUT),
                ),
                exec_time=1000,
            )
        )
    return TaskTrace("fanout", tasks)


def test_evicted_prefetch_is_refetched():
    """A one-entry cache under a near-ready flood must evict staged TDs;
    the dispatches that lose their entry re-fetch through the Task Pool
    (misses), and the run stays complete and legal — eviction can cost
    time, never correctness."""
    trace = _fanout_trace()
    graph = build_task_graph(trace)
    result = run_trace(trace, _two_shards(td_cache_entries=1))
    cache = result.stats["dispatch"]["fast_dispatch"]["td_cache"]
    assert cache["evictions"] > 0
    # An evicted entry's dispatch cannot hit: the miss *is* the re-fetch,
    # and every task still dispatched exactly once, legally.
    assert cache["misses"] >= cache["evictions"]
    assert cache["hits"] + cache["misses"] == len(trace)
    assert result.verify_against(graph) == []
    # A roomy cache swallows the same flood without evicting.
    roomy = run_trace(trace, _two_shards(td_cache_entries=32))
    roomy_cache = roomy.stats["dispatch"]["fast_dispatch"]["td_cache"]
    assert roomy_cache["evictions"] == 0
    assert roomy_cache["hits"] > cache["hits"]


@pytest.mark.parametrize("seed", COHERENCE_SEEDS)
def test_retirement_invalidates_dead_speculation(seed):
    """Some staged TDs are dead on arrival (their dispatch raced ahead of
    the fill); retirement must reap them — the conservation law above
    proves none survive, this pins that the reap path actually runs."""
    trace = _hazard_dense(seed)
    result = run_trace(
        trace, _two_shards(td_cache_entries=8, td_prefetch_depth=3)
    )
    cache = result.stats["dispatch"]["fast_dispatch"]["td_cache"]
    sub = result.stats["dispatch"]["fast_dispatch"]
    # Speculation fired...
    assert sub["prefetch_requests"] > 0
    # ...and whatever was not consumed or evicted died at retirement.
    assert cache["invalidations"] == (
        cache["fills"] - cache["hits"] - cache["evictions"]
    )


def test_fast_path_reports_ownership_notices():
    """Every remote fast dispatch posts exactly one non-blocking
    ownership notice to the task's home shard."""
    trace = _hazard_dense(0)
    result = run_trace(trace, _two_shards(kickoff_fast_path=True))
    sub = result.stats["dispatch"]["fast_dispatch"]
    assert sub["ownership_notices"] == sub["fast_dispatches_remote"]
    assert sub["fast_dispatches"] >= sub["fast_dispatches_remote"]


def test_locality_stealing_suppresses_post_forward_ping_pong(monkeypatch):
    """The steal-after-forward regression: with the old ticket policy an
    idle shard steals a task one cycle after the finish engine paid the
    forward hop to send it home; the locality policy (ticket deferral to
    a self-serving home shard) must eliminate nearly all of it without
    losing completeness."""
    trace = golden_trace("random")
    graph = build_task_graph(trace)
    config = _retire4(workers=16, maestro_shards=4)
    ticket = _run_stealing(monkeypatch, trace, config, locality=False)
    locality = _run_stealing(monkeypatch, trace, config, locality=True)
    assert ticket.stats["shards"]["steals_after_forward"] > 0
    assert (
        locality.stats["shards"]["steals_after_forward"]
        < ticket.stats["shards"]["steals_after_forward"]
    )
    for result in (ticket, locality):
        assert result.verify_against(graph) == []
    # The deferral must not cost throughput on the machine it protects.
    assert locality.makespan <= ticket.makespan * 1.05


def test_locality_stealing_never_starves_a_worker_starved_machine(monkeypatch):
    """The 8-shard/2-worker regression: with fewer worker cores than
    shards, six shards own no cores at all — every task homed there must
    be stolen — and the ticket-deferral politeness between the two
    worker-owning shards only starved their claimed cores, making
    locality stealing *slower* than the plain ticket policy it layers
    on.  The pool-occupancy cutoff disables deferral on such machines,
    so locality stealing must now be no worse than the ticket policy on
    the exact configuration that regressed."""
    trace = golden_trace("random")
    config = _retire4(workers=2, maestro_shards=8)
    ticket = _run_stealing(monkeypatch, trace, config, locality=False)
    locality = _run_stealing(monkeypatch, trace, config, locality=True)
    for result in (ticket, locality):
        assert_retires_legally(result, trace, build_task_graph(trace))
    assert locality.makespan <= ticket.makespan


# ---- staged resolve pipeline ------------------------------------------------------


def test_knobs_off_machine_builds_no_resolve_structures():
    """No kick queues, no kick-unit processes, no extra busy trackers on
    the knobs-off machine — the gating that keeps it cycle-identical."""
    trace = golden_trace("random")
    fab = Fabric(Simulator(), _config("shards2"), trace)
    assert fab.resolve.kick_queues == []
    maestro = ShardedMaestro(fab, Scoreboard(len(trace)))
    assert not any(".kick" in name for name in maestro.busy)

    on = Fabric(Simulator(), _config("shards2", speculative_kickoff=True), trace)
    assert len(on.resolve.kick_queues) == 2
    maestro_on = ShardedMaestro(on, Scoreboard(len(trace)))
    assert {f"s{s}.kick" for s in range(2)} <= set(maestro_on.busy)


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize(
    "knobs",
    [
        dict(finish_coalesce_limit=4),
        dict(speculative_kickoff=True),
        dict(finish_coalesce_limit=8, speculative_kickoff=True),
    ],
    ids=["coalesce", "speculative", "both"],
)
def test_resolve_pipeline_coalesces_and_speculates(engine, knobs):
    """Across the knob grid, on both engines: the complete task set
    retires legally, the tables drain, and the coalescing/speculation
    actually happens."""
    trace = golden_trace("random")
    result = run_trace(trace, _config(engine, **knobs))
    assert_retires_legally(result, trace, build_task_graph(trace))
    resolve = result.stats["resolve"]
    assert resolve["updates"] == resolve["batches"] or (
        result.config.finish_coalesce_limit > 1 or engine == "single"
    )
    if knobs.get("speculative_kickoff"):
        assert resolve["speculative_kicks"] > 0
    if knobs.get("finish_coalesce_limit", 1) > 1 and engine != "single":
        # Coalescing must actually drain batches on the loaded machine.
        assert resolve["mean_batch"] > 1.0


def test_same_address_finish_order_survives_coalescing():
    """The invariant-5 regression: a chain of writers on one address —
    every finish hits the same Dependence Table row, so coalesced batches
    constantly merge updates into latched rows — must still release in
    exact program order."""
    trace = _waw_chain()
    graph = build_task_graph(trace)
    cfg = _config(
        "shards4", finish_coalesce_limit=8, speculative_kickoff=True
    )
    result = run_trace(trace, cfg)
    assert result.verify_against(graph) == []
    order = sorted(result.records, key=lambda r: r.exec_start)
    assert [r.tid for r in order] == list(range(64))


def test_speculation_actually_cuts_the_resolve_hop():
    """On the hazard-dense flood the speculative machine must shorten the
    resolve hop component (the bench pins the full-size 1.5x bar; this is
    the fast in-suite version)."""
    trace = golden_trace("random")
    off = run_trace(trace, _config("shards4"))
    on = run_trace(
        trace,
        _config(
            "shards4", finish_coalesce_limit=8, speculative_kickoff=True
        ),
    )
    off_hop = off.stats["dispatch"]["chain_hop_ns"]
    on_hop = on.stats["dispatch"]["chain_hop_ns"]
    assert on_hop["resolve"] < off_hop["resolve"]


# ---- decentralized check scatter and check coalescing ------------------------------


def test_knobs_off_machine_builds_no_scatter_structures():
    """No slice FIFOs, no re-sequencers, no per-master scatter busy
    trackers on the knobs-off machine — the gating that keeps it
    cycle-identical."""
    trace = golden_trace("random")
    fab = Fabric(Simulator(), _config("shards2"), trace)
    assert not hasattr(fab, "scatter_slices")
    assert not hasattr(fab, "check_reseq")
    maestro = ShardedMaestro(fab, Scoreboard(len(trace)))
    assert not any(".scatter" in name for name in maestro.busy)

    on = Fabric(
        Simulator(),
        _config("shards2", decentralized_check_scatter=True),
        trace,
    )
    assert len(on.scatter_slices) == 4  # one slice per master
    assert len(on.scatter_out) == 2 and len(on.check_reseq) == 2
    maestro_on = ShardedMaestro(on, Scoreboard(len(trace)))
    assert {f"m{m}.scatter" for m in range(4)} <= set(maestro_on.busy)


@pytest.mark.parametrize("engine", SHARDED_ENGINES)
@pytest.mark.parametrize(
    "knobs",
    [
        dict(decentralized_check_scatter=True),
        dict(check_coalesce_limit=8),
        dict(decentralized_check_scatter=True, check_coalesce_limit=8),
    ],
    ids=["decentral", "coalesce", "both"],
)
def test_check_pipeline_resequences_and_coalesces(engine, knobs):
    """Across the knob grid, on every sharded engine: the complete task
    set retires legally, the tables drain, every probe passes a
    re-sequencer, and check coalescing actually batches probes."""
    trace = golden_trace("random")
    result = run_trace(trace, _config(engine, **knobs))
    assert_retires_legally(result, trace, build_task_graph(trace))
    check = result.stats["check"]
    assert check["probes"] == sum(t.n_params for t in trace)
    if knobs.get("decentralized_check_scatter"):
        # Every probe flowed through a re-sequencer, none held forever.
        assert sum(check["reseq_forwarded"]) == check["probes"]
    if knobs.get("check_coalesce_limit", 1) > 1:
        # Coalescing must actually drain batches on the loaded machine.
        assert check["mean_batch"] > 1.0


def test_same_address_check_order_survives_decentralization():
    """The invariant-6 regression: a chain of writers on one address —
    every check probe targets the same Dependence Table row on the same
    owner shard, submitted round-robin across four masters so successive
    probes leave *different* scatter slices — must still check, and
    therefore release, in exact program order."""
    trace = _waw_chain()
    graph = build_task_graph(trace)
    cfg = _config(
        "shards4", decentralized_check_scatter=True, check_coalesce_limit=8
    )
    result = run_trace(trace, cfg)
    assert result.verify_against(graph) == []
    order = sorted(result.records, key=lambda r: r.exec_start)
    assert [r.tid for r in order] == list(range(64))


def test_decentralization_actually_unloads_the_sequencer():
    """On a param-dense flood the decentralized machine must drop the
    busiest scatter engine's occupancy (the bench pins the full-size
    <50% bar; this is the fast in-suite version)."""
    trace = random_trace(
        300,
        n_addresses=512,
        max_params=6,
        seed=7,
        mean_exec=500,
        mean_memory=0,
        name="random-param-dense",
    )
    off = run_trace(trace, _config("shards4"))
    on = run_trace(trace, _config("shards4", decentralized_check_scatter=True))

    def max_scatter(result):
        util = result.stats["maestro_utilization"]
        return max(
            v for k, v in util.items()
            if k == "scatter" or k.endswith(".scatter")
        )

    assert max_scatter(on) < max_scatter(off)


# ---- the ladder of machine stacks --------------------------------------------------


@functools.cache
def _gaussian_on(rung: str):
    trace = golden_trace("gaussian")
    return trace, run_trace(trace, LADDER[rung])


#: The named machines that can run Gaussian elimination: all but the
#: original Nexus.
RUNS_GAUSSIAN = [rung for rung, config in LADDER.items() if not config.restricted]


@pytest.mark.parametrize("rung", RUNS_GAUSSIAN)
def test_ladder_rung_retires_the_gaussian_trace_legally(rung):
    trace, result = _gaussian_on(rung)
    assert_retires_legally(result, trace, build_task_graph(trace))


@pytest.mark.parametrize(
    "law, rung",
    [
        (law, rung)
        for rung in RUNS_GAUSSIAN
        for law, (applies, _) in LAWS.items()
        if applies(LADDER[rung])
    ],
)
def test_ladder_rung_obeys_conservation_law(law, rung):
    trace, result = _gaussian_on(rung)
    LAWS[law][1](result, trace, LADDER[rung])


def test_restricted_machine_rejects_the_gaussian_trace():
    """The paper: Gaussian elimination "could not be executed by Nexus"."""
    with pytest.raises(CapacityError, match="dummy tasks are disabled"):
        run_trace(golden_trace("gaussian"), LADDER["restricted"])
