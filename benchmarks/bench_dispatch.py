"""Fast-dispatch latency: past the per-hop dependence-chain ceiling.

PR 3's retire sweep (``bench_retire.py``) ends with the hazard-dense
machine *latency-bound*: nothing saturates, but the critical dependence
chain — hundreds of hops deep — pays ~85-90 ns per hop, dominated by the
TD transfer (~35 ns: Task Pool read + bus stream after the final
resolution) and the finish->kick resolution itself (~30 ns), with the
forward hop + scheduler round trip (~16 ns) behind them.  This experiment
sweeps the fast-dispatch feature grid on exactly that machine — the
hazard-dense random workload at 4 shards x 4 masters x batch 8 x retire
depth 4, Table IV timing with prep on and the fitted bus model:

* **TD prefetch cache** (``td_cache_entries=64``, ``td_prefetch_depth=2``)
  stages a near-ready waiter's TD chain next to the TD link while its
  last dependences resolve, collapsing the TD-transfer hop component to a
  staged-descriptor handoff;
* **kick-off fast path** (``kickoff_fast_path``) lets the resolving shard
  hand a became-ready waiter to an idle local worker, collapsing the
  forward component to the dispatch cycles.

Expected shape: the both-off baseline is latency-bound (the critical
chain's hop latency covers most of the makespan; TD transfer is a >25 ns
hop component); each feature alone removes its component; both together
clear the >= 1.25x bar with the TD-transfer component overlapped to
< 10 ns mean along the critical chain.

Reproduce from the CLI::

    python -m repro sweep random --tasks 1200 --shards 4 --masters 4 \
        --batch 8 --retire-depth 4 --prefetch-depth 2 \
        --axis kickoff_fast_path=off,on --axis td_cache_entries=0,64 \
        --no-contention --json report.json

The machine-readable grid lands in ``BENCH_dispatch_latency.json`` at the
repository root.
"""

import json
from pathlib import Path

from conftest import FULL, report

from repro.analysis import render_table
from repro.config import BUS_MODEL_FITTED, SystemConfig
from repro.machine import analyze_bottleneck, grid_sweep
from repro.traces import random_trace

N_TASKS = 3000 if FULL else 1200
WORKERS = 16
SHARDS = 4
MASTERS = 4
BATCH = 8
RETIRE_DEPTH = 4
TD_CACHE = 64
PREFETCH_DEPTH = 2

JSON_PATH = Path(__file__).parent.parent / "BENCH_dispatch_latency.json"


def _experiment():
    trace = random_trace(
        N_TASKS,
        n_addresses=96,
        max_params=6,
        seed=7,
        mean_exec=4000,
        mean_memory=0,
        name="random-hazard-dense",
    )
    cfg = SystemConfig(
        workers=WORKERS,
        maestro_shards=SHARDS,
        master_cores=MASTERS,
        submission_batch=BATCH,
        retire_pipeline_depth=RETIRE_DEPTH,
        td_prefetch_depth=PREFETCH_DEPTH,
        memory_contention=False,
        bus_model=BUS_MODEL_FITTED,
    )
    # Fast path outermost: (off, off), (cache, off), (off, fast), (both).
    return grid_sweep(
        trace,
        cfg,
        {"kickoff_fast_path": [False, True], "td_cache_entries": [0, TD_CACHE]},
    )


def test_dispatch_latency(benchmark):
    rep = benchmark.pedantic(_experiment, rounds=1, iterations=1)
    rows = rep.rows()

    JSON_PATH.write_text(json.dumps(rep.to_json_dict(), indent=2) + "\n")

    table = render_table(
        [
            "TD cache",
            "fast path",
            "makespan (us)",
            "speedup",
            "chain depth",
            "ns/hop",
            "resolve/fwd/TD/start",
            "cache hits",
        ],
        [
            [
                r["td_cache_entries"] or "off",
                "on" if r["kickoff_fast_path"] else "off",
                round(r["makespan_ps"] / 1e6, 2),
                round(r["speedup_vs_baseline"], 2),
                r["chain_depth"],
                round(r["chain_hop_ns"].get("total", 0.0), 1),
                "/".join(
                    f"{r['chain_hop_ns'].get(c, 0.0):.0f}"
                    for c in ("resolve", "forward", "td_transfer", "start")
                ),
                (
                    f"{r['td_cache_hit_rate']:.0%}"
                    if r["td_cache_hit_rate"] is not None
                    else "-"
                ),
            ]
            for r in rows
        ],
        f"Fast-dispatch latency grid ({rep.trace_name}, {WORKERS} workers, "
        f"{SHARDS} shards, {MASTERS} masters x batch {BATCH}, retire depth "
        f"{RETIRE_DEPTH})",
    )
    table += f"\nmachine-readable grid: {JSON_PATH.name}"
    report("dispatch_latency", table)

    by_point = {(r["td_cache_entries"], r["kickoff_fast_path"]): r for r in rows}
    off = by_point[(0, False)]
    both = by_point[(TD_CACHE, True)]

    # The baseline must be what PR 3 left behind: a latency-bound machine
    # — nothing saturated, the critical chain's per-hop machinery latency
    # covering most of the run, with the TD transfer the dominant hop.
    verdict = analyze_bottleneck(rep.runs[0], rep.configs[0])
    assert verdict.verdict == "latency", verdict.describe()
    assert off["chain_fraction"] > 0.5
    assert off["chain_hop_ns"]["td_transfer"] > 25.0

    # The subsystem must cut the per-hop chain latency >= 1.25x.
    assert both["speedup_vs_baseline"] >= 1.25
    # ... with the TD transfer genuinely overlapped: the staged-descriptor
    # handoff leaves < 10 ns mean along the critical chain.
    assert both["chain_hop_ns"]["td_transfer"] < 10.0
    # Each feature removes its own component: the cache the TD transfer,
    # the fast path the forward hop.
    cache_only = by_point[(TD_CACHE, False)]
    fast_only = by_point[(0, True)]
    assert cache_only["chain_hop_ns"]["td_transfer"] < 10.0
    assert fast_only["chain_hop_ns"]["forward"] < off["chain_hop_ns"]["forward"]
    assert both["chain_hop_ns"]["forward"] < 10.0
    # The fast path actually fires, and the hop total shrinks.
    assert both["fast_dispatches"] > 0
    assert both["chain_hop_ns"]["total"] < off["chain_hop_ns"]["total"]
