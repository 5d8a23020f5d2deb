"""Fast dispatch: per-hop latency breakdown before/after the fast path.

PR 3 left the 4-shard / 4-master / retire-depth-4 machine *latency-bound*:
no resource saturates, but the hazard-dense workload's critical dependence
chain pays ~85 ns per hop — TD transfer after the final resolution, the
forward hop to the home shard, the resolution itself.  This example runs
the latency-bound machine with the fast-dispatch subsystem off and on and
prints the per-hop latency breakdown (resolve / forward / TD transfer /
start along the critical chain) for each step of the ablation, plus the
bottleneck verdict — the baseline reads *latency-bound* with the chain
arithmetic spelled out, the full subsystem shifts the dominant component
back to resolve.

Run with::

    PYTHONPATH=src python examples/fast_dispatch.py
"""

from repro.analysis import render_table
from repro.config import LADDER
from repro.machine import analyze_bottleneck, grid_sweep
from repro.traces import random_trace


def main() -> None:
    trace = random_trace(
        1200,
        n_addresses=96,
        max_params=6,
        seed=7,
        mean_exec=4000,
        mean_memory=0,
        name="random-hazard-dense",
    )
    cfg = LADDER["retire"]
    report = grid_sweep(
        trace, cfg, {"kickoff_fast_path": [False, True], "td_cache_entries": [0, 64]}
    )

    rows = []
    for row in report.rows():
        hop = row["chain_hop_ns"]
        rows.append(
            [
                row["td_cache_entries"] or "off",
                "on" if row["kickoff_fast_path"] else "off",
                round(row["makespan_ps"] / 1e6, 2),
                round(row["speedup_vs_baseline"], 2),
                f"{hop.get('total', 0.0):.0f}",
                f"{hop.get('resolve', 0.0):.0f}",
                f"{hop.get('forward', 0.0):.0f}",
                f"{hop.get('td_transfer', 0.0):.0f}",
                row["dominant_chain_component"],
            ]
        )
    print(
        render_table(
            [
                "TD cache",
                "fast path",
                "makespan (us)",
                "speedup",
                "ns/hop",
                "resolve",
                "forward",
                "TD",
                "dominant",
            ],
            rows,
            f"{trace.name}: fast-dispatch ablation "
            f"({cfg.workers} workers, {cfg.maestro_shards} shards, "
            f"{cfg.master_cores} masters, retire depth "
            f"{cfg.retire_pipeline_depth})",
        )
    )

    # The full attribution for the two ends of the grid: the baseline is
    # latency-bound with the chain arithmetic in the verdict detail; the
    # full subsystem's chain is ~1.5x shorter per hop.
    for i in (0, -1):
        run = report.runs[i]
        rep = analyze_bottleneck(run)
        label = (
            f"cache={run.config.td_cache_entries or 'off'}, "
            f"fast path={'on' if run.config.kickoff_fast_path else 'off'}"
        )
        print(f"\n{label}: {rep.describe()}")
        sub = run.stats["dispatch"].get("fast_dispatch")
        if sub and "td_cache" in sub:
            cache = sub["td_cache"]
            print(
                f"  TD cache: {cache['hit_rate']:.0%} hit rate, "
                f"{cache['evictions']} evictions, "
                f"{cache['invalidations']} invalidated at retire; "
                f"{sub['fast_dispatches']} fast dispatches "
                f"({sub['fast_dispatches_remote']} skipped the forward hop)"
            )


if __name__ == "__main__":
    main()
