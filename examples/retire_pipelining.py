"""Pipelined retirement: sweep the retire depth, attribute the bottleneck.

PR 2 left the 4-master/4-shard machine retire-bound: every shard's retire
front-end keeps one finish in flight, serializing param read, finish
scatter, reply gather and chain free per task (~31 us on the hazard-dense
workload).  This example sweeps ``retire_pipeline_depth`` on that machine
and prints, for each depth, where the bottleneck moved — the depth-1 run
is *retire*-bound, the pipelined runs return to the master/application
floor.

Run with::

    PYTHONPATH=src python examples/retire_pipelining.py
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
    cfg = LADDER["frontend"]
    depths = [1, 2, 4, 8]
    report = grid_sweep(trace, cfg, {"retire_pipeline_depth": depths})

    rows = []
    for row, run in zip(report.rows(), report.runs):
        verdict = analyze_bottleneck(run)
        rows.append(
            [
                row["retire_pipeline_depth"],
                run.config.tp_ports,
                round(row["makespan_ps"] / 1e6, 2),
                round(row["speedup_vs_baseline"], 2),
                f"{row['retire_full_fraction']:.0%}",
                verdict.verdict,
            ]
        )
    print(
        render_table(
            ["depth", "TP ports", "makespan (us)", "speedup", "pipe full", "bottleneck"],
            rows,
            f"{trace.name}: retire pipeline sweep "
            f"({cfg.workers} workers, {cfg.maestro_shards} shards, "
            f"{cfg.master_cores} masters)",
        )
    )

    # Show the full attribution for the two ends of the curve.
    for i in (0, -1):
        run = report.runs[i]
        rep = analyze_bottleneck(run)
        print(f"\ndepth {depths[i]}: {rep.describe()}")
        retire = run.stats["shards"]["retire"]
        print(
            f"  in-flight mean per shard: "
            f"{[round(m, 2) for m in retire['inflight_mean']]}, "
            f"pipe-full per shard: "
            f"{[f'{f:.0%}' for f in retire['full_fraction']]}"
        )


if __name__ == "__main__":
    main()
