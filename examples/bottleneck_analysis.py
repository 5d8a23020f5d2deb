#!/usr/bin/env python3
"""Why did it stop scaling?  Bottleneck attribution + worker timelines.

The paper explains each of its saturation points narratively (master can't
generate tasks fast enough / limited memory bandwidth / not enough
task-level parallelism).  This example reproduces those three regimes on
purpose and shows the automated attribution plus a per-core Gantt chart
for each.

Run:  python examples/bottleneck_analysis.py
"""

from repro.analysis import gantt_chart, render_table, stage_latency_table
from repro.config import LADDER, SystemConfig
from repro.machine import analyze_bottleneck, run_trace
from repro.traces import TimeModel, horizontal_chains_trace, independent_trace

FAST = TimeModel(mean_exec=2_000_000, mean_memory=1_500_000, cv=0.1)


def show(title: str, trace, cfg: SystemConfig) -> None:
    result = run_trace(trace, cfg)
    verdict = analyze_bottleneck(result)
    print(f"\n=== {title} ===")
    print(result.summary())
    print(verdict.describe())
    print(gantt_chart(result, width=88, max_cores=8))


def main() -> None:
    # 1. Worker-bound: a small machine saturates its cores.
    show(
        "worker-bound: 2 cores, plenty of parallel work",
        independent_trace(n_tasks=400, n_params=2, time_model=FAST),
        SystemConfig(workers=2, memory_contention=False),
    )

    # 2. Memory-bound: 64 cores demand ~41 banks, only 32 exist.
    show(
        "memory-bound: 64 cores vs 32 memory banks",
        independent_trace(n_tasks=4000),
        SystemConfig(workers=64),
    )

    # 3. Application-bound: 4 dependency chains cannot feed 16 cores.
    show(
        "application-bound: 4 chains on 16 cores",
        horizontal_chains_trace(rows=4, cols=60, time_model=FAST),
        SystemConfig(workers=16, memory_contention=False),
    )

    # 4. Master-bound: 256 cores drain tasks faster than one master makes them.
    trace = independent_trace()
    cfg = LADDER["contention-free"].with_(workers=256)
    result = run_trace(trace, cfg)
    print("\n=== master-bound: 256 cores, contention-free ===")
    print(result.summary())
    print(analyze_bottleneck(result).describe())
    print()
    print(render_table(
        ["lifecycle stage", "mean latency (ns)"],
        stage_latency_table(result),
        "where a task's time goes (note the ready->dispatched wait: tasks "
        "queue because workers outpace the master)",
    ))


if __name__ == "__main__":
    main()
