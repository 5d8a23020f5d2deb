#!/usr/bin/env python3
"""Design-space exploration: how big must the hardware tables be? (Fig. 6)

Sweeps the Dependence Table and Task Pool sizes for the independent-task
workload and reports speedup plus the longest hash chain — a miniature of
the experiment the paper used to pick the 1K-TD / 4K-entry design point.

Run:  python examples/design_space_exploration.py   (~1 minute)
"""

from repro.analysis import plot_series, render_table
from repro.config import LADDER
from repro.machine import NexusMachine, grid_sweep
from repro.traces import independent_trace

WORKERS = 64  # scaled down from the paper's 256 so the example stays quick
N_TASKS = 3000


def main() -> None:
    trace = independent_trace(n_tasks=N_TASKS)
    base_cfg = LADDER["contention-free"].with_(workers=WORKERS).with_(task_pool_entries=2048)
    baseline = NexusMachine(base_cfg.with_(workers=1)).run(trace)

    # --- sweep the Dependence Table, large fixed Task Pool ---------------------
    dt_sizes = [256, 512, 1024, 2048, 4096, 8192]
    dt_rows = []
    dt_points = []
    dt_grid = grid_sweep(trace, base_cfg, {"dependence_table_entries": dt_sizes})
    for size, result in zip(dt_sizes, dt_grid.runs):
        speedup = result.speedup_over(baseline)
        chain = result.stats["dep_table"]["max_hash_chain"]
        dt_rows.append([size, round(speedup, 1), chain])
        dt_points.append((float(size), speedup))
    print(render_table(
        ["DT entries", "speedup", "longest hash chain"],
        dt_rows,
        f"Dependence Table sweep (Task Pool fixed at 2K, {WORKERS} cores)",
    ))

    # --- sweep the Task Pool, large fixed Dependence Table ----------------------
    tp_sizes = [64, 128, 256, 512, 1024, 2048]
    tp_rows = []
    tp_points = []
    tp_grid = grid_sweep(
        trace,
        base_cfg.with_(dependence_table_entries=8192),
        {"task_pool_entries": tp_sizes},
    )
    for size, result in zip(tp_sizes, tp_grid.runs):
        speedup = result.speedup_over(baseline)
        tp_rows.append([size, round(speedup, 1)])
        tp_points.append((float(size), speedup))
    print()
    print(render_table(
        ["TP entries", "speedup"],
        tp_rows,
        f"Task Pool sweep (Dependence Table fixed at 8K, {WORKERS} cores)",
    ))

    print()
    print(plot_series(
        {"DT sweep": dt_points, "TP sweep": tp_points},
        title="Fig. 6 shape: speedup saturates once each table covers the task window",
        xlabel="entries",
        ylabel="speedup",
    ))
    print("\nPaper's conclusion, reproduced: a ~512-entry Task Pool already "
          "reaches peak speedup; the Dependence Table needs to cover the "
          "in-flight address window, and extra capacity mainly shortens "
          "hash chains.")


if __name__ == "__main__":
    main()
