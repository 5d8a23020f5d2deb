#!/usr/bin/env python3
"""Gaussian elimination with partial pivoting — the paper's §V showcase.

Demonstrates the three claims the paper makes with this workload:

1. the task graph's fan-out grows with the matrix (Fig. 5), so fixed
   Kick-Off Lists overflow: original-Nexus restricted mode *rejects* it,
   Nexus++ absorbs it with dummy tasks/entries;
2. the workload runs efficiently end to end (a miniature of Fig. 8);
3. the programming model is real: the same task structure runs on the
   modelled machine, and its bodies, run in the order the machine started
   them, factorise an actual matrix (checked against NumPy).

Run:  python examples/gaussian_elimination.py
"""

import numpy as np

from repro.analysis import render_table
from repro.config import LADDER, SystemConfig
from repro.frontend import StarSsProgram, execute
from repro.hw.errors import CapacityError
from repro.machine import grid_sweep, run_trace
from repro.runtime import build_task_graph
from repro.traces import gaussian_task_count, gaussian_trace


def functional_lu(n: int = 24, workers: int = 8) -> None:
    """Really factorise an n x n matrix through the StarSs frontend, in
    the order the modelled machine runs the recorded tasks."""
    rng = np.random.default_rng(42)
    matrix = rng.normal(size=(n, n)) + np.eye(n) * n
    work = matrix.copy()
    rows = [work[i] for i in range(n)]
    prog = StarSsProgram("ge-functional")

    @prog.task(inouts=("pivot_row", "below"))
    def pivot(k, pivot_row, *below):
        col = [abs(pivot_row[k])] + [abs(r[k]) for r in below]
        best = int(np.argmax(col))
        if best > 0:
            tmp = pivot_row.copy()
            pivot_row[:] = below[best - 1]
            below[best - 1][:] = tmp

    @prog.task(inputs=("pivot_row",), inouts=("row",))
    def eliminate(k, pivot_row, row):
        factor = row[k] / pivot_row[k]
        row[k:] -= factor * pivot_row[k:]
        row[k] = factor

    for k in range(n - 1):
        pivot(k, rows[k], *rows[k + 1 :])
        for j in range(k + 1, n):
            eliminate(k, rows[k], rows[j])

    trace = prog.to_trace()
    graph = build_task_graph(trace)
    result = run_trace(trace, SystemConfig(workers=workers))
    assert not result.verify_against(graph)
    report = execute(prog, result.start_order())
    lu = np.vstack(rows)
    l = np.tril(lu, k=-1) + np.eye(n)
    u = np.triu(lu)
    det_ok = abs(np.linalg.det(l @ u)) - abs(np.linalg.det(matrix))
    widest = graph.max_parallelism()
    print(f"functional LU: {len(prog.tasks)} tasks "
          f"(= (n^2+n-2)/2 = {gaussian_task_count(n)}), "
          f"widest level {widest}, "
          f"|det| error {abs(det_ok):.2e}")
    assert report.ok and abs(det_ok) < 1e-6 * abs(np.linalg.det(matrix))


def nexus_vs_nexuspp(n: int = 64) -> None:
    """Original Nexus rejects GE; Nexus++ runs it (dummy tasks/entries)."""
    trace = gaussian_trace(n)
    print(f"\nGE n={n}: {len(trace)} tasks, widest task "
          f"{trace.max_params} parameters")
    try:
        run_trace(trace, LADDER["restricted"].with_(workers=4))
        print("restricted Nexus: unexpectedly succeeded?!")
    except CapacityError as exc:
        print(f"restricted Nexus: REJECTED — {exc}")
    result = run_trace(trace, SystemConfig(workers=4))
    dep = result.stats["dep_table"]
    print(f"Nexus++: completed in {result.makespan / 1e6:.1f} us using "
          f"{result.stats['task_pool']['dummy_tasks_created']} dummy tasks and "
          f"{dep['dummy_entries_created']} dummy entries "
          f"(longest Kick-Off list {dep['max_kickoff_waiters']})")


def mini_fig8(n: int = 100) -> None:
    trace = gaussian_trace(n)
    cores = [1, 2, 4, 8, 16]
    rep = grid_sweep(trace, SystemConfig(), {"workers": cores})
    print()
    print(render_table(
        ["cores", "speedup"],
        [[c, round(s, 2)] for c, s in zip(cores, rep.speedups)],
        f"GE n={n} on Nexus++ (miniature Fig. 8; larger n scales further)",
    ))


def main() -> None:
    functional_lu()
    nexus_vs_nexuspp()
    mini_fig8()


if __name__ == "__main__":
    main()
