#!/usr/bin/env python3
"""Tour of the StarSs programming model layer.

Covers every frontend feature on a realistic blocked-matrix pipeline:

* ``@prog.task`` pragmas with input/output/inout directions,
* variadic parameter lists (``*blocks`` — tasks wider than one descriptor),
* barriers,
* lowering to a trace and comparing a software StarSs runtime against
  Nexus++ on the *same* recorded program (the paper's motivation, §I),
* functional execution in the order Nexus++ started the tasks, with
  result validation.

Run:  python examples/starss_programming.py
"""

import numpy as np

from repro.analysis import render_table
from repro.config import SystemConfig
from repro.frontend import StarSsProgram, execute
from repro.machine import run_trace
from repro.runtime import SoftwareRTSConfig, build_task_graph, run_software_rts
from repro.sim import US

N_BLOCKS = 24
BLOCK = 32


def build_pipeline():
    """scale -> stencil -> reduce over a strip of matrix blocks."""
    prog = StarSsProgram("pipeline")
    blocks = [np.full((BLOCK, BLOCK), float(i)) for i in range(N_BLOCKS)]
    halo = [np.zeros((BLOCK, BLOCK)) for _ in range(N_BLOCKS)]
    total = np.zeros(1)

    @prog.task(inouts=("b",))
    def scale(b, factor):
        b *= factor

    @prog.task(inputs=("left", "right"), outputs=("out",))
    def stencil(left, right, out):
        out[:] = ((left if left is not None else 0)
                  + (right if right is not None else 0)) / 2.0

    @prog.task(inputs=("blocks",), inouts=("acc",))
    def reduce_all(acc, *blocks):
        acc[0] = sum(float(b.sum()) for b in blocks)

    # Phase 1: scale every block (embarrassingly parallel).
    for b in blocks:
        scale(b, 2.0)
    # Phase 2: halo exchange stencil (neighbour dependencies).
    for i in range(N_BLOCKS):
        stencil(
            blocks[i - 1] if i > 0 else None,
            blocks[i + 1] if i + 1 < N_BLOCKS else None,
            halo[i],
        )
    prog.barrier()
    # Phase 3: one wide reduction task reading all halo blocks (24 params
    # -> 3 Task Pool entries once lowered: dummy tasks in action).
    reduce_all(total, *halo)
    return prog, blocks, halo, total


def expected_total() -> float:
    vals = [2.0 * i for i in range(N_BLOCKS)]
    total = 0.0
    for i in range(N_BLOCKS):
        left = vals[i - 1] if i > 0 else 0.0
        right = vals[i + 1] if i + 1 < N_BLOCKS else 0.0
        total += (left + right) / 2.0 * BLOCK * BLOCK
    return total


def main() -> None:
    # --- record, simulate, and execute in Nexus++'s start order ---------------
    prog, blocks, halo, total = build_pipeline()
    print(f"recorded {len(prog.tasks)} tasks in "
          f"{prog.tasks[-1].epoch + 1} barrier epochs")
    trace = prog.to_trace(exec_time=round(5 * US))
    graph = build_task_graph(trace)
    cfg = SystemConfig(workers=8)
    hw = run_trace(trace, cfg)
    sw = run_software_rts(trace, cfg, SoftwareRTSConfig())
    assert not hw.verify_against(graph)
    report = execute(prog, hw.start_order())
    widest = graph.max_parallelism()
    print(f"executed: widest level {widest}, "
          f"reduction = {total[0]:.1f} (expected {expected_total():.1f})")
    assert report.ok and total[0] == expected_total()

    # --- compare the two runtimes on the lowered trace ------------------------
    print(f"\nlowered trace: {trace.describe()}")
    rows = [
        ["software StarSs RTS", round(sw.makespan / 1e6, 1),
         f"{sw.worker_utilization():.0%}"],
        ["Nexus++", round(hw.makespan / 1e6, 1),
         f"{hw.worker_utilization():.0%}"],
    ]
    print()
    print(render_table(
        ["runtime", "makespan (us)", "worker utilization"],
        rows,
        "same program, 8 workers: software RTS vs hardware task management",
    ))
    print(f"\nNexus++ is {sw.makespan / hw.makespan:.1f}x faster end-to-end; "
          "the wide reduction task occupied "
          f"{hw.stats['task_pool']['dummy_tasks_created']} dummy Task Pool entries")


if __name__ == "__main__":
    main()
