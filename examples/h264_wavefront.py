#!/usr/bin/env python3
"""H.264 wavefront decoding, written exactly like the paper's Listing 1.

Shows the full path from annotated source code to hardware simulation:

1. write the wavefront decode loop with ``@prog.task`` pragmas;
2. lower the recorded program to a task trace and replay it on Nexus++
   machines of increasing size (a miniature of Fig. 7's wavefront series);
3. *execute it functionally* in the order the 8-core machine started the
   tasks, and validate the result against a serial reference.

Run:  python examples/h264_wavefront.py
"""

import numpy as np

from repro.analysis import plot_speedup_curves, render_table
from repro.config import SystemConfig
from repro.frontend import StarSsProgram, execute
from repro.machine import grid_sweep, saturation_point
from repro.runtime import build_task_graph
from repro.sim import US

ROWS, COLS = 24, 16  # scaled-down frame so the example runs in seconds
MB = 16  # macroblock edge


def build_program() -> tuple[StarSsProgram, list[list[np.ndarray]]]:
    """Listing 1: decode(left, upright, this) over every macroblock."""
    prog = StarSsProgram("h264")
    frame = [[np.zeros((MB, MB)) for _ in range(COLS)] for _ in range(ROWS)]

    @prog.task(inputs=("left", "upright"), inouts=("block",))
    def decode(left, upright, block):
        # A stand-in for real macroblock decoding: the block's value is a
        # deterministic function of its neighbours, so the wavefront order
        # is observable in the data.
        acc = 1.0
        if left is not None:
            acc += left[0, 0]
        if upright is not None:
            acc += upright[0, 0]
        block += acc

    for i in range(ROWS):
        for j in range(COLS):
            decode(
                frame[i][j - 1] if j > 0 else None,
                frame[i - 1][j + 1] if i > 0 and j + 1 < COLS else None,
                frame[i][j],
            )
    prog.barrier()
    return prog, frame


def reference_frame() -> list[list[float]]:
    ref = [[0.0] * COLS for _ in range(ROWS)]
    for i in range(ROWS):
        for j in range(COLS):
            acc = 1.0
            if j > 0:
                acc += ref[i][j - 1]
            if i > 0 and j + 1 < COLS:
                acc += ref[i - 1][j + 1]
            ref[i][j] = acc
    return ref


def main() -> None:
    prog, frame = build_program()
    # Give every decode task the paper's published mean times.
    trace = prog.to_trace(exec_time=round(11.8 * US))
    cores = [1, 2, 4, 8, 16, 32]
    sweep = grid_sweep(trace, SystemConfig(), {"workers": cores})

    # --- functional execution, in the 8-core machine's start order ------------
    graph = build_task_graph(trace)
    result = sweep.at(workers=8)
    assert not result.verify_against(graph)
    report = execute(prog, result.start_order())
    ref = reference_frame()
    ok = all(
        frame[i][j][0, 0] == ref[i][j] for i in range(ROWS) for j in range(COLS)
    )
    widest = graph.max_parallelism()
    print(f"functional wavefront: {len(prog.tasks)} tasks, "
          f"widest level {widest}, "
          f"result {'correct' if ok else 'WRONG'}")
    assert ok and report.ok

    # --- hardware simulation --------------------------------------------------
    speedups = sweep.speedups
    curve = list(zip(cores, speedups))
    print()
    print(render_table(
        ["cores", "speedup", "efficiency"],
        [[c, round(s, 2), f"{s / c:.2f}"] for c, s in curve],
        "wavefront on Nexus++ (scaled-down frame)",
    ))
    print()
    print(plot_speedup_curves({"wavefront": curve},
                              title="Ramping effect limits wavefront scaling"))
    print(f"\nsaturates around {saturation_point(cores, speedups)} cores "
          f"(available parallelism, not Nexus++, is the limit)")


if __name__ == "__main__":
    main()
