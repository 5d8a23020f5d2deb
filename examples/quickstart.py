#!/usr/bin/env python3
"""Quickstart: simulate an H.264 frame decode on a Nexus++ multicore.

Builds the paper's wavefront workload (Listing 1 / Fig. 4a), runs it on a
16-worker machine with Table IV parameters, and prints what the hardware
did — all in a few seconds.

Run:  python examples/quickstart.py
"""

from repro import NexusMachine, SystemConfig, h264_wavefront_trace
from repro.analysis import render_table
from repro.runtime import build_task_graph


def main() -> None:
    # 1. The workload: 120x68 macroblocks, one task per block.
    trace = h264_wavefront_trace()
    print(trace.describe())

    # 2. The machine: Table IV configuration with 16 worker cores.
    config = SystemConfig(workers=16)
    print()
    print(render_table(["parameter", "value"], config.table_iv(), "Table IV"))

    # 3. Simulate.
    result = NexusMachine(config).run(trace)
    print()
    print(result.summary())

    # 4. Check the schedule against the golden dependence graph.
    graph = build_task_graph(trace)
    problems = result.verify_against(graph)
    print(f"dependence check: {'OK' if not problems else problems[:3]}")
    print(f"dependence edges: {graph.n_edges}, critical path "
          f"{graph.critical_path() / 1e9:.2f} ms, "
          f"max parallelism {graph.max_parallelism()}")

    # 5. What the hardware structures saw.
    dep = result.stats["dep_table"]
    print()
    print(render_table(
        ["structure", "value"],
        [
            ["Task Pool high water", result.stats["task_pool"]["high_water"]],
            ["Dependence Table high water", dep["high_water"]],
            ["longest hash chain", dep["max_hash_chain"]],
            ["longest Kick-Off list", dep["max_kickoff_waiters"]],
            ["mean hash probes", round(dep["mean_probes"], 2)],
            ["mean busy memory banks", round(result.stats["memory"]["mean_busy_banks"], 1)],
        ],
        "hardware counters",
    ))


if __name__ == "__main__":
    main()
