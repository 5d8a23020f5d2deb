"""Tests for WAR/WAW renaming (§III-B's 'normally resolved via renaming')."""

import pytest

from repro.runtime.renaming import count_false_dependencies, rename_trace
from repro.runtime.task_graph import build_task_graph
from repro.traces import AccessMode, Param, TaskTrace, TraceTask, random_trace

A, B = 0x100, 0x200


def trace_of(*param_lists):
    tasks = []
    for tid, plist in enumerate(param_lists):
        params = tuple(Param(a, 64, AccessMode.parse(m)) for a, m in plist)
        tasks.append(TraceTask(tid, 1, params, 100))
    return TaskTrace("unit", tasks)


class TestRenaming:
    def test_war_removed(self):
        trace = trace_of([(A, "in")], [(A, "out")])
        renamed = rename_trace(trace)
        assert build_task_graph(renamed).n_edges == 0

    def test_waw_removed(self):
        trace = trace_of([(A, "out")], [(A, "out")])
        renamed = rename_trace(trace)
        assert build_task_graph(renamed).n_edges == 0

    def test_raw_preserved(self):
        trace = trace_of([(A, "out")], [(A, "in")])
        renamed = rename_trace(trace)
        graph = build_task_graph(renamed)
        assert graph.is_edge(0, 1)
        assert graph.n_edges == 1

    def test_inout_chain_stays_serial(self):
        # inout chains are true dependencies: renaming must keep them.
        trace = trace_of([(A, "out")], [(A, "inout")], [(A, "inout")])
        renamed = rename_trace(trace)
        graph = build_task_graph(renamed)
        assert graph.is_edge(0, 1) and graph.is_edge(1, 2)

    def test_no_writes_share_addresses(self):
        trace = random_trace(60, n_addresses=5, seed=9)
        renamed = rename_trace(trace)
        written = []
        for task in renamed:
            written.extend(p.addr for p in task.params if p.mode.writes)
        assert len(written) == len(set(written))

    def test_raw_set_identical_before_and_after(self):
        trace = random_trace(80, n_addresses=6, seed=4)
        g_before = build_task_graph(trace)
        g_after = build_task_graph(rename_trace(trace))
        from repro.runtime.task_graph import DependenceKind

        raw_before = {
            e for e, k in g_before.edge_kinds.items() if k == DependenceKind.RAW
        }
        after_edges = set(g_after.edge_kinds)
        # Every original RAW edge survives; every surviving edge was
        # reachable in the original graph (renaming adds nothing).
        assert raw_before <= after_edges
        for e in after_edges:
            assert g_before.is_edge(*e)

    def test_more_parallelism_never_less(self):
        trace = random_trace(100, n_addresses=4, seed=1)
        before = build_task_graph(trace).max_parallelism()
        after = build_task_graph(rename_trace(trace)).max_parallelism()
        assert after >= before

    def test_false_dependency_counter(self):
        trace = trace_of(
            [(A, "out")], [(A, "in")], [(A, "out")], [(A, "out")]
        )
        # Edges: RAW(0,1); WAR(1,2); WAW(0,2) and WAW(2,3).
        raw, war, waw = count_false_dependencies(trace)
        assert raw == 1 and war == 1 and waw == 2

    def test_renamed_trace_runs_on_machine(self):
        from repro.config import SystemConfig
        from repro.machine import run_trace

        trace = random_trace(60, n_addresses=5, seed=12)
        renamed = rename_trace(trace)
        result = run_trace(renamed, SystemConfig(workers=4, memory_batch_chunks=8))
        assert result.verify_against(build_task_graph(renamed)) == []

    def test_renaming_speeds_up_waw_heavy_trace(self):
        from repro.config import SystemConfig
        from repro.machine import run_trace

        # 40 tasks all rewriting one segment: fully serial without renaming.
        tasks = [
            TraceTask(tid, 1, (Param(A, 64, AccessMode.OUT),), 1_000_000)
            for tid in range(40)
        ]
        trace = TaskTrace("waw-heavy", tasks)
        cfg = SystemConfig(workers=8, memory_contention=False)
        plain = run_trace(trace, cfg)
        renamed = run_trace(rename_trace(trace), cfg)
        assert renamed.makespan < plain.makespan / 4

    def test_validation(self):
        trace = trace_of([(A, "out")])
        with pytest.raises(ValueError):
            rename_trace(trace, version_stride=0)
        with pytest.raises(ValueError):
            rename_trace(trace, version_stride=32)  # smaller than segment
