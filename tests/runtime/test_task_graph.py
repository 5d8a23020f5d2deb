"""Tests for the golden-model dependence analysis (Listing 2 semantics)."""

import gc
import hashlib
import tracemalloc

import pytest
from hypothesis import given, settings
from strategies import traces

from repro.runtime.task_graph import DependenceKind, build_task_graph
from repro.traces import AccessMode, Param, TaskTrace, TraceTask


def trace_of(*param_lists, times=None):
    """Build a trace where task k has the given (addr, mode) parameter list."""
    tasks = []
    for tid, plist in enumerate(param_lists):
        params = tuple(Param(addr, 64, AccessMode.parse(mode)) for addr, mode in plist)
        cost = times[tid] if times else 100
        tasks.append(TraceTask(tid, 1, params, cost))
    return TaskTrace("unit", tasks)


A, B, C = 0x100, 0x200, 0x300


class TestHazards:
    def test_raw(self):
        g = build_task_graph(trace_of([(A, "out")], [(A, "in")]))
        assert g.is_edge(0, 1)
        assert g.edge_kinds[(0, 1)] == DependenceKind.RAW

    def test_war(self):
        g = build_task_graph(trace_of([(A, "in")], [(A, "out")]))
        assert g.is_edge(0, 1)
        assert g.edge_kinds[(0, 1)] == DependenceKind.WAR

    def test_waw(self):
        g = build_task_graph(trace_of([(A, "out")], [(A, "out")]))
        assert g.is_edge(0, 1)
        assert g.edge_kinds[(0, 1)] == DependenceKind.WAW

    def test_readers_do_not_depend_on_each_other(self):
        g = build_task_graph(trace_of([(A, "out")], [(A, "in")], [(A, "in")]))
        assert g.is_edge(0, 1) and g.is_edge(0, 2)
        assert not g.is_edge(1, 2) and not g.is_edge(2, 1)

    def test_writer_waits_for_all_readers(self):
        g = build_task_graph(
            trace_of([(A, "out")], [(A, "in")], [(A, "in")], [(A, "out")])
        )
        assert g.is_edge(1, 3) and g.is_edge(2, 3)
        assert g.edge_kinds[(1, 3)] == DependenceKind.WAR

    def test_reader_after_waiting_writer_depends_on_writer(self):
        # T0 reads, T1 writes (waits for T0), T2 reads -> T2 must see T1's
        # value, not race ahead of it (the paper's writer-waits flag).
        g = build_task_graph(trace_of([(A, "in")], [(A, "out")], [(A, "in")]))
        assert g.is_edge(1, 2)
        assert g.edge_kinds[(1, 2)] == DependenceKind.RAW
        assert not g.is_edge(0, 2)

    def test_inout_acts_as_read_and_write(self):
        g = build_task_graph(trace_of([(A, "inout")], [(A, "inout")]))
        assert g.is_edge(0, 1)
        # RAW dominates the simultaneous WAW.
        assert g.edge_kinds[(0, 1)] == DependenceKind.RAW

    def test_independent_addresses_no_edges(self):
        g = build_task_graph(trace_of([(A, "out")], [(B, "out")], [(C, "inout")]))
        assert g.n_edges == 0

    def test_duplicate_address_within_task_merges_modes(self):
        # Task 1 lists A twice (in + out); it must behave as inout: depend on
        # the old writer once and become the new writer.
        g = build_task_graph(
            trace_of([(A, "out")], [(A, "in"), (A, "out")], [(A, "in")])
        )
        assert g.is_edge(0, 1)
        assert g.is_edge(1, 2)
        assert not g.is_edge(0, 2)

    def test_chain_of_writers(self):
        g = build_task_graph(trace_of([(A, "out")], [(A, "inout")], [(A, "inout")]))
        assert g.is_edge(0, 1) and g.is_edge(1, 2)
        assert not g.is_edge(0, 2)  # only the adjacent writer


class TestGraphQueries:
    def test_roots_and_degrees(self):
        g = build_task_graph(trace_of([(A, "out")], [(B, "out")], [(A, "in"), (B, "in")]))
        assert g.roots() == [0, 1]
        assert g.in_degree(2) == 2
        assert g.n_edges == 2

    def test_parallelism_profile(self):
        g = build_task_graph(trace_of([(A, "out")], [(B, "out")], [(A, "in"), (B, "in")]))
        assert g.parallelism_profile() == [2, 1]
        assert g.max_parallelism() == 2
        assert g.average_parallelism() == pytest.approx(1.5)


class TestCSRQueries:
    """The CSR graph answers every query the set-of-sets graph did."""

    @pytest.fixture(scope="class")
    def g(self):
        return build_task_graph(
            trace_of([(A, "out")], [(A, "in"), (B, "out")],
                     [(A, "out"), (B, "in")], [(B, "out")], [(C, "in")])
        )

    def test_edge_kinds_mapping(self, g):
        kinds = g.edge_kinds
        assert dict(kinds) == {
            (0, 1): "RAW", (0, 2): "WAW", (1, 2): "RAW",
            (1, 3): "WAW", (2, 3): "WAR",
        }
        assert kinds[(2, 3)] == DependenceKind.WAR
        assert kinds.get((0, 3)) is None and kinds.get((0, 3), "?") == "?"
        assert (1, 3) in kinds and (3, 1) not in kinds
        assert sorted(kinds.values()) == ["RAW", "RAW", "WAR", "WAW", "WAW"]
        assert len(kinds) == g.n_edges == 5
        with pytest.raises(KeyError):
            kinds[(4, 0)]

    def test_rows_compare_as_sets(self, g):
        assert g.predecessors[2] == {0, 1}
        assert g.predecessors[0] == set() and g.predecessors[4] == set()
        assert [g.in_degree(t) for t in range(5)] == [0, 1, 2, 2, 0]
        assert g.successors[0] == {1, 2} and g.successors[1] == {2, 3}
        assert g.successors[3] == set()
        assert len(g.predecessors) == len(g.successors) == 5
        assert g.roots() == [0, 4]

    def test_is_edge(self, g):
        assert g.is_edge(0, 2) and g.is_edge(2, 3)
        assert not g.is_edge(2, 0) and not g.is_edge(0, 3)
        assert not g.is_edge(0, 99)

    def test_count_false_dependencies(self):
        from repro.runtime.renaming import count_false_dependencies

        trace = trace_of([(A, "out")], [(A, "in"), (B, "out")],
                         [(A, "out"), (B, "in")], [(B, "out")])
        assert count_false_dependencies(trace) == (2, 1, 2)


@settings(max_examples=150, deadline=None)
@given(traces(max_tasks=40))
def test_successor_csr_is_the_transposed_predecessor_csr(trace):
    """Every edge appears once in each CSR, and each successor row holds
    ascending ids, the order the software runtime releases them in."""
    g = build_task_graph(trace)
    assert len(g.successors) == g.n_tasks
    offsets, ids = g._succ_offsets, g._succ_ids
    assert offsets[0] == 0 and offsets[-1] == len(ids) == g.n_edges
    rows = [list(ids[offsets[t]:offsets[t + 1]]) for t in range(g.n_tasks)]
    assert all(row == sorted(set(row)) for row in rows)
    transposed = [[] for _ in range(g.n_tasks)]
    for succ in range(g.n_tasks):
        for pred in sorted(g.predecessors[succ]):
            transposed[pred].append(succ)
    assert rows == transposed


def test_graph_retains_at_most_64_bytes_per_task():
    """Predecessor CSR: one int64 offset per task plus a four-byte id and a
    kind byte per edge (the set-of-sets graph kept 855 B/task)."""
    from repro.traces import gaussian_trace

    trace = gaussian_trace(100)
    tracemalloc.start()
    try:
        graph = build_task_graph(trace)
        n_edges = graph.n_edges
        gc.collect()
        with_graph = tracemalloc.get_traced_memory()[0]
        del graph
        gc.collect()
        retained = with_graph - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 5 * n_edges <= retained <= 64 * len(trace)


class TestBounds:
    def test_critical_path_linear_chain(self):
        g = build_task_graph(
            trace_of([(A, "out")], [(A, "inout")], [(A, "inout")], times=[10, 20, 30])
        )
        assert g.critical_path() == 60
        assert g.total_work == 60

    def test_critical_path_diamond(self):
        g = build_task_graph(
            trace_of(
                [(A, "out"), (B, "out")],  # 0
                [(A, "in"), (C, "out")],  # 1 (depends on 0)
                [(B, "inout")],  # 2 (depends on 0)
                [(C, "in"), (B, "in")],  # 3 (depends on 1 and 2)
                times=[5, 10, 50, 5],
            )
        )
        assert g.critical_path() == 5 + 50 + 5

    def test_list_schedule_one_core_equals_total_work(self):
        g = build_task_graph(trace_of([(A, "out")], [(B, "out")], times=[30, 40]))
        assert g.list_schedule_makespan(1) == 70

    def test_list_schedule_parallel_tasks(self):
        g = build_task_graph(
            trace_of([(A, "out")], [(B, "out")], [(C, "out")], times=[50, 50, 50])
        )
        assert g.list_schedule_makespan(3) == 50
        assert g.list_schedule_makespan(1) == 150

    def test_list_schedule_respects_dependencies(self):
        g = build_task_graph(
            trace_of([(A, "out")], [(A, "inout")], times=[100, 100])
        )
        assert g.list_schedule_makespan(8) == 200

    def test_makespan_bounds_sandwich(self):
        from repro.traces import h264_wavefront_trace

        g = build_task_graph(h264_wavefront_trace(rows=8, cols=8))
        for p in (1, 2, 4):
            ms = g.list_schedule_makespan(p)
            assert ms >= g.critical_path()
            assert ms >= g.total_work // p
            assert ms <= g.total_work

    def test_invalid_core_count(self):
        g = build_task_graph(trace_of([(A, "out")]))
        with pytest.raises(ValueError):
            g.list_schedule_makespan(0)


class TestScheduleChecker:
    def test_legal_schedule_passes(self):
        g = build_task_graph(trace_of([(A, "out")], [(A, "in")]))
        assert g.check_schedule([0, 100], [100, 200]) == []

    def test_violation_detected(self):
        g = build_task_graph(trace_of([(A, "out")], [(A, "in")]))
        problems = g.check_schedule([0, 50], [100, 150])
        assert len(problems) == 1
        assert "RAW violation" in problems[0]

    def test_violation_strings_are_pinned(self):
        """The perf ledger parses these strings: they must not change.
        Problems come by ascending successor, then ascending predecessor."""
        g = build_task_graph(
            trace_of([(A, "out")], [(A, "in"), (B, "out")],
                     [(A, "out"), (B, "in")], [(B, "out")])
        )
        assert g.check_schedule([0, 5, 6, 7], [10, 20, 30, 40]) == [
            "RAW violation: task 1 started at 5 before task 0 finished at 10",
            "WAW violation: task 2 started at 6 before task 0 finished at 10",
            "RAW violation: task 2 started at 6 before task 1 finished at 20",
            "WAW violation: task 3 started at 7 before task 1 finished at 20",
            "WAR violation: task 3 started at 7 before task 2 finished at 30",
        ]

    def test_wrong_length_detected(self):
        g = build_task_graph(trace_of([(A, "out")], [(A, "in")]))
        assert g.check_schedule([0], [10]) != []


def edge_digest(graph):
    """sha256 of the sorted ``(pred, succ, kind)`` edge list."""
    edges = sorted(
        (p, s, graph.edge_kinds[(p, s)])
        for s in range(graph.n_tasks)
        for p in graph.predecessors[s]
    )
    return hashlib.sha256(repr(edges).encode()).hexdigest()


#: Edge counts and digests recorded on the set-of-sets graph the CSR graph
#: replaced; the CSR build must reproduce every edge and kind exactly.
GRAPH_GOLDENS = [
    ("gaussian_trace(30)", 1275,
     "2b6996ccaeb3c4a44fb1dd6931f9f9709588633b902b6e358ace84f911165d3c"),
    ("random_trace(3000, 16, 6, seed=1)", 11746,
     "864149dff40eea0a7f05d951c42bb3370b3825fe447a8e1d93f77afac08f2a90"),
    ("random_trace(9000, 1024, 4, seed=5)", 27855,
     "9d6e5a717fdff578bb98d530ca9eeb76c86049ab848afcd458b15a59e3c06654"),
    ("wait_chain_trace(4, 50, spin_ns=250)", 196,
     "0231fd5af69ed90cf77d81d472fbac08827a8a6c9711709af7a9c6092c3ac292"),
    ("h264_wavefront_trace()", 16013,
     "ede12e86543f16b63832cfa9e940861f5c7c6a29db5bf65c1025854d240daeed"),
]


@pytest.mark.parametrize("expr, n_edges, digest", GRAPH_GOLDENS,
                         ids=[g[0] for g in GRAPH_GOLDENS])
def test_graph_golden_digests(expr, n_edges, digest):
    from repro import traces

    graph = build_task_graph(eval(expr, vars(traces)))
    assert graph.n_edges == n_edges
    assert edge_digest(graph) == digest
