"""Tests for the StarSs-style frontend: recording, addressing, lowering."""

import numpy as np
import pytest

from repro.frontend import StarSsProgram
from repro.runtime.task_graph import build_task_graph
from repro.traces import AccessMode


def make_program():
    prog = StarSsProgram("unit")

    @prog.task(inputs=("a",), outputs=("b",))
    def copy(a, b):
        b[:] = a

    @prog.task(inouts=("x",))
    def double(x):
        x *= 2

    return prog, copy, double


class TestRecording:
    def test_call_records_instead_of_executing(self):
        prog, copy, _ = make_program()
        a, b = np.ones(4), np.zeros(4)
        copy(a, b)
        assert len(prog.tasks) == 1
        assert np.all(b == 0)  # nothing executed yet

    def test_access_modes_recorded(self):
        prog, copy, double = make_program()
        a, b = np.ones(4), np.zeros(4)
        copy(a, b)
        double(b)
        t0, t1 = prog.tasks
        assert [m for _, m in t0.accesses] == [AccessMode.IN, AccessMode.OUT]
        assert [m for _, m in t1.accesses] == [AccessMode.INOUT]
        assert t1.accesses[0][0] is b

    def test_none_argument_skipped(self):
        prog, copy, _ = make_program()
        b = np.zeros(4)
        copy(None, b)  # boundary case, as in Listing 1
        assert len(prog.tasks[0].accesses) == 1

    def test_duplicate_object_merges_to_strongest_mode(self):
        prog = StarSsProgram()

        @prog.task(inputs=("a",), outputs=("b",))
        def f(a, b):
            pass

        x = np.zeros(2)
        f(x, x)
        (obj, mode), = prog.tasks[0].accesses
        assert obj is x
        assert mode == AccessMode.INOUT

    def test_unknown_annotation_rejected(self):
        prog = StarSsProgram()
        with pytest.raises(ValueError, match="not parameters"):

            @prog.task(inputs=("nope",))
            def f(a):
                pass

    def test_conflicting_direction_rejected(self):
        prog = StarSsProgram()
        with pytest.raises(ValueError, match="one direction"):

            @prog.task(inputs=("a",), outputs=("a",))
            def f(a):
                pass

    def test_barrier_bumps_epoch(self):
        prog, copy, _ = make_program()
        a, b = np.ones(4), np.zeros(4)
        copy(a, b)
        prog.barrier()
        copy(b, a)
        assert prog.tasks[0].epoch == 0
        assert prog.tasks[1].epoch == 1

    def test_reset(self):
        prog, copy, _ = make_program()
        copy(np.ones(2), np.zeros(2))
        prog.reset()
        assert prog.tasks == []


class TestAddressing:
    def test_addresses_stable_and_disjoint(self):
        prog = StarSsProgram()
        a, b = np.zeros(100), np.zeros(100)
        addr_a = prog.address_of(a)
        assert prog.address_of(a) == addr_a
        addr_b = prog.address_of(b)
        assert addr_b >= addr_a + a.nbytes

    def test_alignment(self):
        prog = StarSsProgram()
        for obj in (np.zeros(3), np.zeros(17), bytearray(5)):
            assert prog.address_of(obj) % 64 == 0


class TestLowering:
    def test_trace_dependencies_match_object_flow(self):
        prog, copy, double = make_program()
        a, b, c = np.ones(4), np.zeros(4), np.zeros(4)
        copy(a, b)  # 0: writes b
        double(b)  # 1: inout b  (RAW on 0)
        copy(b, c)  # 2: reads b (RAW on 1), writes c
        trace = prog.to_trace(exec_time=1000)
        graph = build_task_graph(trace)
        assert graph.is_edge(0, 1)
        assert graph.is_edge(1, 2)
        assert not graph.is_edge(0, 2)

    def test_exec_time_callable(self):
        prog, copy, _ = make_program()
        copy(np.ones(4), np.zeros(4))
        copy(np.ones(4), np.zeros(4))
        trace = prog.to_trace(exec_time=lambda t: 100 * (t.tid + 1))
        assert trace[0].exec_time == 100
        assert trace[1].exec_time == 200

    def test_memory_times_from_object_sizes(self):
        prog = StarSsProgram()

        @prog.task(inputs=("a",), outputs=("b",))
        def f(a, b):
            pass

        a = np.zeros(1024, dtype=np.uint8)  # 1 KiB -> 8 chunks -> 96 ns
        b = np.zeros(256, dtype=np.uint8)  # 2 chunks -> 24 ns
        f(a, b)
        trace = prog.to_trace()
        assert trace[0].read_time == 96_000
        assert trace[0].write_time == 24_000

    def test_empty_program_rejected(self):
        with pytest.raises(ValueError, match="no tasks"):
            StarSsProgram().to_trace()

    def test_identical_builds_lower_to_equal_func_columns(self):
        def build():
            prog, copy, double = make_program()
            a, b = np.ones(4), np.zeros(4)
            copy(a, b)
            double(b)
            double(b)
            return prog.to_trace()

        first, second = build(), build()
        # Each task spec is numbered in the order it was first recorded.
        assert list(first.func) == list(second.func) == [0, 1, 1]

    def test_trace_runs_on_machine(self):
        from repro.config import SystemConfig
        from repro.machine import run_trace

        prog, copy, double = make_program()
        a, b, c = np.ones(4), np.zeros(4), np.zeros(4)
        copy(a, b)
        double(b)
        copy(b, c)
        result = run_trace(prog.to_trace(exec_time=5000), SystemConfig(workers=4, memory_batch_chunks=8))
        graph = build_task_graph(prog.to_trace(exec_time=5000))
        assert result.verify_against(graph) == []
