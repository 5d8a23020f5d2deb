"""Tests for TaskRecord/Scoreboard/RunResult plumbing."""

import pytest

from repro.config import SystemConfig
from repro.machine.results import RunResult, Scoreboard, TaskRecord


def complete_record(tid, base=0):
    r = TaskRecord(tid)
    r.core = 0
    r.submitted = base + 1
    r.stored = base + 2
    r.ready = base + 3
    r.dispatched = base + 4
    r.fetch_start = base + 5
    r.exec_start = base + 6
    r.exec_end = base + 7
    r.writeback_end = base + 8
    r.completed = base + 9
    return r


class TestTaskRecord:
    def test_fresh_record_incomplete(self):
        r = TaskRecord(0)
        assert not r.is_complete()
        assert r.check_monotone() != []

    def test_monotone_ok(self):
        assert complete_record(0).check_monotone() == []

    def test_monotone_violation_detected(self):
        r = complete_record(0)
        r.exec_end = r.exec_start - 1
        problems = r.check_monotone()
        assert any("exec_end" in p for p in problems)

    def test_missing_stage_detected(self):
        r = complete_record(0)
        r.ready = -1
        assert any("never happened" in p for p in r.check_monotone())


class TestScoreboard:
    def test_completion_counting(self):
        sb = Scoreboard(3)
        assert not sb.note_completed(0, 100)
        assert not sb.note_completed(2, 300)
        assert sb.note_completed(1, 200)
        assert sb.all_done
        assert sb.last_completion == 300


class TestRunResult:
    def make(self, records, workers=2, makespan=1000):
        return RunResult(
            trace_name="t",
            makespan=makespan,
            master_done=makespan,
            records=records,
            config=SystemConfig(workers=workers),
        )

    def test_speedup(self):
        base = self.make([complete_record(0)], makespan=1000)
        fast = self.make([complete_record(0)], makespan=250)
        assert fast.speedup_over(base) == 4.0

    def test_zero_makespan_rejected(self):
        r = self.make([complete_record(0)], makespan=0)
        with pytest.raises(ValueError):
            r.speedup_over(r)

    def test_verify_catches_incomplete_task(self):
        from repro.runtime.task_graph import build_task_graph
        from repro.traces import AccessMode, Param, TaskTrace, TraceTask

        trace = TaskTrace(
            "x", [TraceTask(0, 1, (Param(1, 4, AccessMode.IN),), 10)]
        )
        graph = build_task_graph(trace)
        result = self.make([TaskRecord(0)])
        assert any("never completed" in p for p in result.verify_against(graph))

    def test_verify_catches_count_mismatch(self):
        from repro.runtime.task_graph import build_task_graph
        from repro.traces import AccessMode, Param, TaskTrace, TraceTask

        trace = TaskTrace(
            "x",
            [
                TraceTask(0, 1, (Param(1, 4, AccessMode.IN),), 10),
                TraceTask(1, 1, (Param(2, 4, AccessMode.IN),), 10),
            ],
        )
        graph = build_task_graph(trace)
        result = self.make([complete_record(0)])
        assert result.verify_against(graph) != []
