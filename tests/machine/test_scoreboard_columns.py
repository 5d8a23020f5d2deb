"""The columnar scoreboard: row views, column writes, retained memory and
the run-result readers that work on the columns."""

import gc
import tracemalloc

import pytest

from repro import NexusMachine, SystemConfig
from repro.hw.dispatch import hop_latency_stats
from repro.hw.errors import ProtocolError
from repro.machine.results import RunResult
from repro.runtime.task_graph import build_task_graph
from repro.scoreboard import FIELDS, STAGES, Scoreboard, TaskRecord
from repro.traces import (
    AccessMode,
    Param,
    TaskTrace,
    TraceTask,
    gaussian_trace,
    independent_trace,
)


class TestRowViews:
    def test_view_writes_land_in_the_columns(self):
        sb = Scoreboard(4)
        sb.records[2].ready = 7
        sb.records[2].core = 3
        assert sb.ready[2] == 7 and sb.core[2] == 3
        assert sb.ready.tolist() == [-1, -1, 7, -1]

    def test_column_writes_show_through_the_views(self):
        sb = Scoreboard(3)
        sb.stored[1] = 5
        sb.released_by[1] = 0
        record = sb.records[1]
        assert (record.tid, record.stored, record.released_by) == (1, 5, 0)

    def test_every_field_round_trips(self):
        sb = Scoreboard(2)
        record = sb.records[1]
        for value, name in enumerate(FIELDS):
            setattr(record, name, 100 + value)
        assert [getattr(sb, n)[1] for n in FIELDS] == list(
            range(100, 100 + len(FIELDS))
        )
        assert [getattr(sb, n)[0] for n in FIELDS] == [-1] * len(FIELDS)

    def test_sequence_protocol(self):
        sb = Scoreboard(5)
        records = sb.records
        assert len(records) == 5
        assert [r.tid for r in records] == [0, 1, 2, 3, 4]
        assert records[-1].tid == 4 and records[-5].tid == 0
        assert [r.tid for r in records[1:4]] == [1, 2, 3]
        assert [r.tid for r in records[::-2]] == [4, 2, 0]
        assert records[5:] == []
        with pytest.raises(IndexError):
            records[5]
        with pytest.raises(IndexError):
            records[-6]

    def test_slice_views_write_through(self):
        sb = Scoreboard(4)
        for record in sb.records[2:]:
            record.completed = 9
        assert sb.completed.tolist() == [-1, -1, 9, 9]

    def test_completion_shows_in_views(self):
        sb = Scoreboard(2)
        sb.note_completed(1, 50)
        assert sb.records[1].is_complete()
        assert not sb.records[0].is_complete()


class TestStandaloneRecord:
    def test_fresh_record_is_unset(self):
        r = TaskRecord(7)
        assert r.tid == 7
        assert all(getattr(r, n) == -1 for n in FIELDS)
        assert not r.is_complete()

    def test_records_do_not_share_storage(self):
        a, b = TaskRecord(0), TaskRecord(0)
        a.exec_start = 10
        assert b.exec_start == -1
        assert a != b
        b.exec_start = 10
        assert a == b

    def test_view_equals_standalone_with_same_stamps(self):
        sb = Scoreboard(2)
        sb.records[1].ready = 4
        r = TaskRecord(1)
        r.ready = 4
        assert sb.records[1] == r
        assert "ready=4" in repr(r)

    def test_copied_into_a_board(self):
        records = [TaskRecord(0), TaskRecord(1)]
        records[1].dispatched = 12
        sb = Scoreboard.of(records)
        assert sb.dispatched.tolist() == [-1, 12]
        assert Scoreboard.of(sb) is sb
        assert Scoreboard.of(sb.records) is sb

    def test_rows_must_be_in_task_order(self):
        with pytest.raises(ValueError, match="record 0 is task 1"):
            Scoreboard.of([TaskRecord(1)])


def test_finished_run_retains_under_100_bytes_per_task():
    """88 B of int64 columns per task, not a heap object per task."""
    trace = independent_trace(2000)
    tracemalloc.start()
    try:
        result = NexusMachine(SystemConfig(workers=4)).run(trace)
        records = result.records
        del result
        gc.collect()
        with_records = tracemalloc.get_traced_memory()[0]
        del records
        gc.collect()
        retained = with_records - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 8 * len(FIELDS) * len(trace) <= retained <= 100 * len(trace)


class TestTruncatedRun:
    @pytest.fixture(scope="class")
    def cut(self):
        machine = NexusMachine(SystemConfig(workers=4))
        trace = gaussian_trace(20)
        full = machine.run(trace)
        return machine.run(trace, max_time=full.makespan // 3)

    def test_some_tasks_are_mid_execution(self, cut):
        sb = cut.scoreboard
        assert any(
            s >= 0 and e < 0 for s, e in zip(sb.exec_start, sb.exec_end)
        )

    def test_utilization_counts_closed_intervals_only(self, cut):
        assert 0.0 <= cut.worker_utilization() <= 1.0
        assert 0.0 <= cut.parallel_efficiency() <= 1.0


def _hand_result(records):
    return RunResult("t", 100, 100, records, config=SystemConfig(workers=1))


def _stamped(tid, stamps):
    r = TaskRecord(tid)
    for name, t in zip(STAGES, stamps):
        setattr(r, name, t)
    return r


class TestVerifyStrings:
    """The ledger's failure count parses ``task N`` out of these strings."""

    @pytest.fixture(scope="class")
    def graph(self):
        params = (Param(1, 4, AccessMode.INOUT),)
        trace = TaskTrace("x", [TraceTask(t, 1, params, 10) for t in range(3)])
        return build_task_graph(trace)

    def test_corrupted_records_are_pinned(self, graph):
        result = _hand_result(
            [
                _stamped(0, [1, 2, 3, 4, 5, 6, 7, 8, 9]),
                _stamped(1, [1, 2, -1, 4, 5, 6, 3, 8, 9]),
                _stamped(2, [1, 2, 3, 4, 5, 6, 7, 8, -1]),
            ]
        )
        assert result.verify_against(graph) == [
            "task 1: stage ready never happened",
            "task 1: exec_end@3 precedes exec_start@6",
            "task 2 never completed",
            "task 2: stage completed never happened",
        ]

    def test_schedule_violation_is_pinned(self, graph):
        result = _hand_result(
            [
                _stamped(0, [1, 2, 3, 4, 5, 6, 7, 20, 21]),
                _stamped(1, [1, 2, 3, 4, 10, 11, 12, 30, 31]),
                _stamped(2, [1, 2, 3, 4, 40, 41, 42, 43, 44]),
            ]
        )
        assert result.verify_against(graph) == [
            "RAW violation: task 1 started at 10 before task 0 finished at 20"
        ]

    def test_matches_the_per_record_check(self, graph):
        rows = [
            _stamped(0, [-1, 2, 3, 4, 5, 6, 7, 8, -1]),
            _stamped(1, [9, 8, 7, 6, 5, 4, 3, 2, 1]),
            _stamped(2, [1, 1, 1, -1, 1, 1, 1, 1, 1]),
        ]
        expected = []
        for r in rows:
            if not r.is_complete():
                expected.append(f"task {r.tid} never completed")
            expected.extend(r.check_monotone())
        assert _hand_result(rows).verify_against(graph) == expected

    def test_count_mismatch(self, graph):
        result = _hand_result([_stamped(0, range(1, 10))])
        assert result.verify_against(graph) == ["1 records for 3 tasks"]


class TestHopLatencyColumns:
    def test_board_and_record_list_agree(self):
        result = NexusMachine(SystemConfig(workers=4)).run(gaussian_trace(12))
        from_board = hop_latency_stats(result.scoreboard, result.makespan)
        from_list = hop_latency_stats(list(result.records), result.makespan)
        assert from_board == from_list
        assert from_board == result.stats["dispatch"]
        assert from_board["released_tasks"] > 0

    @pytest.mark.parametrize("links", [[1, 0, -1], [0], [-1, 2, 3, 1]])
    def test_cycle_is_a_protocol_error(self, links):
        sb = Scoreboard(len(links))
        for tid, pred in enumerate(links):
            sb.released_by[tid] = pred
        with pytest.raises(ProtocolError, match="cycle"):
            hop_latency_stats(sb, 100)
