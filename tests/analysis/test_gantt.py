"""Tests for the Gantt renderer and stage-latency table."""

import pytest

from repro.analysis import gantt_chart, stage_latency_table
from repro.config import SystemConfig
from repro.machine import run_trace
from repro.traces import TimeModel, independent_trace

TIMES = TimeModel(mean_exec=3_000_000, mean_memory=2_000_000, cv=0.0)


@pytest.fixture(scope="module")
def result():
    trace = independent_trace(n_tasks=24, n_params=2, time_model=TIMES)
    return run_trace(trace, SystemConfig(workers=4, memory_contention=False))


class TestGantt:
    def test_one_row_per_core(self, result):
        chart = gantt_chart(result, width=60)
        rows = [l for l in chart.splitlines() if l.startswith("c")]
        assert len(rows) == 4
        assert all(len(r) == len(rows[0]) for r in rows)

    def test_execution_marks_present(self, result):
        chart = gantt_chart(result, width=60)
        assert chart.count("#") > 4 * 10  # cores are mostly busy
        assert "-" in chart  # memory phases visible

    def test_max_cores_crops(self, result):
        chart = gantt_chart(result, width=40, max_cores=2)
        rows = [l for l in chart.splitlines() if l.startswith("c")]
        assert len(rows) == 2
        assert "2 more cores not shown" in chart

    def test_until_crops_time(self, result):
        early = gantt_chart(result, width=40, until=result.makespan // 4)
        assert "us" in early

    def test_width_validated(self, result):
        with pytest.raises(ValueError):
            gantt_chart(result, width=5)


class TestStageLatency:
    def test_rows_cover_lifecycle(self, result):
        rows = stage_latency_table(result)
        names = [r[0] for r in rows]
        assert names[0] == "submit -> stored"
        assert "execute" in names
        assert names[-1] == "retire"

    def test_execute_latency_matches_trace(self, result):
        rows = {r[0]: r[1] for r in stage_latency_table(result)}
        assert rows["execute"] == pytest.approx(3000.0, rel=0.01)  # ns

    def test_incomplete_run_rejected(self):
        from repro.machine.results import RunResult
        from repro.scoreboard import TaskRecord

        empty = RunResult("x", 100, 100, [TaskRecord(0)])
        with pytest.raises(ValueError):
            stage_latency_table(empty)
