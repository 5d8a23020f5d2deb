"""Tests for the one sweep mechanism: ``grid_sweep`` and ``GridReport``."""

import pytest

from repro.config import SystemConfig
from repro.machine import COLUMNS, NexusMachine, grid_sweep
from repro.traces import TimeModel, independent_trace, random_trace

FAST_TIMES = TimeModel(mean_exec=2_000_000, mean_memory=500_000, cv=0.0)


@pytest.fixture(scope="module")
def trace():
    return random_trace(
        60, n_addresses=16, max_params=4, seed=3, mean_exec=4000, mean_memory=0
    )


@pytest.fixture
def no_runs(monkeypatch):
    """Fail the test if any simulation starts."""

    def run(self, *args, **kwargs):
        raise AssertionError("grid_sweep ran a simulation before validating")

    monkeypatch.setattr(NexusMachine, "run", run)


BASE = SystemConfig(workers=4, memory_contention=False)


class TestGrid:
    def test_product_order_first_axis_outermost(self, trace):
        report = grid_sweep(
            trace,
            BASE.with_(maestro_shards=2),
            {"kickoff_fast_path": [False, True], "td_cache_entries": [0, 8]},
        )
        assert report.points == [
            {"kickoff_fast_path": False, "td_cache_entries": 0},
            {"kickoff_fast_path": False, "td_cache_entries": 8},
            {"kickoff_fast_path": True, "td_cache_entries": 0},
            {"kickoff_fast_path": True, "td_cache_entries": 8},
        ]
        assert [
            (c.kickoff_fast_path, c.td_cache_entries) for c in report.configs
        ] == [(False, 0), (False, 8), (True, 0), (True, 8)]
        assert report.axes == {
            "kickoff_fast_path": [False, True], "td_cache_entries": [0, 8]
        }

    def test_baseline_is_the_first_point(self, trace):
        report = grid_sweep(trace, BASE, {"maestro_shards": [2, 1]})
        first = report.runs[0].makespan
        assert report.speedups[0] == 1.0
        assert report.speedups[1] == first / report.runs[1].makespan
        rows = report.rows()
        assert rows[0]["speedup_vs_baseline"] == 1.0
        assert report.to_json_dict()["baseline"] == {"maestro_shards": 2}

    def test_runs_match_a_direct_run(self, trace):
        report = grid_sweep(trace, BASE, {"workers": [2, 4]})
        direct = NexusMachine(BASE.with_(workers=2)).run(trace)
        assert report.runs[0].makespan == direct.makespan

    def test_at_selects_by_knob_values(self, trace):
        report = grid_sweep(
            trace,
            BASE.with_(maestro_shards=2),
            {"master_cores": [1, 2], "submission_batch": [1, 4]},
        )
        assert report.at(master_cores=2, submission_batch=1) is report.runs[2]
        assert report.at(submission_batch=4, master_cores=1) is report.runs[1]
        with pytest.raises(ValueError):
            report.at(master_cores=3, submission_batch=1)

    def test_rows_carry_knobs_makespan_speedup_and_every_column(self, trace):
        report = grid_sweep(trace, BASE, {"maestro_shards": [1, 2]})
        for row, run in zip(report.rows(), report.runs):
            assert list(row)[:3] == [
                "maestro_shards", "makespan_ps", "speedup_vs_baseline"
            ]
            assert set(COLUMNS) <= set(row)
            assert row["makespan_ps"] == run.makespan
        # The single Maestro has no interconnect; the sharded one does.
        rows = report.rows()
        assert rows[0]["interconnect_messages"] == 0
        assert rows[1]["interconnect_messages"] > 0

    def test_json_lists_fixed_knobs_and_optional_profiles(self, trace):
        report = grid_sweep(trace, BASE, {"maestro_shards": [1, 2]})
        payload = report.to_json_dict()
        assert payload["fixed"] == {"workers": 4, "memory_contention": False}
        assert all("sim" not in r for r in payload["rows"])
        profiled = report.to_json_dict(profile=True)
        assert all(r["sim"]["events_processed"] > 0 for r in profiled["rows"])


class TestValidation:
    def test_invalid_point_raises_before_any_run(self, trace, no_runs):
        # The second point asks for a retire pipeline on the single
        # Maestro: SystemConfig's own error, before the first point runs.
        with pytest.raises(ValueError, match="retire_pipeline_depth > 1 requires"):
            grid_sweep(trace, BASE, {"retire_pipeline_depth": [1, 2]})

    def test_unknown_knob_is_named(self, trace, no_runs):
        with pytest.raises(ValueError, match="'shards'"):
            grid_sweep(trace, BASE, {"shards": [1, 2]})

    def test_empty_axes_rejected(self, trace, no_runs):
        with pytest.raises(ValueError):
            grid_sweep(trace, BASE, {})
        with pytest.raises(ValueError, match="'workers'"):
            grid_sweep(trace, BASE, {"workers": []})

    def test_dependence_table_total_ignored_under_per_shard_override(
        self, trace, no_runs
    ):
        cfg = BASE.with_(maestro_shards=2, dependence_table_entries_per_shard=64)
        with pytest.raises(ValueError, match="dependence_table_entries_per_shard"):
            grid_sweep(trace, cfg, {"dependence_table_entries": [1024, 2048]})

    def test_dependence_table_guard_checks_each_point(self, trace, no_runs):
        # Only the sharded point ignores the total; that is enough to refuse.
        cfg = BASE.with_(dependence_table_entries_per_shard=64)
        with pytest.raises(ValueError, match="has no effect"):
            grid_sweep(
                trace,
                cfg,
                {"maestro_shards": [1, 2], "dependence_table_entries": [1024]},
            )

    def test_task_pool_above_the_free_list_raises_the_config_error(self, no_runs):
        trace = independent_trace(n_tasks=10, n_params=2, time_model=FAST_TIMES)
        with pytest.raises(ValueError, match="TP Free Indices list"):
            grid_sweep(trace, BASE, {"task_pool_entries": [512, 2048]})
