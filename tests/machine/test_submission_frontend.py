"""Behavioural tests for the submission front-end: backpressure, batching
timing model, truncated-run reporting, and the master-scaling grid."""

import pytest

from repro.config import BUS_MODEL_FITTED, SystemConfig
from repro.machine import NexusMachine, grid_sweep, run_trace
from repro.machine.bottleneck import analyze_bottleneck
from repro.runtime.task_graph import build_task_graph
from repro.traces import TimeModel, independent_trace

FAST_TIMES = TimeModel(mean_exec=2_000_000, mean_memory=500_000, cv=0.0)


class TestBatchSubmissionTime:
    def test_batch_of_one_is_the_paper_submission_time(self):
        for model in ("formula", BUS_MODEL_FITTED):
            cfg = SystemConfig(bus_model=model)
            for n in (0, 1, 4, 8):
                assert cfg.batch_submission_time([n]) == cfg.submission_time(n)

    def test_batching_amortizes_exactly_the_handshake(self):
        cfg = SystemConfig()
        counts = [4, 2, 7, 1]
        separate = sum(cfg.submission_time(n) for n in counts)
        batched = cfg.batch_submission_time(counts)
        saved = (len(counts) - 1) * cfg.bus_handshake_cycles * cfg.nexus_cycle
        assert separate - batched == saved

    def test_fitted_model_decomposes_consistently(self):
        cfg = SystemConfig(bus_model=BUS_MODEL_FITTED)
        # 6 + nP cycles per descriptor = 5-cycle handshake + (1 + nP) words.
        assert cfg.submission_time(4) == 10 * cfg.nexus_cycle
        assert cfg.batch_submission_time([4, 4]) == 15 * cfg.nexus_cycle

    def test_empty_batch_costs_nothing(self):
        assert SystemConfig().batch_submission_time([]) == 0


class TestFrontendConfig:
    def test_knob_validation(self):
        with pytest.raises(ValueError):
            SystemConfig(master_cores=0)
        with pytest.raises(ValueError):
            SystemConfig(submission_batch=0)

    def test_master_buffer_entries_split_ceiling(self):
        assert SystemConfig(master_cores=1).master_buffer_entries == 1024
        assert SystemConfig(master_cores=4).master_buffer_entries == 256
        assert SystemConfig(master_cores=3).master_buffer_entries == 342

    def test_table_iv_lists_frontend_geometry_only_when_extended(self):
        rows = dict(SystemConfig().table_iv())
        assert "Master cores" not in rows  # paper table stays paper-shaped
        rows = dict(SystemConfig(master_cores=2).table_iv())
        assert rows["Master cores"] == "2"
        rows = dict(SystemConfig(submission_batch=4).table_iv())
        assert rows["Submission batch"] == "4 TDs/transaction"
        # Front-end and shard geometry coexist in the extended table.
        rows = dict(SystemConfig(master_cores=2, maestro_shards=4).table_iv())
        assert rows["Master cores"] == "2"
        assert rows["Maestro shards"] == "4"


class TestMasterBackpressure:
    """Satellite: a tiny TDs buffer must stall the master(s), be counted,
    and still drain — on both Maestro engines."""

    ENGINES = {
        "single": dict(),
        "sharded": dict(maestro_shards=2),
    }

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize("masters,batch", [(1, 1), (2, 4)])
    def test_tiny_tds_buffer_stalls_and_drains(self, engine, masters, batch):
        trace = independent_trace(n_tasks=60, n_params=2, time_model=FAST_TIMES)
        cfg = SystemConfig(
            workers=1,
            tds_sizes_list_entries=2,
            task_pool_entries=4,
            memory_contention=False,
            master_cores=masters,
            submission_batch=batch,
            **self.ENGINES[engine],
        )
        result = run_trace(trace, cfg)
        assert result.stats["master_stall_ps"] > 0
        assert result.stats["tasks_submitted"] == len(trace)
        graph = build_task_graph(trace)
        assert result.verify_against(graph) == []

    def test_bottleneck_master_occupancy_normalized_across_masters(self):
        """Regression: the aggregate stall (summed over N masters) was
        subtracted from single wall-clock active time, clamping the
        master occupancy of stalled multi-master runs to 0."""
        trace = independent_trace(n_tasks=60, n_params=2, time_model=FAST_TIMES)
        cfg = SystemConfig(
            workers=1,
            tds_sizes_list_entries=2,
            task_pool_entries=4,
            memory_contention=False,
            master_cores=2,
        )
        result = run_trace(trace, cfg)
        assert result.stats["master_stall_ps"] > result.master_done
        report = analyze_bottleneck(result)
        assert 0.0 < report.occupancy["master"] <= 1.0

    def test_per_master_stall_reported(self):
        trace = independent_trace(n_tasks=60, n_params=2, time_model=FAST_TIMES)
        cfg = SystemConfig(
            workers=1,
            tds_sizes_list_entries=2,
            task_pool_entries=4,
            memory_contention=False,
            master_cores=2,
        )
        result = run_trace(trace, cfg)
        per_master = result.stats["per_master_stall_ps"]
        assert len(per_master) == 2
        assert sum(per_master) == result.stats["master_stall_ps"]
        assert all(s > 0 for s in per_master)


class TestWriteTpBatchAccounting:
    def test_new_tasks_backpressure_not_counted_as_write_tp_busy(self):
        """Regression: in the batched drain, stalls on a full New Tasks
        list between batch items were counted as Write TP busy time,
        inflating a backpressured list into a hot block."""
        trace = independent_trace(n_tasks=80, n_params=2, time_model=FAST_TIMES)
        cfg = SystemConfig(
            workers=1, new_tasks_list_entries=1, memory_contention=False
        )
        u1 = run_trace(trace, cfg).stats["maestro_utilization"]["write_tp"]
        u8 = run_trace(trace, cfg.with_(submission_batch=8)).stats[
            "maestro_utilization"
        ]["write_tp"]
        # Batching does strictly less Write TP work (one read cycle per
        # batch instead of per descriptor), so its busy fraction cannot
        # exceed the unbatched run's.
        assert u8 <= u1 * 1.05


class TestTruncatedRunReporting:
    """Satellite regression: a max_time-truncated run must be
    distinguishable from a complete one."""

    def test_truncated_run_reports_none_and_partial_submission(self):
        trace = independent_trace(n_tasks=50, n_params=2, time_model=FAST_TIMES)
        # A handful of nexus cycles: far too short to submit 50 TDs.
        result = NexusMachine(
            SystemConfig(workers=2, memory_contention=False)
        ).run(trace, max_time=2_000_000)
        assert result.master_done is None
        assert 0 < result.stats["tasks_submitted"] < len(trace)

    def test_complete_run_reports_real_master_done(self):
        trace = independent_trace(n_tasks=20, n_params=2, time_model=FAST_TIMES)
        result = run_trace(trace, SystemConfig(workers=2, memory_contention=False))
        assert result.master_done is not None
        assert result.master_done <= result.makespan
        assert result.stats["tasks_submitted"] == len(trace)

    def test_bottleneck_analysis_handles_truncated_run(self):
        trace = independent_trace(n_tasks=50, n_params=2, time_model=FAST_TIMES)
        cfg = SystemConfig(workers=2, memory_contention=False)
        result = NexusMachine(cfg).run(trace, max_time=2_000_000)
        report = analyze_bottleneck(result)  # must not raise on None
        assert 0.0 <= report.occupancy["master"] <= 1.0


class TestMasterScalingSweep:
    def test_sweep_shape_and_baseline(self):
        trace = independent_trace(n_tasks=40, n_params=2, time_model=FAST_TIMES)
        cfg = SystemConfig(workers=2, memory_contention=False)
        report = grid_sweep(
            trace, cfg, {"master_cores": [1, 2], "submission_batch": [1, 4]}
        )
        assert [(p["master_cores"], p["submission_batch"]) for p in report.points] == [
            (1, 1), (1, 4), (2, 1), (2, 4)
        ]
        assert report.speedups[0] == pytest.approx(1.0)
        rows = report.rows()
        assert {r["master_cores"] for r in rows} == {1, 2}
        assert (
            report.at(master_cores=2, submission_batch=4).makespan
            == rows[-1]["makespan_ps"]
        )
        assert rows[0]["master_bound_fraction"] is not None
        payload = report.to_json_dict()
        assert payload["baseline"] == {"master_cores": 1, "submission_batch": 1}
        assert len(payload["rows"]) == 4

    def test_empty_sweep_rejected(self):
        trace = independent_trace(n_tasks=5, n_params=2)
        with pytest.raises(ValueError):
            grid_sweep(trace, SystemConfig(), {})
        with pytest.raises(ValueError):
            grid_sweep(trace, SystemConfig(), {"master_cores": [1], "submission_batch": []})
