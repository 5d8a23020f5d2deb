"""Behavioural machine tests: windows, stalls, buffering, sweeps.

These pin down the *mechanisms* behind the paper's figures rather than
end-to-end numbers: the Task-Pool window capping pattern (b), double
buffering overlapping fetch with execution, master backpressure, and the
Dependence-Table stall path.
"""

import pytest

from repro.config import SystemConfig
from repro.hw.errors import CapacityError
from repro.hw.fabric import Fabric
from repro.machine import grid_sweep, run_trace, saturation_point
from repro.runtime.task_graph import build_task_graph
from repro.sim import Simulator
from repro.traces import (
    AccessMode,
    Param,
    TaskTrace,
    TimeModel,
    TraceTask,
    gaussian_trace,
    h264_wavefront_trace,
    horizontal_chains_trace,
    independent_trace,
    random_trace,
)

FAST_TIMES = TimeModel(mean_exec=2_000_000, mean_memory=500_000, cv=0.0)


class TestTaskPoolWindow:
    """Fig. 4(b): parallelism = Task-Pool-resident rows."""

    def test_small_pool_caps_horizontal_chains(self):
        # 20 chains of 40 tasks; a 40-entry pool holds one chain: ~1x.
        trace = horizontal_chains_trace(rows=20, cols=40, time_model=FAST_TIMES)
        small = SystemConfig(
            workers=16,
            task_pool_entries=40,
            memory_contention=False,
        )
        large = small.with_(task_pool_entries=1024)
        r_small = run_trace(trace, small)
        r_large = run_trace(trace, large)
        # The large pool exposes many chains at once; the small one cannot.
        assert r_large.makespan < r_small.makespan / 3

    def test_window_does_not_affect_independent_tasks_much(self):
        trace = independent_trace(n_tasks=400, n_params=2, time_model=FAST_TIMES)
        small = SystemConfig(
            workers=8,
            task_pool_entries=64,
            memory_contention=False,
        )
        large = small.with_(task_pool_entries=1024)
        r_small = run_trace(trace, small)
        r_large = run_trace(trace, large)
        # 64 >> 2x8 in-flight need: window is not the bottleneck.
        assert r_small.makespan < r_large.makespan * 1.1


class TestDoubleBuffering:
    def test_depth2_hides_memory_time_single_core(self):
        # exec 2us, memory 2us: depth 1 -> ~4us/task; depth 2 -> ~2us/task.
        times = TimeModel(mean_exec=2_000_000, mean_memory=2_000_000, cv=0.0)
        trace = independent_trace(n_tasks=100, n_params=2, time_model=times)
        r1 = run_trace(
            trace, SystemConfig(workers=1, buffering_depth=1, memory_contention=False)
        )
        r2 = run_trace(
            trace, SystemConfig(workers=1, buffering_depth=2, memory_contention=False)
        )
        ratio = r1.makespan / r2.makespan
        assert 1.4 < ratio < 2.1

    def test_depth1_serializes_fetch_and_exec(self):
        times = TimeModel(mean_exec=2_000_000, mean_memory=2_000_000, cv=0.0)
        trace = independent_trace(n_tasks=50, n_params=2, time_model=times)
        r1 = run_trace(
            trace, SystemConfig(workers=1, buffering_depth=1, memory_contention=False)
        )
        # Lower bound: 50 x (1.5us read + 2us exec + 0.5us write).
        assert r1.makespan >= 50 * 4_000_000

    def test_deeper_buffers_never_hurt(self):
        trace = independent_trace(n_tasks=200, n_params=2, time_model=FAST_TIMES)
        makespans = []
        for depth in (1, 2, 4):
            cfg = SystemConfig(workers=4, buffering_depth=depth, memory_contention=False)
            makespans.append(run_trace(trace, cfg).makespan)
        assert makespans[1] <= makespans[0]
        assert makespans[2] <= makespans[1] * 1.02


class TestMasterBackpressure:
    def test_master_stalls_when_tds_buffer_full(self):
        # Tiny TDs buffer + slow single worker: the master must stall.
        trace = independent_trace(n_tasks=60, n_params=2, time_model=FAST_TIMES)
        cfg = SystemConfig(
            workers=1,
            tds_sizes_list_entries=2,
            task_pool_entries=4,
            memory_contention=False,
        )
        result = run_trace(trace, cfg)
        assert result.stats["master_stall_ps"] > 0
        # Despite backpressure, everything completes correctly.
        graph = build_task_graph(trace)
        assert result.verify_against(graph) == []

    def test_unconstrained_master_never_stalls(self):
        trace = independent_trace(n_tasks=60, n_params=2, time_model=FAST_TIMES)
        result = run_trace(trace, SystemConfig(workers=32, memory_contention=False))
        assert result.stats["master_stall_ps"] == 0


class TestDependenceTableStall:
    def test_tiny_dt_stalls_but_completes(self):
        trace = independent_trace(n_tasks=120, n_params=2, time_model=FAST_TIMES)
        cfg = SystemConfig(
            workers=4,
            dependence_table_entries=8,  # in-flight demand far exceeds this
            memory_contention=False,
        )
        result = run_trace(trace, cfg)
        graph = build_task_graph(trace)
        assert result.verify_against(graph) == []
        assert result.stats["dep_table"]["high_water"] <= 8

    def test_tiny_dt_costs_throughput(self):
        trace = independent_trace(n_tasks=200, n_params=2, time_model=FAST_TIMES)
        tiny = SystemConfig(workers=8, dependence_table_entries=8, memory_contention=False)
        normal = tiny.with_(dependence_table_entries=4096)
        assert (
            run_trace(trace, normal).makespan < run_trace(trace, tiny).makespan
        )


class TestDependenceTableFit:
    """A task holds one table entry per distinct address in each slice
    until its check completes, so a task with more addresses in one slice
    than the slice has entries would wait forever on slots it holds
    itself.  The fabric rejects it by name before the first event."""

    @staticmethod
    def _random():
        return random_trace(
            300, n_addresses=16, max_params=6, mean_exec=4000, mean_memory=0,
            seed=3,
        )

    @pytest.mark.parametrize(
        "trace_name, shards, entries",
        [("gaussian", 1, 16), ("gaussian", 4, 16), ("random", 1, 4),
         ("random", 4, 16)],
    )
    def test_task_wider_than_its_slice_is_rejected(self, trace_name, shards,
                                                   entries):
        trace = gaussian_trace(20) if trace_name == "gaussian" else self._random()
        cfg = SystemConfig(
            workers=4, maestro_shards=shards, dependence_table_entries=entries
        )
        with pytest.raises(
            CapacityError,
            match=r"task \d+ needs \d+ Dependence Table entries in slice \d+ "
            rf"but the slice only has {entries // shards}",
        ):
            Fabric(Simulator(), cfg, trace)

    @pytest.mark.parametrize(
        "trace_name, shards, entries",
        [("gaussian", 1, 20), ("gaussian", 4, 24), ("random", 1, 8),
         ("random", 4, 20)],
    )
    def test_task_that_fits_its_slice_retires(self, trace_name, shards,
                                              entries):
        trace = gaussian_trace(20) if trace_name == "gaussian" else self._random()
        cfg = SystemConfig(
            workers=4, maestro_shards=shards, dependence_table_entries=entries
        )
        result = run_trace(trace, cfg)
        assert result.verify_against(build_task_graph(trace)) == []

    @staticmethod
    def _listing(*widths):
        """One task per width: that many distinct addresses; a negative
        width ``-w`` lists ``w`` distinct addresses, then the first again."""
        tasks = []
        for tid, width in enumerate(widths):
            addrs = [0x1000 + 0x100 * (tid * 16 + k) for k in range(abs(width))]
            if width < 0:
                addrs.append(addrs[0])
            params = tuple(Param(a, 64, AccessMode.INOUT) for a in addrs)
            tasks.append(TraceTask(tid, 1, params, 1000))
        return TaskTrace("fit", tasks)

    @pytest.mark.parametrize(
        "widths, error, message",
        [((1, -1, 2), ValueError, "task 1 lists a base address twice"),
         ((1, 5, -1), CapacityError, "task 1 needs 5 Dependence Table"),
         ((1, -1, 5), ValueError, "task 1 lists a base address twice"),
         ((1, -5, 2), ValueError, "task 1 lists a base address twice")],
        ids=["twice", "over-wide-first", "twice-first", "over-wide-twice"],
    )
    def test_first_task_that_cannot_fit_names_the_error(self, widths, error,
                                                        message):
        cfg = SystemConfig(workers=4, dependence_table_entries=4)
        with pytest.raises(error, match=message):
            Fabric(Simulator(), cfg, self._listing(*widths))

    def test_per_shard_entries_size_the_single_engine_table(self):
        cfg = SystemConfig(dependence_table_entries_per_shard=64)
        trace = independent_trace(n_tasks=4, n_params=2)
        assert Fabric(Simulator(), cfg, trace).dep_shards[0].capacity == 64


class TestSweepHelpers:
    def test_workers_axis_speedups_monotone_for_independent(self):
        trace = independent_trace(n_tasks=300, n_params=2, time_model=FAST_TIMES)
        rep = grid_sweep(
            trace, SystemConfig(memory_contention=False), {"workers": [1, 2, 4]}
        )
        speedups = rep.speedups
        assert speedups[0] == 1.0
        assert speedups == sorted(speedups)
        assert speedups[-1] > 3.0

    def test_saturation_point(self):
        trace = horizontal_chains_trace(rows=4, cols=30, time_model=FAST_TIMES)
        cores = [1, 2, 4, 8, 16]
        rep = grid_sweep(
            trace, SystemConfig(memory_contention=False), {"workers": cores}
        )
        # Only 4 chains exist: saturation at or before 8 cores.
        assert saturation_point(cores, rep.speedups) <= 8

    def test_empty_workers_axis_rejected(self):
        trace = independent_trace(n_tasks=10, n_params=2)
        with pytest.raises(ValueError, match="has no values"):
            grid_sweep(trace, SystemConfig(), {"workers": []})

    def test_saturation_point_ignores_pre_peak_touch(self):
        """Regression: a non-monotone curve whose 1-core point already
        touches the tolerance band of the peak must not report saturation
        at 1 core — the curve dips below the band afterwards."""
        # Peak 4.0, 5% band is >= 3.8: cores 1 touches it but the curve
        # then dips to 2.0; the first count whose whole tail stays in the
        # band is 8.
        assert saturation_point([1, 2, 4, 8, 16], [3.9, 2.0, 3.0, 3.8, 4.0]) == 8

    def test_saturation_point_monotone_curve_unchanged(self):
        assert saturation_point([1, 2, 4, 8], [1.0, 1.9, 3.85, 4.0]) == 4

    def test_sweep_dt_entries_rejected_with_per_shard_override(self):
        """Regression: sweeping the total Dependence Table size on a
        sharded config with an explicit per-shard size would silently do
        nothing; it must raise instead."""
        trace = independent_trace(n_tasks=10, n_params=2, time_model=FAST_TIMES)
        cfg = SystemConfig(
            workers=2,
            maestro_shards=2,
            dependence_table_entries_per_shard=64,
            memory_contention=False,
        )
        with pytest.raises(ValueError, match="dependence_table_entries_per_shard"):
            grid_sweep(trace, cfg, {"dependence_table_entries": [1024, 2048]})

    def test_sweep_dt_entries_allowed_when_derived_per_shard(self):
        """Without the per-shard override the swept total drives the
        per-shard capacity, so the sweep is meaningful and allowed."""
        trace = independent_trace(n_tasks=30, n_params=2, time_model=FAST_TIMES)
        cfg = SystemConfig(workers=2, maestro_shards=2, memory_contention=False)
        report = grid_sweep(trace, cfg, {"dependence_table_entries": [64]})
        assert report.at(dependence_table_entries=64).makespan > 0

    def test_sweep_per_shard_dt_entries_directly(self):
        trace = independent_trace(n_tasks=30, n_params=2, time_model=FAST_TIMES)
        cfg = SystemConfig(
            workers=2,
            maestro_shards=2,
            dependence_table_entries_per_shard=64,
            memory_contention=False,
        )
        report = grid_sweep(
            trace, cfg, {"dependence_table_entries_per_shard": [32, 64]}
        )
        assert [c.dt_entries_per_shard for c in report.configs] == [32, 64]
        assert all(r.makespan > 0 for r in report.runs)

    def test_sweep_task_pool_sizes_its_lists(self):
        """A Task Pool axis runs from any base: the free-index and ready
        lists follow the pool's size."""
        trace = independent_trace(n_tasks=50, n_params=2, time_model=FAST_TIMES)
        cfg = SystemConfig(workers=2, memory_contention=False)
        report = grid_sweep(trace, cfg, {"task_pool_entries": [512, 2048]})
        assert report.at(task_pool_entries=2048).makespan > 0


class TestRecordsAndStats:
    def test_core_assignment_recorded(self):
        trace = independent_trace(n_tasks=30, n_params=2, time_model=FAST_TIMES)
        result = run_trace(trace, SystemConfig(workers=3, memory_contention=False))
        cores = {r.core for r in result.records}
        assert cores == {0, 1, 2}

    def test_utilization_bounded(self):
        trace = h264_wavefront_trace(rows=4, cols=8)
        result = run_trace(trace, SystemConfig(workers=4))
        assert 0.0 < result.worker_utilization() <= 1.0

    def test_throughput_reported(self):
        trace = independent_trace(n_tasks=20, n_params=2, time_model=FAST_TIMES)
        result = run_trace(trace, SystemConfig(workers=2))
        assert result.throughput_tasks_per_s() > 0

    def test_summary_string(self):
        trace = independent_trace(n_tasks=10, n_params=2, time_model=FAST_TIMES)
        result = run_trace(trace, SystemConfig(workers=2))
        s = result.summary()
        assert "10 tasks" in s and "2 workers" in s
