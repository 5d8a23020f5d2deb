"""Tests for the software-RTS baseline (the bottleneck Nexus++ removes)."""

import pytest

from repro.config import SystemConfig
from repro.machine import run_trace
from repro.runtime import SoftwareRTSConfig, build_task_graph, run_software_rts
from repro.sim import US
from repro.traces import h264_wavefront_trace, independent_trace


def cfg(workers):
    return SystemConfig(workers=workers, memory_batch_chunks=16)


class TestCorrectness:
    def test_all_tasks_complete(self):
        trace = independent_trace(n_tasks=40, n_params=2)
        result = run_software_rts(trace, cfg(4))
        assert all(r.is_complete() for r in result.records)

    def test_dependencies_respected(self):
        trace = h264_wavefront_trace(rows=5, cols=5)
        result = run_software_rts(trace, cfg(3))
        graph = build_task_graph(trace)
        starts = [r.fetch_start for r in result.records]
        ends = [r.writeback_end for r in result.records]
        assert graph.check_schedule(starts, ends) == []

    def test_costs_validated(self):
        with pytest.raises(ValueError):
            SoftwareRTSConfig(submit_cost=-1)

    def test_run_carries_its_config(self):
        config = cfg(4)
        result = run_software_rts(independent_trace(n_tasks=20), config)
        assert result.config is config
        assert run_software_rts(independent_trace(n_tasks=20)).config == (
            SystemConfig()
        )


class TestMeasurement:
    """The software runtime is measured like the machine: kernel counts in
    ``stats["sim"]``, the host's wall time in ``host``."""

    def test_events_by_block_sum_to_events_processed(self):
        result = run_software_rts(h264_wavefront_trace(rows=5, cols=5), cfg(3))
        sim = result.stats["sim"]
        assert sim["events_processed"] > 0
        assert sim["peak_pending_events"] > 0
        assert sum(sim["events_by_block"].values()) == sim["events_processed"]
        assert result.host["wall_seconds"] > 0

    def test_two_runs_of_one_trace_give_equal_stats(self):
        trace = h264_wavefront_trace(rows=5, cols=5)
        first, second = (run_software_rts(trace, cfg(3)) for _ in range(2))
        assert set(first.stats) == {"memory", "sim"}
        assert first.stats == second.stats


class TestBottleneckBehaviour:
    def test_master_serializes_submission(self):
        # 10 tasks x (30ns prep + 2us submit + 2 params x 0.2us) > 24 us
        # even with unlimited workers.
        trace = independent_trace(n_tasks=10, n_params=2)
        result = run_software_rts(trace, cfg(64))
        assert result.master_done >= 10 * int(2.4 * US)

    def test_scalability_caps_below_hardware(self):
        """The paper's motivation: software RTS flattens early."""
        trace = independent_trace(n_tasks=400, n_params=2)
        base_sw = run_software_rts(trace, cfg(1))
        sw16 = run_software_rts(trace, cfg(16))
        sw_speedup = sw16.speedup_over(base_sw)

        base_hw = run_trace(trace, cfg(1))
        hw16 = run_trace(trace, cfg(16))
        hw_speedup = hw16.speedup_over(base_hw)

        # Task time ~19us; sw RTS per-task ~3.9us -> caps near 5x at 16 cores.
        assert sw_speedup < 8
        assert hw_speedup > 12
        assert hw_speedup > sw_speedup * 1.5

    def test_faster_rts_scales_better(self):
        trace = independent_trace(n_tasks=300, n_params=2)
        slow = SoftwareRTSConfig(submit_cost=4 * US, finish_cost=2 * US)
        fast = SoftwareRTSConfig(submit_cost=200_000, finish_cost=100_000)
        base_slow = run_software_rts(trace, cfg(1), slow)
        base_fast = run_software_rts(trace, cfg(1), fast)
        s16 = run_software_rts(trace, cfg(16), slow).speedup_over(base_slow)
        f16 = run_software_rts(trace, cfg(16), fast).speedup_over(base_fast)
        assert f16 > s16
