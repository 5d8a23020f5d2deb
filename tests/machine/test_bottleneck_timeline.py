"""Bottleneck timeline: per-window verdicts over a telemetry-sampled run.

The run-level :func:`analyze_bottleneck` collapses a run into one verdict;
the timeline applies the same saturation rules per telemetry window.  The
synthetic two-phase fixtures hand-craft ``stats["telemetry"]`` so each
phase's verdict is unambiguous — submission-bound front, retire-bound
back — and assert both appear in order.
"""

import pytest

from repro.config import SystemConfig
from repro.machine import BottleneckTimeline, bottleneck_timeline, run_trace
from repro.machine.results import RunResult
from repro.traces import wait_chain_trace

WINDOW = 1_000_000


def _result(telemetry, master_done=8 * WINDOW, stats=None):
    merged = dict(stats or {})
    if telemetry is not None:
        merged["telemetry"] = telemetry
    return RunResult(
        trace_name="synthetic",
        makespan=8 * WINDOW,
        master_done=master_done,
        records=[],
        stats=merged,
        config=SystemConfig(workers=4),
    )


def _two_phase_telemetry():
    """Four master-saturated windows, then four retire-backpressured ones."""
    n = 8
    master = [0.97] * 4 + [0.30] * 4
    retire_full = [0.0] * 4 + [0.80] * 4
    retire_busy = [0.05] * 4 + [0.60] * 4
    return {
        "window_ps": WINDOW,
        "times_ps": [(i + 1) * WINDOW for i in range(n)],
        "signals": {
            "master.busy": master,
            "workers.busy": [0.5] * n,
            "s0.retire.busy": retire_busy,
            "s0.check.busy": [0.1] * n,
            "retire.full_fraction": retire_full,
        },
    }


class TestSyntheticTwoPhase:
    def test_reports_both_verdicts_in_order(self):
        timeline = bottleneck_timeline(_result(_two_phase_telemetry()))
        assert isinstance(timeline, BottleneckTimeline)
        assert timeline.verdicts() == ["master", "retire"]
        assert timeline.phases == [
            (0, 4 * WINDOW, "master"),
            (4 * WINDOW, 8 * WINDOW, "retire"),
        ]

    def test_strip_names_phases_with_transition_timestamps(self):
        timeline = bottleneck_timeline(_result(_two_phase_telemetry()))
        strip = timeline.strip()
        assert strip.startswith("master")
        assert "retire (at 0.004 ms)" in strip
        assert "→" in strip

    def test_saturated_maestro_block_wins_over_saturated_workers(self):
        tel = _two_phase_telemetry()
        tel["signals"]["workers.busy"] = [0.99] * 8
        tel["signals"]["s0.check.busy"] = [0.95] * 8
        tel["signals"]["master.busy"] = [0.2] * 8
        tel["signals"]["retire.full_fraction"] = [0.0] * 8
        timeline = bottleneck_timeline(_result(tel))
        assert timeline.verdicts() == ["maestro.s0.check"]

    def test_retire_needs_busiest_block_to_be_retire(self):
        """Pipeline-full alone is not a retire verdict — at depth 1 "full"
        just means one finish in service; the run-level rule applies."""
        tel = _two_phase_telemetry()
        tel["signals"]["s0.retire.busy"] = [0.05] * 8   # check is busiest
        tel["signals"]["master.busy"] = [0.3] * 8
        timeline = bottleneck_timeline(_result(tel))
        assert "retire" not in timeline.verdicts()

    def test_unsaturated_windows_inherit_the_run_level_fallback(self):
        tel = _two_phase_telemetry()
        for name in tel["signals"]:
            tel["signals"][name] = [0.1] * 8
        dispatch = {
            "chain_fraction": 0.8,
            "chain_depth": 12,
            "chain_hop_ns": {"total": 400.0},
        }
        timeline = bottleneck_timeline(_result(tel, stats={"dispatch": dispatch}))
        assert timeline.verdicts() == ["latency"]
        # Without dispatch attribution the fallback is "application".
        timeline = bottleneck_timeline(_result(tel))
        assert timeline.verdicts() == ["application"]

    def test_truncated_run_still_yields_a_timeline(self):
        """A max_time-truncated run (master_done None, no chain recorded)
        must fall back to the by-elimination application verdict, not
        raise."""
        tel = _two_phase_telemetry()
        for name in tel["signals"]:
            tel["signals"][name] = [0.2] * 8
        timeline = bottleneck_timeline(_result(tel, master_done=None))
        assert timeline.verdicts() == ["application"]


class TestAgainstRealRuns:
    def test_none_without_telemetry(self):
        result = run_trace(
            wait_chain_trace(3, 4, k_deps=2, spin_ns=500),
            SystemConfig(workers=2, memory_contention=False),
        )
        assert bottleneck_timeline(result) is None

    def test_sampled_run_covers_the_span_contiguously(self):
        cfg = SystemConfig(
            workers=2, memory_contention=False, telemetry_window=WINDOW
        )
        result = run_trace(wait_chain_trace(3, 4, k_deps=2, spin_ns=500), cfg)
        timeline = bottleneck_timeline(result)
        assert timeline is not None and timeline.phases
        assert timeline.phases[0][0] == 0
        assert timeline.phases[-1][1] == result.telemetry["times_ps"][-1]
        for (_, end, _v), (start, _, _v2) in zip(
            timeline.phases, timeline.phases[1:]
        ):
            assert end == start
        assert timeline.window_ps == WINDOW
        # The strip renders every phase verdict.
        for verdict in timeline.verdicts():
            assert verdict in timeline.strip()

    def test_empty_timeline_strip(self):
        assert BottleneckTimeline(phases=[], window_ps=1).strip() == "(no phases)"
