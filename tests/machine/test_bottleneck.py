"""Tests for bottleneck attribution (the 'why did it stop scaling' report)."""

import pytest

from repro.config import LADDER, SystemConfig
from repro.machine import analyze_bottleneck, run_trace
from repro.traces import (
    TimeModel,
    horizontal_chains_trace,
    independent_trace,
    workload,
)

FAST = TimeModel(mean_exec=2_000_000, mean_memory=1_500_000, cv=0.0)


class TestVerdicts:
    def test_worker_bound_small_machine(self):
        trace = independent_trace(n_tasks=300, n_params=2, time_model=FAST)
        cfg = SystemConfig(workers=2, memory_contention=False)
        result = run_trace(trace, cfg)
        rep = analyze_bottleneck(result)
        assert rep.verdict == "workers"
        assert rep.occupancy["workers"] > 0.9

    def test_memory_bound_with_contention(self):
        trace = independent_trace(n_tasks=1500, n_params=2)
        cfg = SystemConfig(workers=64)  # demand ~41 banks > 32
        result = run_trace(trace, cfg)
        rep = analyze_bottleneck(result)
        assert rep.verdict == "memory"

    def test_memory_occupancy_reads_the_run_bank_count(self):
        """Eight banks, not Table IV's 32: the run's own config sizes the
        memory occupancy, so 32 workers saturate the small memory."""
        cfg = SystemConfig(workers=32, memory_banks=8)
        result = run_trace(workload("independent", n_tasks=800), cfg)
        rep = analyze_bottleneck(result)
        assert rep.verdict == "memory"
        banks_busy = result.stats["memory"]["mean_busy_banks"]
        assert rep.occupancy["memory"] == banks_busy / 8

    def test_application_bound_chains(self):
        trace = horizontal_chains_trace(rows=4, cols=50, time_model=FAST)
        cfg = SystemConfig(workers=32, memory_contention=False)
        result = run_trace(trace, cfg)
        rep = analyze_bottleneck(result)
        assert rep.verdict == "application"

    def test_master_bound_at_scale(self):
        trace = independent_trace()
        cfg = LADDER["contention-free"].with_(workers=256)
        result = run_trace(trace, cfg)
        rep = analyze_bottleneck(result)
        assert rep.verdict == "master"


class TestReportShape:
    def test_ranked_and_describe(self):
        trace = independent_trace(n_tasks=100, n_params=2, time_model=FAST)
        cfg = SystemConfig(workers=2, memory_contention=False)
        result = run_trace(trace, cfg)
        rep = analyze_bottleneck(result)
        ranked = rep.ranked()
        assert ranked == sorted(ranked, key=lambda kv: -kv[1])
        assert "bottleneck:" in rep.describe()

    def test_maestro_blocks_present(self):
        trace = independent_trace(n_tasks=50, n_params=2, time_model=FAST)
        cfg = SystemConfig(workers=2, memory_contention=False)
        result = run_trace(trace, cfg)
        rep = analyze_bottleneck(result)
        for block in ("write_tp", "check_deps", "schedule", "send_tds", "handle_finished"):
            assert f"maestro.{block}" in rep.occupancy
            assert 0.0 <= rep.occupancy[f"maestro.{block}"] <= 1.0

    def test_utilizations_in_stats(self):
        trace = independent_trace(n_tasks=50, n_params=2, time_model=FAST)
        result = run_trace(trace, SystemConfig(workers=3, memory_contention=False))
        util = result.stats["maestro_utilization"]
        assert set(util) == {
            "write_tp",
            "check_deps",
            "schedule",
            "send_tds",
            "handle_finished",
        }
        busy = result.stats["worker_busy_fraction"]
        assert len(busy) == 3
        assert all(0.0 <= b <= 1.0 for b in busy)


class TestRetireVerdict:
    def _result(self, depth=1):
        """The retire-bound bench machine in miniature (hazard-dense flood)."""
        from repro.config import BUS_MODEL_FITTED
        from repro.traces import random_trace

        trace = random_trace(
            600, n_addresses=96, max_params=6, seed=7,
            mean_exec=4000, mean_memory=0,
        )
        cfg = SystemConfig(
            workers=16, maestro_shards=4, master_cores=4, submission_batch=8,
            memory_contention=False, bus_model=BUS_MODEL_FITTED,
            retire_pipeline_depth=depth,
        )
        return run_trace(trace, cfg)

    def test_serialized_retire_bound_run_is_attributed(self):
        result = self._result(depth=1)
        rep = analyze_bottleneck(result)
        assert rep.verdict == "retire"
        assert rep.occupancy["retire"] >= 0.5

    def test_pipelined_run_is_no_longer_retire_bound(self):
        result = self._result(depth=4)
        rep = analyze_bottleneck(result)
        assert rep.verdict != "retire"
        assert rep.occupancy["retire"] < 0.5

class TestLatencyVerdict:
    """The latency-bound verdict: the bugfix for runs where nothing is
    >= 50% busy and the old report shrugged "application"."""

    def _result(self, n_tasks=600, **features):
        from repro.config import BUS_MODEL_FITTED
        from repro.traces import random_trace

        trace = random_trace(
            n_tasks, n_addresses=96, max_params=6, seed=7,
            mean_exec=4000, mean_memory=0,
        )
        cfg = SystemConfig(
            workers=16, maestro_shards=4, master_cores=4, submission_batch=8,
            retire_pipeline_depth=4, memory_contention=False,
            bus_model=BUS_MODEL_FITTED, **features,
        )
        return run_trace(trace, cfg)

    def test_latency_bound_run_is_attributed_with_chain_arithmetic(self):
        result = self._result()
        rep = analyze_bottleneck(result)
        assert rep.verdict == "latency"
        # The verdict carries chain depth x mean hop ns and the dominant
        # hop component — not just a label.
        assert rep.detail is not None
        assert "critical chain" in rep.detail
        assert "ns/hop" in rep.detail
        assert "dominant hop component" in rep.detail
        assert rep.detail.split("dominant hop component:")[1].strip()
        assert rep.describe().endswith(rep.detail)

    def test_application_bound_chains_stay_application_bound(self):
        """Long chains of *long tasks* are an application property, not a
        machinery-latency one: execution time is excluded from the hop
        components, so the latency verdict must not fire."""
        trace = horizontal_chains_trace(rows=4, cols=50, time_model=FAST)
        cfg = SystemConfig(workers=32, memory_contention=False)
        result = run_trace(trace, cfg)
        rep = analyze_bottleneck(result)
        assert rep.verdict == "application"
        assert result.stats["dispatch"]["chain_fraction"] < 0.5

    def test_fast_dispatch_lifts_the_latency_verdict(self):
        """On the full-size bench machine the subsystem cuts the hop
        enough that the machine runs back into the master front-end —
        the latency verdict must move on (the bench pins the speedup)."""
        result = self._result(
            n_tasks=1200,
            td_cache_entries=64, td_prefetch_depth=2, kickoff_fast_path=True,
        )
        rep = analyze_bottleneck(result)
        assert rep.verdict != "latency"


class TestVerdictPrecedence:
    """Verdict precedence in the post-PR 4 regime: a machine that is
    simultaneously >= 50% master-busy (but below the 90% saturation bar)
    *and* latency-bound must be called latency-bound — partial master
    occupancy is not a verdict, the critical chain's hop latency is."""

    def _synthetic(self, master_busy_fraction, chain_fraction,
                   dominant="resolve"):
        from repro.machine.results import RunResult

        span = 10_000_000  # 10 us
        return RunResult(
            trace_name="synthetic",
            makespan=span,
            # One master producing for `master_busy_fraction` of the run.
            master_done=int(span * master_busy_fraction),
            records=[],
            stats={
                "maestro_utilization": {"s0.finish": 0.45, "s0.check": 0.4},
                "worker_busy_fraction": [0.3] * 16,
                "master_stall_ps": 0,
                "memory": {},
                "dispatch": {
                    "chain_depth": 200,
                    "chain_fraction": chain_fraction,
                    "chain_hop_ns": {"total": 45.0},
                    "dominant_chain_component": dominant,
                    "dominant_chain_component_ns": 30.0,
                },
            },
        )

    def test_half_busy_master_plus_latency_bound_is_latency(self):
        rep = analyze_bottleneck(self._synthetic(0.6, 0.8))
        assert 0.5 <= rep.occupancy["master"] < 0.9
        assert rep.verdict == "latency"
        assert rep.detail is not None and "critical chain" in rep.detail

    def test_saturated_master_still_wins(self):
        rep = analyze_bottleneck(self._synthetic(0.95, 0.8))
        assert rep.verdict == "master"

    def test_resolve_flavored_latency_detail_names_the_knobs(self):
        """The refined resolve-flavored verdict: when the dominant chain
        component is the resolve hop, the detail names the resolve
        pipeline knobs that cut it."""
        rep = analyze_bottleneck(self._synthetic(0.6, 0.8, dominant="resolve"))
        assert rep.verdict == "latency"
        assert "finish_coalesce_limit" in rep.detail
        assert "speculative_kickoff" in rep.detail
        # Other flavors keep the old fast-dispatch-shaped detail.
        other = analyze_bottleneck(
            self._synthetic(0.6, 0.8, dominant="td_transfer")
        )
        assert other.verdict == "latency"
        assert "finish_coalesce_limit" not in other.detail

    def test_post_pr4_machine_hits_this_regime_for_real(self):
        """The synthetic shape above is the real post-PR 4 machine: widen
        the front-end to 6 masters on the fast-dispatch stack and the
        hazard-dense flood is 50-90% master-busy yet latency-bound on the
        resolve hop."""
        from repro.config import BUS_MODEL_FITTED
        from repro.traces import random_trace

        trace = random_trace(
            600, n_addresses=96, max_params=6, seed=7,
            mean_exec=4000, mean_memory=0,
        )
        cfg = SystemConfig(
            workers=16, maestro_shards=4, master_cores=6, submission_batch=8,
            retire_pipeline_depth=4, td_cache_entries=64, td_prefetch_depth=2,
            kickoff_fast_path=True, memory_contention=False,
            bus_model=BUS_MODEL_FITTED,
        )
        result = run_trace(trace, cfg)
        rep = analyze_bottleneck(result)
        assert 0.5 <= rep.occupancy["master"] < 0.9, rep.occupancy["master"]
        assert rep.verdict == "latency"
        assert "dominant hop component: resolve" in rep.detail
        assert "finish_coalesce_limit" in rep.detail


class TestCheckVerdict:
    """Verdict precedence with the check-flavored saturation detail: a
    saturated check-path block (the central Check Scatter sequencer, a
    per-master scatter slice, or a shard's check engine) names the check
    knobs; saturation still beats the latency verdict and loses to a
    more saturated master."""

    def _synthetic(self, blocks, master_busy_fraction=0.6, chain_fraction=0.8):
        from repro.machine.results import RunResult

        span = 10_000_000
        return RunResult(
            trace_name="synthetic",
            makespan=span,
            master_done=int(span * master_busy_fraction),
            records=[],
            stats={
                "maestro_utilization": blocks,
                "worker_busy_fraction": [0.3] * 16,
                "master_stall_ps": 0,
                "memory": {},
                "dispatch": {
                    "chain_depth": 200,
                    "chain_fraction": chain_fraction,
                    "chain_hop_ns": {"total": 45.0},
                    "dominant_chain_component": "resolve",
                    "dominant_chain_component_ns": 30.0,
                },
            },
        )

    def test_saturated_central_scatter_names_the_check_knobs(self):
        rep = analyze_bottleneck(
            self._synthetic({"scatter": 0.95, "s0.check": 0.4})
        )
        assert rep.verdict == "maestro.scatter"
        assert "decentralized_check_scatter" in rep.detail
        assert "check_coalesce_limit" in rep.detail

    def test_every_check_path_block_carries_the_flavor(self):
        for block in ("m0.scatter", "s1.check", "check_deps"):
            rep = analyze_bottleneck(self._synthetic({block: 0.93}))
            assert rep.verdict == f"maestro.{block}"
            assert "check_coalesce_limit" in rep.detail, block

    def test_non_check_saturation_carries_no_check_detail(self):
        rep = analyze_bottleneck(self._synthetic({"s0.send_tds": 0.95}))
        assert rep.verdict == "maestro.s0.send_tds"
        assert rep.detail is None

    def test_saturated_check_scatter_beats_latency(self):
        """A saturated stage is a measured fact; the chain arithmetic
        only speaks when nothing saturates."""
        rep = analyze_bottleneck(
            self._synthetic({"scatter": 0.92}, chain_fraction=0.9)
        )
        assert rep.verdict == "maestro.scatter"
        assert "check" in rep.detail

    def test_more_saturated_master_beats_check_scatter(self):
        rep = analyze_bottleneck(
            self._synthetic({"scatter": 0.92}, master_busy_fraction=0.97)
        )
        assert rep.verdict == "master"
        assert rep.detail is None

    def test_param_dense_machine_hits_the_check_verdict_for_real(self):
        """The synthetic shape above is the real PR 5 machine on a
        param-dense flood: at 8 shards the per-shard blocks spread out
        and the central scatter sequencer is the one saturated stage,
        so the verdict names the check knobs (the bench pins the
        speedup the knobs then deliver)."""
        from repro.config import BUS_MODEL_FITTED
        from repro.traces import random_trace

        trace = random_trace(
            800, n_addresses=1024, max_params=6, seed=7,
            mean_exec=500, mean_memory=0,
        )
        cfg = SystemConfig(
            workers=16, maestro_shards=8, master_cores=8, submission_batch=8,
            retire_pipeline_depth=4, td_cache_entries=64, td_prefetch_depth=2,
            kickoff_fast_path=True, finish_coalesce_limit=8,
            speculative_kickoff=True, memory_contention=False,
            bus_model=BUS_MODEL_FITTED,
        )
        result = run_trace(trace, cfg)
        rep = analyze_bottleneck(result)
        assert rep.verdict == "maestro.scatter"
        assert rep.occupancy["maestro.scatter"] >= 0.9
        assert "decentralized_check_scatter" in rep.detail
        assert "check_coalesce_limit" in rep.detail


class TestTruncatedRunFallback:
    """The divide-by-nothing bugfix: a truncated or chainless run used to
    reach the latency/application split with an empty release chain —
    now it falls back to 'application' with an explanatory detail."""

    def _synthetic(self, dispatch, master_done=4_000_000):
        from repro.machine.results import RunResult

        span = 10_000_000
        return RunResult(
            trace_name="synthetic",
            makespan=span,
            master_done=master_done,
            records=[],
            config=SystemConfig(workers=4),
            stats={
                "maestro_utilization": {"s0.check": 0.3},
                "worker_busy_fraction": [0.2] * 4,
                # A truncated run (master_done=None) counts the whole span
                # as production; the stall keeps the master below the
                # saturation bar so the fallback is actually reached.
                "master_stall_ps": span // 2,
                "memory": {},
                **({"dispatch": dispatch} if dispatch is not None else {}),
            },
        )

    def test_missing_dispatch_attribution_is_explained(self):
        rep = analyze_bottleneck(self._synthetic(None))
        assert rep.verdict == "application"
        assert "no dispatch attribution recorded" in rep.detail

    def test_empty_chain_is_explained_not_divided(self):
        rep = analyze_bottleneck(
            self._synthetic({"chain_depth": 0, "chain_fraction": 0.0})
        )
        assert rep.verdict == "application"
        assert "no release chain recorded" in rep.detail

    def test_truncated_run_is_named_in_the_detail(self):
        rep = analyze_bottleneck(self._synthetic(None, master_done=None))
        assert rep.verdict == "application"
        assert "truncated before the masters finished" in rep.detail


class TestRetireVerdictShape:
    def test_retire_verdict_needs_a_retire_busiest_block(self):
        """A moderate pipe-full fraction alone must not flip the verdict
        when some other Maestro stage is the most loaded one."""
        from repro.machine.bottleneck import BottleneckReport, _busiest_is_retire

        occupancy = {
            "retire": 0.6,
            "maestro.s0.finish": 0.8,
            "maestro.s0.retire": 0.55,
            "workers": 0.85,
        }
        assert not _busiest_is_retire(occupancy)
        # and with a retire block on top, the signal combination holds
        occupancy["maestro.s0.retire"] = 0.81
        assert _busiest_is_retire(occupancy)
        assert isinstance(BottleneckReport(occupancy=occupancy, verdict="retire"), BottleneckReport)
