"""End-to-end machine tests on small traces: legality, ordering, draining."""

import pytest

from repro.config import LADDER, SystemConfig
from repro.hw.errors import CapacityError
from repro.analysis import build_metrics_document, validate_metrics
from repro.machine import NexusMachine, RunResult, run_trace
from repro.runtime.task_graph import build_task_graph
from repro.traces import (
    AccessMode,
    Param,
    TaskTrace,
    TraceTask,
    gaussian_trace,
    h264_wavefront_trace,
    horizontal_chains_trace,
    independent_trace,
    random_trace,
    vertical_chains_trace,
    workload,
)


def small_cfg(**kw):
    kw.setdefault("workers", 4)
    kw.setdefault("memory_batch_chunks", 4)
    return SystemConfig(**kw)


def assert_legal(trace, result):
    graph = build_task_graph(trace)
    problems = result.verify_against(graph)
    assert problems == [], "\n".join(problems[:10])


class TestSingleTask:
    def test_one_task_completes(self):
        trace = TaskTrace(
            "one",
            [TraceTask(0, 1, (Param(0x100, 64, AccessMode.INOUT),), 1000, 200, 100)],
        )
        result = run_trace(trace, small_cfg(workers=1))
        assert result.n_tasks == 1
        assert result.records[0].is_complete()
        assert_legal(trace, result)
        # Makespan covers at least prep + submission + exec + memory.
        assert result.makespan >= 1000 + 200 + 100

    def test_pipeline_stage_order(self):
        trace = TaskTrace(
            "one",
            [TraceTask(0, 1, (Param(0x100, 64, AccessMode.INOUT),), 1000, 200, 100)],
        )
        result = run_trace(trace, small_cfg(workers=1))
        r = result.records[0]
        assert r.submitted <= r.stored <= r.ready <= r.dispatched
        assert r.dispatched <= r.fetch_start <= r.exec_start
        assert r.exec_start + 1000 == r.exec_end
        assert r.exec_end <= r.writeback_end <= r.completed

    def test_exec_time_respected_exactly(self):
        trace = TaskTrace(
            "one",
            [TraceTask(0, 1, (Param(0x100, 64, AccessMode.IN),), 12345, 0, 0)],
        )
        result = run_trace(trace, small_cfg(workers=2))
        r = result.records[0]
        assert r.exec_end - r.exec_start == 12345


class TestDependencyEnforcement:
    def test_raw_chain_serializes(self):
        tasks = [
            TraceTask(0, 1, (Param(0x100, 64, AccessMode.OUT),), 1000, 0, 0),
            TraceTask(1, 1, (Param(0x100, 64, AccessMode.IN),), 1000, 0, 0),
            TraceTask(2, 1, (Param(0x100, 64, AccessMode.INOUT),), 1000, 0, 0),
        ]
        trace = TaskTrace("chain", tasks)
        result = run_trace(trace, small_cfg())
        assert_legal(trace, result)
        r = result.records
        assert r[0].completed <= r[1].fetch_start
        assert r[1].completed <= r[2].fetch_start

    def test_parallel_readers_overlap(self):
        # One writer, then many readers: the readers must run concurrently.
        tasks = [TraceTask(0, 1, (Param(0x100, 64, AccessMode.OUT),), 1000, 0, 0)]
        for tid in range(1, 5):
            tasks.append(
                TraceTask(
                    tid,
                    1,
                    (
                        Param(0x100, 64, AccessMode.IN),
                        Param(0x1000 * tid, 64, AccessMode.OUT),
                    ),
                    100_000_000,  # 100 us
                    0,
                    0,
                )
            )
        trace = TaskTrace("fanout", tasks)
        result = run_trace(trace, small_cfg(workers=4))
        assert_legal(trace, result)
        r = result.records
        # All four readers execute in a single 100us wave (not serialized).
        spans = [(x.exec_start, x.exec_end) for x in r[1:]]
        earliest = min(s for s, _ in spans)
        latest = max(e for _, e in spans)
        assert latest - earliest < 150_000_000  # far below 4 x 100us

    def test_war_enforced(self):
        tasks = [
            TraceTask(0, 1, (Param(0x100, 64, AccessMode.IN),), 50_000, 0, 0),
            TraceTask(1, 1, (Param(0x100, 64, AccessMode.OUT),), 1000, 0, 0),
        ]
        trace = TaskTrace("war", tasks)
        result = run_trace(trace, small_cfg())
        assert_legal(trace, result)
        assert result.records[0].completed <= result.records[1].fetch_start

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_wavefront_legal_on_any_core_count(self, workers):
        trace = h264_wavefront_trace(rows=6, cols=6)
        result = run_trace(trace, small_cfg(workers=workers))
        assert_legal(trace, result)

    def test_random_trace_legal(self):
        trace = random_trace(120, n_addresses=10, max_params=5, seed=11)
        result = run_trace(trace, small_cfg(workers=6))
        assert_legal(trace, result)


class TestPatternTraces:
    def test_horizontal_pattern(self):
        trace = horizontal_chains_trace(rows=3, cols=10)
        result = run_trace(trace, small_cfg(workers=3))
        assert_legal(trace, result)

    def test_vertical_pattern(self):
        trace = vertical_chains_trace(rows=4, cols=6)
        result = run_trace(trace, small_cfg(workers=4))
        assert_legal(trace, result)

    def test_independent_tasks_use_all_cores(self):
        trace = independent_trace(n_tasks=64, n_params=2)
        result = run_trace(trace, small_cfg(workers=4))
        assert_legal(trace, result)
        per_core = result.stats["tasks_per_core"]
        assert len(per_core) == 4
        assert all(n > 0 for n in per_core)
        assert sum(per_core) == 64

    def test_gaussian_small_matrix(self):
        trace = gaussian_trace(12)
        result = run_trace(trace, small_cfg(workers=4))
        assert_legal(trace, result)


class TestDummyMechanisms:
    def test_wide_task_uses_dummy_tasks(self):
        # 20 params > 8 per TD -> dummy tasks in the Task Pool.
        params = tuple(
            Param(0x9000 + i * 64, 64, AccessMode.IN if i else AccessMode.OUT)
            for i in range(20)
        )
        trace = TaskTrace("wide", [TraceTask(0, 1, params, 1000, 0, 0)])
        result = run_trace(trace, small_cfg(workers=1))
        assert result.stats["task_pool"]["dummy_tasks_created"] == 2
        assert_legal(trace, result)

    def test_wide_fanout_uses_dummy_entries(self):
        # 30 readers waiting on one writer -> Kick-Off List spills.
        tasks = [TraceTask(0, 1, (Param(0x100, 64, AccessMode.OUT),), 5_000_000, 0, 0)]
        for tid in range(1, 31):
            tasks.append(
                TraceTask(tid, 1, (Param(0x100, 64, AccessMode.IN),), 1000, 0, 0)
            )
        trace = TaskTrace("fanout30", tasks)
        result = run_trace(trace, small_cfg(workers=2))
        assert result.stats["dep_table"]["dummy_entries_created"] > 0
        assert result.stats["dep_table"]["max_kickoff_waiters"] >= 29
        assert_legal(trace, result)

    def test_restricted_mode_rejects_wide_task(self):
        params = tuple(
            Param(0x9000 + i * 64, 64, AccessMode.IN if i else AccessMode.OUT)
            for i in range(9)
        )
        trace = TaskTrace("wide9", [TraceTask(0, 1, params, 1000, 0, 0)])
        with pytest.raises(CapacityError, match="dummy tasks are disabled"):
            run_trace(trace, LADDER["restricted"].with_(workers=2))

    def test_restricted_mode_rejects_wide_fanout(self):
        tasks = [TraceTask(0, 1, (Param(0x100, 64, AccessMode.OUT),), 5_000_000, 0, 0)]
        for tid in range(1, 12):
            tasks.append(
                TraceTask(tid, 1, (Param(0x100, 64, AccessMode.IN),), 1000, 0, 0)
            )
        trace = TaskTrace("fanout11", tasks)
        with pytest.raises(CapacityError, match="dummy entries are disabled"):
            run_trace(trace, LADDER["restricted"].with_(workers=2))

    def test_restricted_mode_runs_fitting_workloads(self):
        trace = h264_wavefront_trace(rows=4, cols=4)
        result = run_trace(trace, LADDER["restricted"].with_(workers=2))
        assert_legal(trace, result)

    def test_gaussian_fails_restricted_but_runs_nexuspp(self):
        """The paper's core claim: GE 'could not be executed by Nexus'."""
        trace = gaussian_trace(16)
        with pytest.raises(CapacityError):
            run_trace(trace, LADDER["restricted"].with_(workers=4))
        result = run_trace(trace, small_cfg(workers=4))
        assert_legal(trace, result)


class TestDraining:
    def test_tables_empty_after_run(self):
        trace = random_trace(60, n_addresses=8, seed=3)
        result = run_trace(trace, small_cfg(workers=3))
        # Machine asserts draining internally; spot-check stats here.
        assert result.stats["dep_table"]["occupied"] == 0

    def test_duplicate_address_in_task_rejected(self):
        tasks = [
            TraceTask(
                0,
                1,
                (
                    Param(0x100, 64, AccessMode.IN),
                    Param(0x100, 64, AccessMode.OUT),
                ),
                1000,
                0,
                0,
            )
        ]
        with pytest.raises(ValueError, match="twice"):
            run_trace(TaskTrace("dup", tasks), small_cfg())

    def test_max_time_cutoff(self):
        trace = independent_trace(n_tasks=50, n_params=2)
        machine = NexusMachine(small_cfg(workers=1))
        result = machine.run(trace, max_time=100_000)  # far too short
        assert result.n_tasks == 50
        assert any(not r.is_complete() for r in result.records)


class TestDeterminism:
    def test_identical_runs_identical_timelines(self):
        trace = h264_wavefront_trace(rows=5, cols=7)
        r1 = run_trace(trace, small_cfg(workers=3))
        r2 = run_trace(trace, small_cfg(workers=3))
        assert r1.makespan == r2.makespan
        for a, b in zip(r1.records, r2.records):
            assert (a.fetch_start, a.exec_start, a.completed) == (
                b.fetch_start,
                b.exec_start,
                b.completed,
            )

    @pytest.mark.parametrize(
        "trace, cfg",
        [
            (
                workload("hazard-dense", n_tasks=300),
                LADDER["full"].with_(workers=8),
            ),
            (workload("gaussian", n=24), SystemConfig()),
        ],
        ids=["hazard-dense-full", "gaussian-table-iv"],
    )
    def test_two_runs_give_equal_stats(self, trace, cfg):
        """``stats`` holds only modelled measurements: two runs of one
        trace on one machine give equal stats, no key dropped.  The wall
        clock is the host's, in ``host``."""
        first, second = run_trace(trace, cfg), run_trace(trace, cfg)
        assert first.stats == second.stats
        assert first.host["wall_seconds"] > 0
        assert set(first.host) == {"wall_seconds"}


#: Table IV and every named machine.
MACHINES = {"table-iv": SystemConfig(), **LADDER}

#: Config values a run reads from ``result.config``, never from ``stats``.
CONFIG_ECHOES = [
    ("resolve", "coalesce_limit"),
    ("resolve", "speculative_kickoff"),
    ("check", "decentralized_scatter"),
    ("check", "coalesce_limit"),
    ("dispatch", "fast_dispatch", "fast_path"),
    ("dispatch", "fast_dispatch", "prefetch_depth"),
    ("dispatch", "fast_dispatch", "td_cache", "entries_per_shard"),
    ("shards", "count"),
    ("shards", "retire", "pipeline_depth"),
    ("frontend", "master_cores"),
    ("frontend", "submission_batch"),
]


class TestRunCarriesItsConfig:
    @pytest.mark.parametrize("name", list(MACHINES))
    def test_run_and_its_metrics_document_carry_the_machine(self, name):
        """The result holds the very config it ran on, and the metrics
        document's ``config`` rebuilds an equal one, field for field."""
        cfg = MACHINES[name]
        result = run_trace(h264_wavefront_trace(rows=4, cols=4), cfg)
        assert result.config is cfg
        doc = build_metrics_document(result)
        assert validate_metrics(doc) == []
        assert SystemConfig(**doc["config"]) == cfg

    @pytest.mark.parametrize("name", list(MACHINES))
    def test_stats_hold_no_copy_of_the_config(self, name):
        """``stats`` holds measurements only: no config value is echoed
        into it, and ``stats["sim"]`` has only the kernel's counts."""
        result = run_trace(h264_wavefront_trace(rows=4, cols=4), MACHINES[name])
        for path in CONFIG_ECHOES:
            node = result.stats
            for key in path[:-1]:
                node = node.get(key, {})
            assert path[-1] not in node, ".".join(path)
        assert set(result.stats["sim"]) == {
            "events_processed", "peak_pending_events", "events_by_block",
        }
        assert not hasattr(result, "workers")

    def test_hand_built_result_is_table_iv(self):
        result = RunResult(
            trace_name="synthetic", makespan=0,
            master_done=None, records=[],
        )
        assert result.config == SystemConfig()
