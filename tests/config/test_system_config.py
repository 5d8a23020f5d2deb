"""Tests for SystemConfig: Table IV values, derived quantities, validation."""

import pytest

from repro.config import BUS_MODEL_FITTED, BUS_MODEL_FORMULA, LADDER, SystemConfig
from repro.hw.fabric import Fabric
from repro.machine import NexusMachine
from repro.sim import NS, Simulator
from repro.traces import independent_trace
from repro.traces.timing import exec_time_for_flops, memory_time_for_bytes


class TestTableIVDefaults:
    def test_clock_frequencies(self):
        cfg = SystemConfig()
        assert dict(cfg.table_iv())["Cores clock freq."] == "2 GHz"
        assert cfg.nexus_clock_hz == 500_000_000
        assert cfg.nexus_cycle == 2 * NS

    def test_access_times(self):
        cfg = SystemConfig()
        assert cfg.on_chip_access_time == 2 * NS
        assert cfg.off_chip_access_time == 12 * NS

    def test_table_geometries(self):
        cfg = SystemConfig()
        assert cfg.task_pool_entries == 1024
        assert cfg.task_pool_bytes == 78 * 1024  # 78 KB
        assert cfg.dependence_table_entries == 4096
        assert cfg.dependence_table_bytes == 112 * 1024  # 112 KB
        assert cfg.max_params_per_td == 8
        assert cfg.kickoff_list_size == 8

    def test_memory_bandwidth_matches_table(self):
        cfg = SystemConfig()
        # 128 B / 12 ns = 10.67 GB/s (paper's Table IV row).
        assert cfg.memory_bandwidth_bytes_per_s == pytest.approx(10.67e9, rel=0.01)

    def test_fifo_entry_counts(self):
        cfg = SystemConfig()
        assert cfg.tds_sizes_list_entries == 1024
        assert cfg.new_tasks_list_entries == 1024

    def test_buffering_depth_is_double(self):
        assert SystemConfig().buffering_depth == 2

    def test_task_prep_time(self):
        assert SystemConfig().task_prep_time == 30 * NS

    def test_table_iv_rendering(self):
        rows = dict(SystemConfig().table_iv())
        assert rows["Nexus++ clock freq."] == "500 MHz"
        assert rows["Task Pool size"] == "78 KB (1024 TDs)"
        assert rows["Dependence Table size"] == "112 KB (4096 entries)"
        assert rows["Kick-Off list size"] == "8 task IDs"


class TestSubmissionTiming:
    def test_formula_model_matches_prose(self):
        cfg = SystemConfig(bus_model=BUS_MODEL_FORMULA)
        # handshake 5 cycles + 2 cycles per word, words = 1 + nP, cycle = 2ns.
        assert cfg.submission_time(4) == (5 + 2 * 5) * 2 * NS
        assert cfg.submission_time(8) == (5 + 2 * 9) * 2 * NS

    def test_fitted_model_matches_paper_examples(self):
        cfg = SystemConfig(bus_model=BUS_MODEL_FITTED)
        # Paper: "a task with 4 parameters takes 10 cycles (20ns), whereas an
        # 8-parameters task takes 14 cycles (28ns)".
        assert cfg.submission_time(4) == 20 * NS
        assert cfg.submission_time(8) == 28 * NS

    def test_td_transfer_time(self):
        cfg = SystemConfig()
        assert cfg.td_transfer_time(3) == (5 + 2 * 4) * 2 * NS

    def test_unknown_bus_model_rejected(self):
        with pytest.raises(ValueError, match="bus_model"):
            SystemConfig(bus_model="warp-drive")


class TestDerivedHelpers:
    def test_exec_time_for_flops(self):
        # 3523 FLOPs at 2 GFLOPS = 1.7615 us (paper: "1.77us" for n=5000).
        assert exec_time_for_flops(3523) == pytest.approx(1.76 * 1e6, rel=0.01)
        # 167 FLOPs = 83.5 ns (paper quotes 83.5ns for n=250).
        assert exec_time_for_flops(167) == 83_500

    def test_exec_time_minimum_one_ps(self):
        assert exec_time_for_flops(0.0001) == 1

    def test_memory_time_rounds_to_chunks(self):
        assert memory_time_for_bytes(0) == 0
        assert memory_time_for_bytes(1) == 12 * NS
        assert memory_time_for_bytes(128) == 12 * NS
        assert memory_time_for_bytes(129) == 24 * NS
        assert memory_time_for_bytes(1280) == 120 * NS

    def test_with_replaces_fields(self):
        cfg = SystemConfig().with_(workers=64, memory_contention=False)
        assert cfg.workers == 64
        assert not cfg.memory_contention
        # Original untouched (frozen).
        assert SystemConfig().workers == 16

    def test_equal_configs_hash_equal(self):
        assert len({LADDER["full"], LADDER["full"].with_()}) == 1


class TestValidation:
    @pytest.mark.parametrize(
        "field,value,reason",
        [
            ("workers", 0, "workers"),
            ("buffering_depth", 0, "buffering_depth"),
            ("task_pool_entries", -1, "task_pool_entries"),
            ("memory_banks", 0, "memory_banks"),
            ("kickoff_list_size", 1, "kickoff_list_size"),
            ("max_params_per_td", 1, "max_params_per_td"),
            ("master_cores", 0, "master_cores"),
            ("submission_batch", 0, "submission_batch"),
            ("memory_batch_chunks", 0, "memory_batch_chunks"),
            ("finish_coalesce_limit", 0, "finish_coalesce_limit"),
            ("check_coalesce_limit", 0, "check_coalesce_limit"),
            # Mechanisms that live only in the sharded engine.
            ("retire_pipeline_depth", 4, "sharded"),
            ("td_cache_entries", 64, "sharded"),
            ("kickoff_fast_path", True, "sharded"),
            ("decentralized_check_scatter", True, "sharded"),
            ("check_coalesce_limit", 4, "sharded"),
        ],
    )
    def test_invalid_values_rejected(self, field, value, reason):
        with pytest.raises(ValueError, match=reason):
            SystemConfig(**{field: value})

    @pytest.mark.parametrize(
        "knobs",
        [
            dict(master_cores=1, submission_batch=1),
            dict(retire_pipeline_depth=1),
            dict(td_cache_entries=0, kickoff_fast_path=False),
            dict(finish_coalesce_limit=1, speculative_kickoff=False),
            dict(decentralized_check_scatter=False, check_coalesce_limit=1),
        ],
    )
    def test_explicit_off_knobs_are_the_default_machine(self, knobs):
        assert SystemConfig(**knobs) == SystemConfig()

    @pytest.mark.parametrize(
        "knobs,switch,expected",
        [
            ({}, "use_sharded_maestro", False),
            (dict(maestro_shards=2), "use_sharded_maestro", True),
            ({}, "use_parallel_frontend", False),
            ({}, "tp_ports", 1),
            (dict(maestro_shards=4, retire_pipeline_depth=4), "tp_ports", 4),
            (dict(maestro_shards=2, retire_pipeline_depth=2), "tp_ports", 2),
            ({}, "use_fast_dispatch", False),
            (dict(maestro_shards=4, td_cache_entries=8), "use_fast_dispatch", True),
            # The steal policy follows the fast-dispatch subsystem.
            ({}, "steal_locality", False),
            (dict(maestro_shards=4, td_cache_entries=8), "steal_locality", True),
            ({}, "use_resolve_pipeline", False),
            (dict(finish_coalesce_limit=4), "use_resolve_pipeline", True),
            (dict(speculative_kickoff=True), "use_resolve_pipeline", True),
            ({}, "use_check_pipeline", False),
            (
                dict(maestro_shards=2, decentralized_check_scatter=True),
                "use_check_pipeline",
                True,
            ),
            (dict(maestro_shards=2, check_coalesce_limit=4), "use_check_pipeline", True),
        ],
    )
    def test_derived_switches(self, knobs, switch, expected):
        assert getattr(SystemConfig(**knobs), switch) == expected

    @pytest.mark.parametrize(
        "workers,shards,entries", [(4, 1, 8), (4, 4, 2), (5, 2, 6)]
    )
    def test_worker_ids_list_holds_every_core_id(self, workers, shards, entries):
        """Each shard's Worker Cores IDs list is sized at its round-robin
        share of the cores, 'buffering depth' (2) times over; the TP Free
        Indices and ready lists at the Task Pool's size."""
        cfg = SystemConfig(
            workers=workers, maestro_shards=shards, task_pool_entries=64
        )
        fabric = Fabric(Simulator(), cfg, independent_trace(n_tasks=24))
        assert max(f.capacity for f in fabric.worker_pools) == entries
        assert max(len(f) for f in fabric.worker_pools) == entries
        assert fabric.tp_free.capacity == len(fabric.tp_free) == 64
        assert {f.capacity for f in fabric.shard_ready} == {64}
        result = NexusMachine(cfg).run(independent_trace(n_tasks=24))
        assert result.n_tasks == 24

    def test_negative_prep_time_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(task_prep_time=-1)

    @pytest.mark.parametrize(
        "field,value", [("fast_path", False), ("sim_kernel", "heap")]
    )
    def test_removed_host_knobs_rejected(self, field, value):
        """The simulator has one kernel and one block form: a config that
        still names a retired host-side knob fails loudly rather than
        being silently ignored."""
        with pytest.raises(TypeError):
            SystemConfig(**{field: value})
        with pytest.raises(TypeError):
            SystemConfig().with_(**{field: value})


class TestPresets:
    """The paper's setups: Table IV is ``SystemConfig()``, the others are
    named machines of ``LADDER``."""

    def test_paper_default(self):
        cfg = SystemConfig(workers=64)
        assert cfg.workers == 64
        assert cfg.memory_contention
        assert cfg.buffering_depth == 2

    def test_contention_free(self):
        cfg = LADDER["contention-free"]
        assert cfg == SystemConfig(workers=16, memory_contention=False)
        assert cfg.task_prep_time == 30 * NS

    def test_no_prep_delay(self):
        cfg = LADDER["no-prep"]
        assert cfg.task_prep_time == 0
        assert not cfg.memory_contention

    def test_nexus_restricted(self):
        cfg = LADDER["restricted"]
        assert cfg.restricted
        assert cfg.buffering_depth == 1
        assert cfg.memory_contention

    def test_every_named_machine_has_16_workers(self):
        assert {name: cfg.workers for name, cfg in LADDER.items()} == dict.fromkeys(
            LADDER, 16
        )

    def test_fitted_is_contention_free_on_the_fitted_bus(self):
        assert LADDER["fitted"] == SystemConfig(
            workers=16, memory_contention=False, bus_model=BUS_MODEL_FITTED
        )


class TestShardedMaestroConfig:
    def test_defaults_are_single_maestro(self):
        cfg = SystemConfig()
        assert cfg.maestro_shards == 1
        assert not cfg.use_sharded_maestro
        assert cfg.shard_hop_time == 4 * NS

    def test_per_shard_table_split_is_ceiling(self):
        cfg = SystemConfig(maestro_shards=3)
        assert cfg.dt_entries_per_shard == -(-4096 // 3)
        assert cfg.dt_entries_per_shard * 3 >= cfg.dependence_table_entries

    def test_per_shard_table_follows_the_total(self):
        cfg = SystemConfig(maestro_shards=2, dependence_table_entries=128)
        assert cfg.dt_entries_per_shard == 64

    def test_validation(self):
        with pytest.raises(ValueError):
            SystemConfig(maestro_shards=0)
        with pytest.raises(ValueError):
            SystemConfig(shard_hop_time=-1)
        with pytest.raises(ValueError):
            SystemConfig(dependence_table_entries=0)
        with pytest.raises(ValueError):
            SystemConfig(shard_inbox_entries=0)

    def test_table_iv_gains_shard_rows_only_when_sharded(self):
        assert "Maestro shards" not in dict(SystemConfig().table_iv())
        rows = dict(SystemConfig(maestro_shards=4).table_iv())
        assert rows["Maestro shards"] == "4"
        assert rows["Shard hop latency"] == "4ns"
        assert rows["Dependence Table per shard"] == "1024 entries"
