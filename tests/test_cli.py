"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.traces import CATALOGUE


class TestInfoAndListing:
    def test_info_prints_table_iv(self, capsys):
        assert main(["info", "--workers", "64"]) == 0
        out = capsys.readouterr().out
        assert "500 MHz" in out
        assert "78 KB (1024 TDs)" in out

    def test_info_prints_every_config_knob(self, capsys):
        """Knob-coverage completeness: `info` must list every SystemConfig
        field by name, so no knob — present or future — can hide from it
        (PR 4's dispatch knobs and the resolve knobs included).  Each
        knob must appear as its own listing row — substring hits (e.g.
        `dependence_table_entries` inside the `_per_shard` row) don't
        count."""
        import dataclasses
        import re

        from repro.config import SystemConfig

        assert main(["info"]) == 0
        out = capsys.readouterr().out
        missing = [
            f.name
            for f in dataclasses.fields(SystemConfig)
            if not re.search(rf"^\s*{re.escape(f.name)}\s*\|", out, re.MULTILINE)
        ]
        assert not missing, (
            f"`python -m repro info` omits SystemConfig knobs: {missing}"
        )

    def test_info_knob_listing_shows_effective_values(self, capsys):
        assert main(["info", "--set", "maestro_shards=4",
                     "--set", "finish_coalesce_limit=8",
                     "--set", "speculative_kickoff=on",
                     "--set", "td_cache_entries=32"]) == 0
        out = capsys.readouterr().out
        assert "All configuration knobs" in out
        for row in ("finish_coalesce_limit | 8", "speculative_kickoff | True",
                    "td_cache_entries | 32", "maestro_shards | 4"):
            name, _, value = row.partition(" | ")
            import re

            assert re.search(rf"{name}\s*\|\s*{value}", out), row

    def test_workloads_listing(self, capsys):
        """Each workload is listed with its parameters and the values it
        builds with (the catalogue's over the generator's defaults)."""
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in CATALOGUE:
            assert f"\n{name} " in out
        assert "n_tasks=1200 n_addresses=96 max_params=6 seed=7" in out
        assert "rows=16 cols=64 k_deps=1 spin_ns=1000 cv=0.0" in out
        assert "name=none" in out


class TestRun:
    def test_run_independent(self, capsys):
        rc = main(["run", "independent", "--param", "n_tasks=50", "--workers", "4",
                   "--verify", "--set", "memory_contention=off"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "50 tasks" in out
        assert "dependence check: OK" in out

    def test_run_gaussian_with_bottleneck(self, capsys):
        rc = main(["run", "gaussian", "--param", "n=24", "--workers", "2",
                   "--bottleneck"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bottleneck:" in out
        assert "dummy entries" in out

    def test_run_profile_prints_events_per_task_by_block(self, capsys):
        rc = main(["run", "gaussian", "--param", "n=12", "--workers", "2",
                   "--profile"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "kernel profile:" in out
        assert "events per task, top blocks: maestro.handle-finished" in out

    def test_run_cholesky(self, capsys):
        rc = main(["run", "cholesky", "--param", "tiles=4", "--workers", "4", "--verify"])
        assert rc == 0
        assert "dependence check: OK" in capsys.readouterr().out

    def test_restricted_gaussian_fails_loudly(self):
        # A capacity error exits with its one-line message, no traceback.
        with pytest.raises(SystemExit, match="dummy tasks are disabled"):
            main(["run", "gaussian", "--param", "n=24", "--workers", "2",
                  "--set", "restricted=on"])

    @pytest.mark.parametrize(
        "flags",
        [["--set", "buffering_depth=0"], ["--set", "maestro_shards=0"],
         ["--workers", "0"]],
        ids=["depth", "shards", "workers"],
    )
    def test_zero_machine_size_is_a_one_line_error(self, flags):
        with pytest.raises(SystemExit, match="must be positive, got 0"):
            main(["run", "wait-chain", "--param", "rows=2", "--param", "cols=2", *flags])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "nope"])

    @pytest.mark.parametrize(
        "flags",
        [["--kernel", "heap"], ["--sim-fast-path"], ["--no-sim-fast-path"]],
        ids=["kernel", "sim-fast-path", "no-sim-fast-path"],
    )
    def test_removed_kernel_flags_rejected(self, flags):
        with pytest.raises(SystemExit):
            main(["run", "independent", "--param", "n_tasks=10", *flags])


class TestSweep:
    def test_sweep_prints_curve(self, capsys):
        rc = main(["sweep", "independent", "--param", "n_tasks=60", "--cores", "1,2,4",
                   "--set", "memory_contention=off"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "saturation point" in out

    def test_core_list_without_one_is_measured_against_one_worker(self, capsys):
        rc = main(["sweep", "independent", "--param", "n_tasks=60", "--cores", "2,4"])
        assert rc == 0
        out = capsys.readouterr().out
        rows = [line.split("|") for line in out.splitlines() if line.count("|") == 2]
        cores = {int(r[0]): float(r[1]) for r in rows if r[0].strip().isdigit()}
        assert sorted(cores) == [1, 2, 4]
        assert cores[1] == 1.0
        assert cores[4] > cores[2] > 1.0
        assert "saturation point" in out

    def test_dependence_table_too_small_is_a_one_line_error(self):
        with pytest.raises(SystemExit, match="needs 20 Dependence Table entries"):
            main(["sweep", "gaussian", "--param", "n=20", "--workers", "4",
                  "--axis", "dependence_table_entries=16"])


class TestValidate:
    def test_validate_saved_trace(self, tmp_path, capsys):
        from repro.traces import independent_trace

        path = str(tmp_path / "t.npz")
        independent_trace(n_tasks=10, n_params=2).save(path)
        assert main(["validate", path]) == 0
        out = capsys.readouterr().out
        assert "10 tasks" in out
        assert "critical path" in out


class TestShardedMaestroCli:
    def test_run_with_shards(self, capsys):
        rc = main(["run", "random", "--param", "n_tasks=60", "--param", "n_addresses=16",
                   "--workers", "4", "--set", "maestro_shards=2", "--verify",
                   "--set", "memory_contention=off"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dependence check: OK" in out
        assert "shards 2:" in out
        assert "interconnect messages" in out

    def test_shard_sweep_writes_json(self, capsys, tmp_path):
        path = tmp_path / "shards.json"
        rc = main(["sweep", "random", "--param", "n_tasks=80", "--param", "n_addresses=16",
                   "--workers", "4", "--axis", "maestro_shards=1,2",
                   "--set", "memory_contention=off", "--set", "task_prep_time=0",
                   "--json", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "busiest block" in out
        assert "speedup vs maestro_shards=1" in out
        import json

        data = json.loads(path.read_text())
        assert data["axes"] == {"maestro_shards": [1, 2]}
        assert [r["maestro_shards"] for r in data["rows"]] == [1, 2]
        assert data["rows"][0]["speedup_vs_baseline"] == 1.0
        assert "cross_shard_messages" in data["rows"][1]

    def test_core_curve_takes_a_single_shard_count(self, capsys):
        rc = main(["sweep", "random", "--param", "n_tasks=60", "--param", "n_addresses=16",
                   "--set", "maestro_shards=2", "--cores", "1,2",
                   "--set", "memory_contention=off"])
        assert rc == 0
        assert "saturation point" in capsys.readouterr().out

    def test_info_shows_shard_geometry(self, capsys):
        assert main(["info", "--workers", "8"]) == 0
        out = capsys.readouterr().out
        assert "Maestro shards" not in out  # paper table stays paper-shaped


class TestSubmissionFrontendCli:
    def test_run_with_masters_and_batch(self, capsys):
        rc = main(["run", "random", "--param", "n_tasks=60", "--param", "n_addresses=16",
                   "--workers", "4", "--set", "maestro_shards=2",
                   "--set", "master_cores=2",
                   "--set", "submission_batch=4", "--verify",
                   "--set", "memory_contention=off"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dependence check: OK" in out
        assert "front-end: 2 masters x batch 4" in out

    def test_master_sweep_writes_json(self, capsys, tmp_path):
        path = tmp_path / "masters.json"
        rc = main(["sweep", "random", "--param", "n_tasks=80", "--param", "n_addresses=16",
                   "--workers", "4", "--set", "maestro_shards=2",
                   "--axis", "master_cores=1,2", "--axis", "submission_batch=1,4",
                   "--set", "memory_contention=off", "--json", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "submission_batch" in out
        import json

        data = json.loads(path.read_text())
        assert data["fixed"]["maestro_shards"] == 2
        assert data["baseline"] == {"master_cores": 1, "submission_batch": 1}
        assert [
            (r["master_cores"], r["submission_batch"]) for r in data["rows"]
        ] == [(1, 1), (1, 4), (2, 1), (2, 4)]
        assert data["rows"][0]["speedup_vs_baseline"] == 1.0
        assert data["rows"][0]["master_bound_fraction"] is not None

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep", "random", "--param", "n_tasks=40",
              "--set", "master_cores=1,2"],
             "master_cores: cannot read '1,2' as int"),
            (["sweep", "wait-chain", "--set", "maestro_shards=x"],
             "maestro_shards: cannot read 'x' as int"),
            (["sweep", "random", "--param", "n_tasks=40",
              "--set", "maestro_shards=1,2"],
             "maestro_shards: cannot read '1,2' as int"),
            (["sweep", "random", "--param", "n_tasks=40",
              "--set", "submission_batch=1,4"],
             "submission_batch: cannot read '1,4' as int"),
        ],
        ids=["masters-list", "wait-chain-bad-shards", "shard-list", "batch-list"],
    )
    def test_set_takes_one_value(self, argv, message):
        """A comma list or a malformed value in ``--set`` is a one-line
        usage error (``--axis`` is the way to sweep), not a ValueError
        traceback from a bare int()."""
        with pytest.raises(SystemExit, match=message):
            main(argv)

    def test_info_shows_frontend_geometry(self, capsys):
        assert main(["info", "--set", "master_cores=2",
                     "--set", "submission_batch=4"]) == 0
        out = capsys.readouterr().out
        assert "Master cores" in out
        assert "Submission batch" in out


class TestRetirePipelineCli:
    def test_run_with_retire_depth(self, capsys):
        rc = main(["run", "random", "--param", "n_tasks=60", "--param", "n_addresses=16",
                   "--workers", "4", "--set", "maestro_shards=2",
                   "--set", "master_cores=2",
                   "--set", "retire_pipeline_depth=4", "--verify",
                   "--set", "memory_contention=off"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dependence check: OK" in out
        assert "retire pipeline: depth 4" in out

    def test_retire_sweep_writes_json(self, capsys, tmp_path):
        path = tmp_path / "retire.json"
        rc = main(["sweep", "random", "--param", "n_tasks=80", "--param", "n_addresses=16",
                   "--workers", "4", "--set", "maestro_shards=2",
                   "--set", "master_cores=2",
                   "--axis", "retire_pipeline_depth=1,4",
                   "--set", "memory_contention=off",
                   "--json", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "retire_pipeline_depth" in out
        import json

        data = json.loads(path.read_text())
        assert data["fixed"]["maestro_shards"] == 2
        assert data["baseline"] == {"retire_pipeline_depth": 1}
        assert [r["retire_pipeline_depth"] for r in data["rows"]] == [1, 4]
        assert data["rows"][0]["speedup_vs_baseline"] == 1.0

    def test_retire_sweep_rejects_single_maestro(self):
        # --shards 1 (or none) is a usage error, not a raw traceback.
        with pytest.raises(SystemExit, match="requires the sharded Maestro"):
            main(["sweep", "random", "--param", "n_tasks=40",
                  "--axis", "retire_pipeline_depth=1,2", "--set", "maestro_shards=1"])
        with pytest.raises(SystemExit, match="requires the sharded Maestro"):
            main(["sweep", "random", "--param", "n_tasks=40",
                  "--axis", "retire_pipeline_depth=1,2"])

    def test_shard_sweep_accepts_single_retire_depth(self, capsys):
        """A shard sweep with a fixed pipelined depth applies it everywhere
        (regression: the base config used to validate at 1 shard and die)."""
        rc = main(["sweep", "random", "--param", "n_tasks=60", "--param", "n_addresses=16",
                   "--workers", "4", "--axis", "maestro_shards=2,4",
                   "--set", "retire_pipeline_depth=2",
                   "--set", "memory_contention=off"])
        assert rc == 0
        assert "speedup vs" in capsys.readouterr().out

    @pytest.mark.parametrize("shards", ["1,2", "2,1"])
    def test_shard_sweep_rejects_depth_on_single_maestro_point(self, shards):
        with pytest.raises(SystemExit, match="requires the sharded Maestro"):
            main(["sweep", "random", "--param", "n_tasks=40",
                  "--axis", f"maestro_shards={shards}",
                  "--set", "retire_pipeline_depth=2"])

    def test_run_retire_depth_without_shards_is_usage_error(self):
        with pytest.raises(SystemExit):
            main(["run", "random", "--param", "n_tasks=40", "--set", "retire_pipeline_depth=4"])

    def test_info_shows_retire_geometry(self, capsys):
        assert main(["info", "--set", "maestro_shards=4",
                     "--set", "retire_pipeline_depth=4"]) == 0
        out = capsys.readouterr().out
        assert "Retire pipeline depth" in out

    def test_run_with_fast_dispatch(self, capsys):
        rc = main(["run", "random", "--param", "n_tasks=60", "--param", "n_addresses=16",
                   "--workers", "4", "--set", "maestro_shards=2",
                   "--set", "td_cache_entries=16",
                   "--set", "kickoff_fast_path=on", "--set", "td_prefetch_depth=2",
                   "--verify",
                   "--set", "memory_contention=off"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dependence check: OK" in out
        assert "fast dispatch: TD cache" in out
        assert "critical chain" in out

    def test_dispatch_sweep_writes_json(self, capsys, tmp_path):
        path = tmp_path / "dispatch.json"
        rc = main(["sweep", "random", "--param", "n_tasks=80", "--param", "n_addresses=16",
                   "--workers", "4", "--set", "maestro_shards=2",
                   "--axis", "kickoff_fast_path=off,on",
                   "--axis", "td_cache_entries=0,16", "--set", "memory_contention=off",
                   "--json", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "kickoff_fast_path" in out and "td_cache_entries" in out
        import json

        data = json.loads(path.read_text())
        assert data["fixed"]["maestro_shards"] == 2
        assert data["baseline"] == {"kickoff_fast_path": False, "td_cache_entries": 0}
        assert [
            (r["td_cache_entries"], r["kickoff_fast_path"]) for r in data["rows"]
        ] == [(0, False), (16, False), (0, True), (16, True)]
        assert data["rows"][0]["speedup_vs_baseline"] == 1.0
        assert "chain_hop_ns" in data["rows"][0]
        assert data["rows"][0]["td_cache_hit_rate"] is None
        assert data["rows"][1]["td_cache_hit_rate"] is not None

    def test_dispatch_sweep_rejects_single_maestro(self):
        # A cache-on point needs the sharded engine: a usage error even
        # though the first (cache-off) point alone would be valid.
        for shards in ([], ["--set", "maestro_shards=1"]):
            with pytest.raises(SystemExit, match="requires the sharded Maestro"):
                main(["sweep", "random", "--param", "n_tasks=40",
                      "--axis", "td_cache_entries=0,16", *shards])

    def test_run_fast_dispatch_without_shards_is_usage_error(self):
        with pytest.raises(SystemExit):
            main(["run", "random", "--param", "n_tasks=40", "--set", "td_cache_entries=16"])
        with pytest.raises(SystemExit):
            main(["run", "random", "--param", "n_tasks=40", "--set", "kickoff_fast_path=on"])

    def test_info_shows_dispatch_geometry(self, capsys):
        assert main(["info", "--set", "maestro_shards=4",
                     "--set", "td_cache_entries=64",
                     "--set", "kickoff_fast_path=on"]) == 0
        out = capsys.readouterr().out
        assert "TD prefetch cache" in out
        assert "Kick-off fast path" in out
        assert "Steal policy" in out
        assert "Task Pool ports" in out

    def test_run_with_resolve_pipeline(self, capsys):
        rc = main(["run", "random", "--param", "n_tasks=60", "--param", "n_addresses=16",
                   "--workers", "4", "--set", "maestro_shards=2",
                   "--set", "finish_coalesce_limit=4",
                   "--set", "speculative_kickoff=on", "--verify",
                   "--set", "memory_contention=off"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dependence check: OK" in out
        assert "resolve pipeline: coalesce 4" in out
        assert "speculative kicks" in out

    def test_resolve_sweep_writes_json(self, capsys, tmp_path):
        path = tmp_path / "resolve.json"
        rc = main(["sweep", "random", "--param", "n_tasks=80", "--param", "n_addresses=16",
                   "--workers", "4", "--set", "maestro_shards=2",
                   "--axis", "speculative_kickoff=off,on",
                   "--axis", "finish_coalesce_limit=1,4",
                   "--set", "memory_contention=off", "--json", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "speculative_kickoff" in out
        import json

        data = json.loads(path.read_text())
        assert data["fixed"]["maestro_shards"] == 2
        assert data["baseline"] == {
            "speculative_kickoff": False, "finish_coalesce_limit": 1
        }
        assert [
            (r["finish_coalesce_limit"], r["speculative_kickoff"])
            for r in data["rows"]
        ] == [(1, False), (4, False), (1, True), (4, True)]
        assert data["rows"][0]["speedup_vs_baseline"] == 1.0
        assert "chain_hop_ns" in data["rows"][0]
        assert "resolve_coalesce_rate" in data["rows"][0]

    def test_info_shows_resolve_geometry(self, capsys):
        assert main(["info", "--set", "maestro_shards=4",
                     "--set", "finish_coalesce_limit=8",
                     "--set", "speculative_kickoff=on"]) == 0
        out = capsys.readouterr().out
        assert "Finish coalesce limit" in out
        assert "Speculative kick-off" in out

    def test_malformed_retire_depth_is_usage_error(self):
        with pytest.raises(SystemExit, match="cannot read 'two' as int"):
            main(["sweep", "random", "--param", "n_tasks=20", "--set", "maestro_shards=2",
                  "--set", "retire_pipeline_depth=two"])
        with pytest.raises(SystemExit, match="cannot read '1,2' as int"):
            main(["sweep", "random", "--param", "n_tasks=20", "--set", "maestro_shards=2",
                  "--set", "retire_pipeline_depth=1,2"])


class TestSweepAxisParsing:
    @pytest.mark.parametrize(
        "axis, message",
        [
            ("kickoff_fast_path=yes", "kickoff_fast_path: cannot read 'yes'"),
            ("maestro_shards=2,x", "maestro_shards: cannot read 'x' as int"),
            ("maestro_shards=none", "maestro_shards: cannot read 'none' as int"),
            ("shards=1,2", "unknown SystemConfig knob 'shards'"),
            ("maestro_shards", "expected maestro_shards=v1,v2"),
        ],
        ids=["bad-bool", "non-int", "none-on-int", "unknown-knob", "no-values"],
    )
    def test_bad_axis_is_usage_error(self, axis, message):
        with pytest.raises(SystemExit, match=message):
            main(["sweep", "random", "--param", "n_tasks=40", "--axis", axis])

    def test_repeated_knob_rejected(self):
        with pytest.raises(SystemExit, match="given twice"):
            main(["sweep", "random", "--param", "n_tasks=40", "--axis", "workers=1",
                  "--axis", "workers=2"])

    def test_axis_values_follow_the_field_type(self, capsys, tmp_path):
        import json

        path = tmp_path / "grid.json"
        assert main(["sweep", "gaussian", "--param", "n=8", "--param", "name=none",
                     "--workers", "4", "--set", "maestro_shards=2",
                     "--set", "retire_pipeline_depth=2",
                     "--axis", "dependence_table_entries=4096,16",
                     "--axis", "kickoff_fast_path=False,true",
                     "--set", "memory_contention=off", "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "off" in out and "on" in out
        data = json.loads(path.read_text())
        assert data["trace"] == "gaussian-8"
        assert data["axes"] == {
            "dependence_table_entries": [4096, 16],
            "kickoff_fast_path": [False, True],
        }
        assert [r["dependence_table_entries"] for r in data["rows"]] == [
            4096, 4096, 16, 16
        ]

    @pytest.mark.parametrize("flag", ["--dispatch", "--resolve", "--check", "--efficiency"])
    def test_removed_grid_flags_rejected(self, flag):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "random", "--param", "n_tasks=40", "--set", "maestro_shards=2",
                  flag])
        assert exc.value.code == 2


def _config(*argv):
    """The SystemConfig ``info`` builds from ``argv``, without running."""
    from repro.cli import _config_from, build_parser

    return _config_from(build_parser().parse_args(["info", *argv]))


#: knob -> (``--set`` text, the value it reads as, the ``--stack`` base).
#: Each value is off the knob's Table IV default; a knob the single
#: Maestro rejects goes on the ``sharded`` rung.
REACHABLE = {
    "workers": ("4", 4, None),
    "buffering_depth": ("3", 3, None),
    "nexus_clock_hz": ("250000000", 250_000_000, None),
    "on_chip_access_time": ("3000", 3000, None),
    "task_pool_entries": ("512", 512, None),
    "max_params_per_td": ("4", 4, None),
    "dependence_table_entries": ("2048", 2048, None),
    "kickoff_list_size": ("4", 4, None),
    "tds_sizes_list_entries": ("512", 512, None),
    "new_tasks_list_entries": ("512", 512, None),
    "maestro_shards": ("2", 2, None),
    "shard_hop_time": ("8000", 8000, None),
    "shard_inbox_entries": ("8", 8, None),
    "retire_pipeline_depth": ("2", 2, "sharded"),
    "td_cache_entries": ("32", 32, "sharded"),
    "td_prefetch_depth": ("3", 3, None),
    "kickoff_fast_path": ("on", True, "sharded"),
    "finish_coalesce_limit": ("4", 4, None),
    "speculative_kickoff": ("on", True, None),
    "decentralized_check_scatter": ("on", True, "sharded"),
    "check_coalesce_limit": ("4", 4, "sharded"),
    "master_cores": ("2", 2, None),
    "submission_batch": ("4", 4, None),
    "task_prep_time": ("0", 0, None),
    "bus_handshake_cycles": ("3", 3, None),
    "bus_word_cycles": ("1", 1, None),
    "bus_model": ("fitted", "fitted", None),
    "off_chip_access_time": ("24000", 24000, None),
    "memory_banks": ("16", 16, None),
    "memory_contention": ("off", False, None),
    "memory_batch_chunks": ("8", 8, None),
    "telemetry_window": ("5000000", 5_000_000, None),
    "restricted": ("on", True, None),
}

#: The per-knob flags ``--set`` replaced, then the per-workload flags
#: ``--param`` replaced.
REMOVED_FLAGS = [
    "--no-contention", "--no-prep", "--depth", "--restricted",
    "--telemetry-window", "--shards", "--hop-ns", "--masters", "--batch",
    "--retire-depth", "--td-cache", "--fast-path", "--prefetch-depth",
    "--coalesce", "--coalesce-window", "--spec-kickoff", "--check-scatter",
    "--check-coalesce", "--check-coalesce-window",
    "--tasks", "--size", "--tiles", "--grid", "--iterations", "--leaves",
    "--items", "--stages", "--rows", "--cols", "--deps", "--spin-ns",
    "--steps", "--dims", "--addresses", "--seed",
]

#: ``SystemConfig`` fields deleted because no run read them, and the
#: per-shard table size that restated ``dependence_table_entries``.
DELETED_KNOBS = [
    "core_clock_hz", "td_bytes", "dt_entry_bytes", "core_gflops",
    "memory_chunk_bytes", "dependence_table_entries_per_shard",
]


class TestSetAndStack:
    def test_every_knob_has_a_case(self):
        import dataclasses

        from repro.config import SystemConfig

        assert set(REACHABLE) == {f.name for f in dataclasses.fields(SystemConfig)}

    @pytest.mark.parametrize("knob", sorted(REACHABLE))
    def test_set_reaches_every_knob(self, knob):
        from repro.config import LADDER, SystemConfig

        text, value, stack = REACHABLE[knob]
        base = LADDER[stack] if stack else SystemConfig()
        assert getattr(SystemConfig(), knob) != value != getattr(base, knob)
        stack_args = ["--stack", stack] if stack else []
        cfg = _config(*stack_args, "--set", f"{knob}={text}")
        assert getattr(cfg, knob) == value
        assert cfg == base.with_(**{knob: value})

    def test_stack_full_on_8_workers_is_the_hazard_dense_machine(self, ledger):
        from repro.config import LADDER

        cfg = _config("--stack", "full", "--workers", "8")
        assert cfg == LADDER["full"].with_(workers=8)
        assert cfg == ledger.HAZARD_DENSE_CONFIG

    def test_without_stack_the_base_is_table_iv(self):
        from repro.config import SystemConfig

        assert _config() == SystemConfig()

    def test_info_shows_the_stack(self, capsys):
        assert main(["info", "--stack", "retire"]) == 0
        out = capsys.readouterr().out
        assert "Retire pipeline depth" in out
        assert "bus_model | 'fitted'" in " ".join(out.split())

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["info", "--set", "shards=4"], "unknown SystemConfig knob 'shards'"),
            (["info", "--set", "workers=2", "--set", "workers=4"],
             "--set workers is given twice"),
            (["info", "--workers", "2", "--set", "workers=4"],
             "workers is given twice"),
            (["sweep", "random", "--param", "n_tasks=20", "--set", "maestro_shards=2",
              "--axis", "maestro_shards=2,4"],
             "maestro_shards is given twice"),
            (["info", "--set", "memory_contention=maybe"],
             "memory_contention: cannot read 'maybe' as bool"),
            (["info", "--set", "maestro_shards"], "expected maestro_shards=VALUE"),
            (["info", "--set", "notes=x"], "unknown SystemConfig knob 'notes'"),
            (["info", "--set", "core_gflops=4"],
             "unknown SystemConfig knob 'core_gflops'"),
            (["info", "--stack", "turbo"], "--stack 'turbo': unknown machine"),
        ],
        ids=["unknown-knob", "twice", "workers-twice", "set-and-axis",
             "unreadable", "no-value", "notes", "core-gflops", "unknown-stack"],
    )
    def test_bad_machine_flags_are_one_line_errors(self, argv, message):
        with pytest.raises(SystemExit, match=message) as exc:
            main(argv)
        assert "\n" not in str(exc.value.code)

    @pytest.mark.parametrize("knob", DELETED_KNOBS)
    @pytest.mark.parametrize("flag", ["--set", "--axis"])
    def test_deleted_knobs_are_unknown(self, flag, knob):
        """The fields that shaped no run are gone: naming one on ``--set``
        or ``--axis`` is a one-line usage error, not a silent no-op."""
        with pytest.raises(SystemExit, match=f"unknown SystemConfig knob '{knob}'") as exc:
            main(["sweep", "random", "--param", "n_tasks=20", flag, f"{knob}=1,2"])
        assert "\n" not in str(exc.value.code)

    @pytest.mark.parametrize("flag", REMOVED_FLAGS)
    def test_removed_machine_flags_rejected(self, flag):
        with pytest.raises(SystemExit) as exc:
            main(["run", "independent", "--param", "n_tasks=10", flag, "1"])
        assert exc.value.code == 2


def _scalar_parameters():
    return [
        pytest.param(name, param, id=f"{name}-{param}")
        for name, entry in CATALOGUE.items()
        for param in entry.parameters()
    ]


#: A ``--param`` text per parameter type, and the value it reads as: off
#: every catalogue default.
OFF_DEFAULT = {int: ("5", 5), float: ("0.5", 0.5), str: ("x", "x"), bool: ("on", True)}


class TestParam:
    @pytest.mark.parametrize("name, param", _scalar_parameters())
    def test_param_reaches_every_scalar_parameter(self, name, param, monkeypatch):
        """``--param`` reads each scalar parameter of each catalogue
        generator by its type and hands it to the generator, over the
        catalogue's own parameters."""
        import dataclasses
        import functools
        import typing

        from repro import cli

        entry = CATALOGUE[name]
        kind, default = entry.parameters()[param]
        bare = [t for t in typing.get_args(kind) if t is not type(None)] or [kind]
        text, value = OFF_DEFAULT[bare[0]]
        assert value != default
        calls = []

        @functools.wraps(entry.generator)
        def record(**params):
            calls.append(params)

        monkeypatch.setitem(
            CATALOGUE, name, dataclasses.replace(entry, generator=record)
        )
        args = cli.build_parser().parse_args(["run", name, "--param", f"{param}={text}"])
        cli._trace_from(args)
        assert calls == [{**entry.params, param: value}]

    def test_param_builds_the_catalogue_trace(self, capsys):
        assert main(["run", "hazard-dense", "--param", "n_tasks=50",
                     "--param", "name=tiny", "--workers", "4", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "tiny" in out and "50 tasks" in out
        assert "dependence check: OK" in out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "independent", "--param", "tasks=10"],
             "unknown independent parameter 'tasks'"),
            (["run", "pipeline", "--param", "time_model=none"],
             "unknown pipeline parameter 'time_model'"),
            (["run", "random", "--param", "n_tasks=10", "--param", "n_tasks=20"],
             "--param n_tasks is given twice"),
            (["run", "random", "--param", "n_tasks"], "expected n_tasks=VALUE"),
            (["run", "random", "--param", "n_tasks=ten"],
             "n_tasks: cannot read 'ten' as int"),
            (["run", "random", "--param", "n_tasks=0"], "need at least one task"),
            (["run", "random", "--param", "mean_exec=0"], "need mean_exec >= 1"),
            (["run", "wait-chain", "--param", "cv=-1"],
             "cv must be finite and >= 0, got -1"),
            (["sweep", "wait-chain", "--param", "rows=2", "--param", "rows=3"],
             "--param rows is given twice"),
        ],
        ids=["unknown", "not-scalar", "twice", "no-value", "unreadable",
             "generator-check", "generator-times", "wait-chain-cv",
             "sweep-twice"],
    )
    def test_bad_params_are_one_line_errors(self, argv, message):
        with pytest.raises(SystemExit, match=message) as exc:
            main(argv)
        assert "\n" not in str(exc.value.code)

    def test_run_help_lists_at_most_ten_long_options(self, capsys):
        import re

        with pytest.raises(SystemExit):
            main(["run", "--help"])
        out = capsys.readouterr().out
        options = set(re.findall(r"^  (--[\w-]+)", out, re.MULTILINE))
        assert "--param" in options
        assert len(options) <= 10, sorted(options)

    def test_metrics_out_help_names_the_current_schema(self, capsys):
        from repro.analysis.telemetry import METRICS_SCHEMA_VERSION

        with pytest.raises(SystemExit):
            main(["run", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert f"(schema_version {METRICS_SCHEMA_VERSION})" in out

    @pytest.mark.parametrize("stack", ["contention-free", "no-prep", "restricted"])
    def test_stack_names_the_papers_machines(self, stack):
        from repro.config import LADDER

        assert _config("--stack", stack) == LADDER[stack]


#: README's ``sweep --axis`` example, by the pinned document it writes: the
#: CLI's catalogue workloads and ``--stack`` machines are the ones the
#: ``repro.experiments`` rows run, so the two cannot drift apart.
README_CURVES = {
    "shard_scaling": "sweep hazard-dense --stack fitted --set task_prep_time=0 "
    "--axis maestro_shards=1,2,4",
}


@pytest.mark.parametrize("curve", list(README_CURVES))
def test_readme_command_writes_the_pinned_curve(curve, capsys, tmp_path):
    """README's ``sweep --axis`` example writes the pinned
    ``BENCH_<curve>.json`` document (at the default tier)."""
    import json
    from pathlib import Path

    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert f"python -m repro {README_CURVES[curve]}" in " ".join(
        readme.replace("\\\n", " ").split()
    )
    path = tmp_path / "curve.json"
    assert main([*README_CURVES[curve].split(), "--json", str(path)]) == 0
    capsys.readouterr()
    pinned = Path(__file__).parents[1] / f"BENCH_{curve}.json"
    assert json.loads(path.read_text()) == json.loads(pinned.read_text())


class TestEfficiencyAndExport:
    def test_run_wait_chain(self, capsys):
        assert main(["run", "wait-chain", "--param", "rows=4", "--param", "cols=6",
                     "--param", "k_deps=2", "--param", "spin_ns=500", "--workers", "4",
                     "--verify"]) == 0
        out = capsys.readouterr().out
        assert "wait-chain-4x6-k2-500ns" in out
        assert "dependence check: OK" in out

    def test_run_spatial(self, capsys):
        assert main(["run", "spatial", "--param", "grid=3", "--param", "steps=2",
                     "--param", "dims=3", "--workers", "4", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "spatial-3d-3^3x2" in out
        assert "dependence check: OK" in out

    def test_run_trace_out_writes_chrome_trace(self, capsys, tmp_path):
        import json

        path = tmp_path / "run.trace.json"
        assert main(["run", "wait-chain", "--param", "rows=3", "--param", "cols=4",
                     "--param", "spin_ns=400", "--workers", "2",
                     "--trace-out", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"chrome trace written to {path}" in out
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]
        assert doc["otherData"]["n_tasks"] == 12

    def test_run_rejects_spin_list(self):
        with pytest.raises(SystemExit, match="spin_ns: cannot read '250,1000' as int"):
            main(["run", "wait-chain", "--param", "spin_ns=250,1000",
                  "--workers", "2"])


class TestTelemetryCli:
    ARGS = ["run", "wait-chain", "--param", "rows=4", "--param", "cols=6",
            "--param", "spin_ns=500", "--workers", "4",
            "--set", "telemetry_window=2000000"]

    def test_run_with_telemetry_prints_timeline(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "telemetry: " in out and "windows" in out
        assert "bottleneck timeline: " in out

    def test_metrics_out_report_and_self_diff(self, capsys, tmp_path):
        import json

        path = tmp_path / "metrics.json"
        assert main(self.ARGS + ["--metrics-out", str(path)]) == 0
        capsys.readouterr()
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == 3
        assert doc["telemetry"]["signals"]["workers.busy"]

        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "workers.busy" in out

        assert main(["report", str(path), str(path)]) == 0
        out = capsys.readouterr().out
        assert "+0.00%" in out

    def test_report_exits_1_on_a_modelled_difference(self, capsys, tmp_path):
        """``report A B`` fails when the documents differ outside
        ``host``, the simulator's wall time, and passes when only
        ``host`` differs."""
        import json

        path = tmp_path / "metrics.json"
        assert main(self.ARGS + ["--metrics-out", str(path)]) == 0
        doc = json.loads(path.read_text())
        slower = tmp_path / "slower.json"
        slower.write_text(json.dumps({**doc, "makespan_ps": doc["makespan_ps"] + 1}))
        rehosted = tmp_path / "rehosted.json"
        rehosted.write_text(json.dumps(
            {**doc, "host": {"wall_seconds": doc["host"]["wall_seconds"] + 1.0}}
        ))
        capsys.readouterr()
        assert main(["report", str(slower), str(path)]) == 1
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "modelled difference (outside host) in: makespan_ps" in out
        assert main(["report", str(rehosted), str(path)]) == 0
        assert "modelled difference" not in capsys.readouterr().out

    def test_metrics_document_is_the_same_on_every_run(self, tmp_path):
        """Two runs of one command write one document outside ``host``,
        the simulator's wall time."""
        import json

        docs = []
        for i in range(2):
            path = tmp_path / f"run{i}.json"
            assert main(["run", "wait-chain", "--param", "rows=8",
                         "--param", "cols=32",
                         "--set", "telemetry_window=50000000",
                         "--metrics-out", str(path)]) == 0
            doc = json.loads(path.read_text())
            assert doc.pop("host")["wall_seconds"] > 0
            docs.append(doc)
        assert docs[0]["telemetry"]["signals"]
        assert docs[0] == docs[1]

    def test_report_rejects_invalid_document(self, capsys, tmp_path):
        import json

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "repro-metrics"}))
        assert main(["report", str(bad)]) == 1
        assert "invalid metrics document" in capsys.readouterr().out

    def test_report_missing_file_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot read"):
            main(["report", str(tmp_path / "nope.json")])

    def test_metrics_out_without_telemetry_still_validates(self, capsys, tmp_path):
        import json

        path = tmp_path / "plain.json"
        assert main(["run", "wait-chain", "--param", "rows=3", "--param", "cols=4",
                     "--workers", "2", "--metrics-out", str(path)]) == 0
        capsys.readouterr()
        doc = json.loads(path.read_text())
        assert doc["telemetry"] is None
        assert main(["report", str(path)]) == 0
        assert "telemetry: off" in capsys.readouterr().out

    def test_sweep_profile_attaches_kernel_stats(self, capsys, tmp_path):
        import json

        path = tmp_path / "sweep.json"
        assert main(["sweep", "wait-chain", "--param", "rows=4", "--param", "cols=6",
                     "--param", "spin_ns=500", "--workers", "4",
                     "--cores", "1,2", "--profile",
                     "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "kernel profile: 2 runs" in out
        payload = json.loads(path.read_text())
        for row in payload["rows"]:
            assert row["sim"]["events_processed"] > 0
            assert row["host"]["wall_seconds"] > 0
            assert "wall_seconds" not in row["sim"]

    def test_shard_sweep_profile_attaches_kernel_stats(self, capsys, tmp_path):
        import json

        path = tmp_path / "shards.json"
        assert main(["sweep", "random", "--param", "n_tasks=120", "--workers", "4",
                     "--axis", "maestro_shards=1,2", "--set", "memory_contention=off",
                     "--profile", "--json", str(path)]) == 0
        capsys.readouterr()
        payload = json.loads(path.read_text())
        assert all(r["sim"]["events_processed"] > 0 for r in payload["rows"])
        assert all(r["host"]["wall_seconds"] > 0 for r in payload["rows"])

    def test_sweep_without_profile_keeps_rows_clean(self, capsys, tmp_path):
        import json

        path = tmp_path / "plain-sweep.json"
        assert main(["sweep", "wait-chain", "--param", "rows=4", "--param", "cols=6",
                     "--param", "spin_ns=500", "--workers", "4",
                     "--cores", "1,2", "--json", str(path)]) == 0
        capsys.readouterr()
        payload = json.loads(path.read_text())
        assert all("sim" not in r and "host" not in r for r in payload["rows"])

    def test_telemetry_window_rejects_negative(self):
        with pytest.raises(SystemExit, match="telemetry_window"):
            main(["run", "wait-chain", "--param", "rows=3", "--param", "cols=4",
                  "--workers", "2", "--set", "telemetry_window=-5000"])
