"""Tests for the command-line interface."""

import pytest

from repro.cli import WORKLOADS, main


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
        assert main(["info", "--shards", "4", "--coalesce", "8",
                     "--spec-kickoff", "--td-cache", "32"]) == 0
        out = capsys.readouterr().out
        assert "All configuration knobs" in out
        for row in ("finish_coalesce_limit | 8", "speculative_kickoff | True",
                    "td_cache_entries | 32", "maestro_shards | 4"):
            name, _, value = row.partition(" | ")
            import re

            assert re.search(rf"{name}\s*\|\s*{value}", out), row

    def test_workloads_listing(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in WORKLOADS:
            assert name in out


class TestRun:
    def test_run_independent(self, capsys):
        rc = main(["run", "independent", "--tasks", "50", "--workers", "4",
                   "--verify", "--no-contention"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "50 tasks" in out
        assert "dependence check: OK" in out

    def test_run_gaussian_with_bottleneck(self, capsys):
        rc = main(["run", "gaussian", "--size", "24", "--workers", "2",
                   "--bottleneck"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bottleneck:" in out
        assert "dummy entries" in out

    def test_run_cholesky(self, capsys):
        rc = main(["run", "cholesky", "--tiles", "4", "--workers", "4", "--verify"])
        assert rc == 0
        assert "dependence check: OK" in capsys.readouterr().out

    def test_restricted_gaussian_fails_loudly(self):
        from repro.hw.errors import CapacityError

        with pytest.raises(CapacityError):
            main(["run", "gaussian", "--size", "24", "--workers", "2",
                  "--restricted"])

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
            main(["run", "independent", "--tasks", "10", *flags])


class TestSweep:
    def test_sweep_prints_curve(self, capsys):
        rc = main(["sweep", "independent", "--tasks", "60", "--cores", "1,2,4",
                   "--no-contention"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "saturation point" in out


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
        rc = main(["run", "random", "--tasks", "60", "--addresses", "16",
                   "--workers", "4", "--shards", "2", "--verify",
                   "--no-contention"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dependence check: OK" in out
        assert "shards 2:" in out
        assert "interconnect messages" in out

    def test_shard_sweep_writes_json(self, capsys, tmp_path):
        path = tmp_path / "shards.json"
        rc = main(["sweep", "random", "--tasks", "80", "--addresses", "16",
                   "--workers", "4", "--axis", "maestro_shards=1,2",
                   "--no-contention", "--no-prep", "--json", str(path)])
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
        rc = main(["sweep", "random", "--tasks", "60", "--addresses", "16",
                   "--shards", "2", "--cores", "1,2", "--no-contention"])
        assert rc == 0
        assert "saturation point" in capsys.readouterr().out

    def test_info_shows_shard_geometry(self, capsys):
        assert main(["info", "--workers", "8"]) == 0
        out = capsys.readouterr().out
        assert "Maestro shards" not in out  # paper table stays paper-shaped


class TestSubmissionFrontendCli:
    def test_run_with_masters_and_batch(self, capsys):
        rc = main(["run", "random", "--tasks", "60", "--addresses", "16",
                   "--workers", "4", "--shards", "2", "--masters", "2",
                   "--batch", "4", "--verify", "--no-contention"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dependence check: OK" in out
        assert "front-end: 2 masters x batch 4" in out

    def test_master_sweep_writes_json(self, capsys, tmp_path):
        path = tmp_path / "masters.json"
        rc = main(["sweep", "random", "--tasks", "80", "--addresses", "16",
                   "--workers", "4", "--shards", "2",
                   "--axis", "master_cores=1,2", "--axis", "submission_batch=1,4",
                   "--no-contention", "--json", str(path)])
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
        "argv",
        [
            ["sweep", "random", "--masters", "1,2", "--shards", "x"],
            ["sweep", "wait-chain", "--efficiency", "--shards", "x"],
            ["sweep", "random", "--shards", "1,2"],
            ["sweep", "random", "--batch", "1,4"],
        ],
        ids=["masters-list-bad-shards", "efficiency-bad-shards", "shard-list",
             "batch-list"],
    )
    def test_sweep_shape_flags_are_single_ints(self, argv):
        """Malformed or comma-list shape flags are argparse usage errors
        (exit 2), not ValueError tracebacks from a bare int()."""
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--tasks", "40"])
        assert exc.value.code == 2

    def test_info_shows_frontend_geometry(self, capsys):
        assert main(["info", "--masters", "2", "--batch", "4"]) == 0
        out = capsys.readouterr().out
        assert "Master cores" in out
        assert "Submission batch" in out


class TestRetirePipelineCli:
    def test_run_with_retire_depth(self, capsys):
        rc = main(["run", "random", "--tasks", "60", "--addresses", "16",
                   "--workers", "4", "--shards", "2", "--masters", "2",
                   "--retire-depth", "4", "--verify", "--no-contention"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dependence check: OK" in out
        assert "retire pipeline: depth 4" in out

    def test_retire_sweep_writes_json(self, capsys, tmp_path):
        path = tmp_path / "retire.json"
        rc = main(["sweep", "random", "--tasks", "80", "--addresses", "16",
                   "--workers", "4", "--shards", "2", "--masters", "2",
                   "--axis", "retire_pipeline_depth=1,4", "--no-contention",
                   "--json", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "retire_pipeline_depth" in out
        import json

        data = json.loads(path.read_text())
        assert data["fixed"]["maestro_shards"] == 2
        assert data["baseline"] == {"retire_pipeline_depth": 1}
        assert [r["retire_pipeline_depth"] for r in data["rows"]] == [1, 4]
        assert [r["task_pool_ports"] for r in data["rows"]] == [1, 4]
        assert data["rows"][0]["speedup_vs_baseline"] == 1.0

    def test_retire_sweep_rejects_single_maestro(self):
        # --shards 1 (or none) is a usage error, not a raw traceback.
        with pytest.raises(SystemExit, match="requires the sharded Maestro"):
            main(["sweep", "random", "--tasks", "40",
                  "--axis", "retire_pipeline_depth=1,2", "--shards", "1"])
        with pytest.raises(SystemExit, match="requires the sharded Maestro"):
            main(["sweep", "random", "--tasks", "40",
                  "--axis", "retire_pipeline_depth=1,2"])

    def test_shard_sweep_accepts_single_retire_depth(self, capsys):
        """A shard sweep with a fixed pipelined depth applies it everywhere
        (regression: the base config used to validate at 1 shard and die)."""
        rc = main(["sweep", "random", "--tasks", "60", "--addresses", "16",
                   "--workers", "4", "--axis", "maestro_shards=2,4",
                   "--retire-depth", "2", "--no-contention"])
        assert rc == 0
        assert "speedup vs" in capsys.readouterr().out

    @pytest.mark.parametrize("shards", ["1,2", "2,1"])
    def test_shard_sweep_rejects_depth_on_single_maestro_point(self, shards):
        with pytest.raises(SystemExit, match="requires the sharded Maestro"):
            main(["sweep", "random", "--tasks", "40",
                  "--axis", f"maestro_shards={shards}", "--retire-depth", "2"])

    def test_run_retire_depth_without_shards_is_usage_error(self):
        with pytest.raises(SystemExit):
            main(["run", "random", "--tasks", "40", "--retire-depth", "4"])

    def test_info_shows_retire_geometry(self, capsys):
        assert main(["info", "--shards", "4", "--retire-depth", "4"]) == 0
        out = capsys.readouterr().out
        assert "Retire pipeline depth" in out

    def test_run_with_fast_dispatch(self, capsys):
        rc = main(["run", "random", "--tasks", "60", "--addresses", "16",
                   "--workers", "4", "--shards", "2", "--td-cache", "16",
                   "--fast-path", "--prefetch-depth", "2", "--verify",
                   "--no-contention"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dependence check: OK" in out
        assert "fast dispatch: TD cache" in out
        assert "critical chain" in out

    def test_dispatch_sweep_writes_json(self, capsys, tmp_path):
        path = tmp_path / "dispatch.json"
        rc = main(["sweep", "random", "--tasks", "80", "--addresses", "16",
                   "--workers", "4", "--shards", "2",
                   "--axis", "kickoff_fast_path=off,on",
                   "--axis", "td_cache_entries=0,16", "--no-contention",
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
        for shards in ([], ["--shards", "1"]):
            with pytest.raises(SystemExit, match="requires the sharded Maestro"):
                main(["sweep", "random", "--tasks", "40",
                      "--axis", "td_cache_entries=0,16", *shards])

    def test_run_fast_dispatch_without_shards_is_usage_error(self):
        with pytest.raises(SystemExit):
            main(["run", "random", "--tasks", "40", "--td-cache", "16"])
        with pytest.raises(SystemExit):
            main(["run", "random", "--tasks", "40", "--fast-path"])

    def test_info_shows_dispatch_geometry(self, capsys):
        assert main(["info", "--shards", "4", "--td-cache", "64",
                     "--fast-path"]) == 0
        out = capsys.readouterr().out
        assert "TD prefetch cache" in out
        assert "Kick-off fast path" in out
        assert "Steal policy" in out
        assert "Task Pool ports" in out

    def test_run_with_resolve_pipeline(self, capsys):
        rc = main(["run", "random", "--tasks", "60", "--addresses", "16",
                   "--workers", "4", "--shards", "2", "--coalesce", "4",
                   "--spec-kickoff", "--verify", "--no-contention"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dependence check: OK" in out
        assert "resolve pipeline: coalesce 4" in out
        assert "speculative kicks" in out

    def test_resolve_sweep_writes_json(self, capsys, tmp_path):
        path = tmp_path / "resolve.json"
        rc = main(["sweep", "random", "--tasks", "80", "--addresses", "16",
                   "--workers", "4", "--shards", "2",
                   "--axis", "speculative_kickoff=off,on",
                   "--axis", "finish_coalesce_limit=1,4",
                   "--no-contention", "--json", str(path)])
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

    def test_resolve_sweep_rejects_window_at_limit_one(self):
        """A coalesce window is not zeroed at limit-1 grid points: the
        config's own window-needs-limit validation rejects the grid."""
        with pytest.raises(SystemExit, match="finish_coalesce_limit > 1"):
            main(["sweep", "random", "--tasks", "40", "--shards", "2",
                  "--axis", "finish_coalesce_limit=1,4",
                  "--coalesce-window", "2"])

    def test_run_coalesce_window_without_limit_is_usage_error(self):
        with pytest.raises(SystemExit):
            main(["run", "random", "--tasks", "40", "--workers", "4",
                  "--coalesce-window", "2"])

    def test_info_shows_resolve_geometry(self, capsys):
        assert main(["info", "--shards", "4", "--coalesce", "8",
                     "--coalesce-window", "2", "--spec-kickoff"]) == 0
        out = capsys.readouterr().out
        assert "Finish coalesce limit" in out
        assert "Finish coalesce window" in out
        assert "Speculative kick-off" in out

    def test_malformed_retire_depth_is_usage_error(self):
        with pytest.raises(SystemExit):
            main(["sweep", "random", "--tasks", "20", "--shards", "2,4",
                  "--retire-depth", "two"])
        with pytest.raises(SystemExit):
            main(["sweep", "random", "--tasks", "20", "--shards", "x",
                  "--retire-depth", "1,2"])


class TestSweepAxisParsing:
    @pytest.mark.parametrize(
        "axis, message",
        [
            ("kickoff_fast_path=yes", "kickoff_fast_path: cannot read 'yes'"),
            ("maestro_shards=2,x", "maestro_shards: cannot read 'x' as int"),
            ("task_pool_ports=auto", "task_pool_ports: cannot read 'auto'"),
            ("shards=1,2", "unknown SystemConfig knob 'shards'"),
            ("maestro_shards", "expected maestro_shards=v1,v2"),
        ],
        ids=["bad-bool", "non-int", "bad-optional", "unknown-knob", "no-values"],
    )
    def test_bad_axis_is_usage_error(self, axis, message):
        with pytest.raises(SystemExit, match=message):
            main(["sweep", "random", "--tasks", "40", "--axis", axis])

    def test_repeated_knob_rejected(self):
        with pytest.raises(SystemExit, match="given twice"):
            main(["sweep", "random", "--tasks", "40", "--axis", "workers=1",
                  "--axis", "workers=2"])

    def test_axis_values_follow_the_field_type(self, capsys, tmp_path):
        import json

        path = tmp_path / "grid.json"
        assert main(["sweep", "random", "--tasks", "40", "--addresses", "16",
                     "--workers", "4", "--shards", "2", "--retire-depth", "2",
                     "--axis", "task_pool_ports=none,1",
                     "--axis", "locality_stealing=False,true",
                     "--no-contention", "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "none" in out and "off" in out and "on" in out
        data = json.loads(path.read_text())
        assert data["axes"] == {
            "task_pool_ports": [None, 1], "locality_stealing": [False, True]
        }
        # A column named like a swept knob keeps the knob's value.
        assert [r["task_pool_ports"] for r in data["rows"]] == [None, None, 1, 1]

    @pytest.mark.parametrize("flag", ["--dispatch", "--resolve", "--check"])
    def test_removed_grid_flags_rejected(self, flag):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "random", "--tasks", "40", "--shards", "2", flag])
        assert exc.value.code == 2


class TestEfficiencyAndExport:
    def test_run_wait_chain(self, capsys):
        assert main(["run", "wait-chain", "--rows", "4", "--cols", "6",
                     "--deps", "2", "--spin-ns", "500", "--workers", "4",
                     "--verify"]) == 0
        out = capsys.readouterr().out
        assert "wait-chain-4x6-k2-500ns" in out
        assert "dependence check: OK" in out

    def test_run_spatial(self, capsys):
        assert main(["run", "spatial", "--grid", "3", "--steps", "2",
                     "--dims", "3", "--workers", "4", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "spatial-3d-3^3x2" in out
        assert "dependence check: OK" in out

    def test_run_trace_out_writes_chrome_trace(self, capsys, tmp_path):
        import json

        path = tmp_path / "run.trace.json"
        assert main(["run", "wait-chain", "--rows", "3", "--cols", "4",
                     "--spin-ns", "400", "--workers", "2",
                     "--trace-out", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"chrome trace written to {path}" in out
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]
        assert doc["otherData"]["n_tasks"] == 12

    def test_run_rejects_spin_list(self):
        with pytest.raises(SystemExit, match="single positive integer"):
            main(["run", "wait-chain", "--spin-ns", "250,1000",
                  "--workers", "2"])

    def test_efficiency_sweep_writes_json(self, capsys, tmp_path):
        import json

        path = tmp_path / "eff.json"
        assert main(["sweep", "wait-chain", "--efficiency",
                     "--rows", "6", "--cols", "8",
                     "--spin-ns", "500,8000", "--workers", "4",
                     "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "hw eff" in out and "sw eff" in out
        assert "parallel efficiency vs granularity" in out
        payload = json.loads(path.read_text())
        assert [r["spin_ns"] for r in payload["rows"]] == [500, 8000]
        assert all(r["efficiency_ratio"] > 1.0 for r in payload["rows"])

    def test_efficiency_sweep_requires_wait_chain(self):
        with pytest.raises(SystemExit, match="wait-chain"):
            main(["sweep", "random", "--tasks", "40", "--efficiency"])

    def test_efficiency_conflicts_with_axis(self):
        with pytest.raises(SystemExit, match="different sweep grids"):
            main(["sweep", "wait-chain", "--efficiency", "--shards", "2",
                  "--axis", "speculative_kickoff=off,on"])


class TestTelemetryCli:
    ARGS = ["run", "wait-chain", "--rows", "4", "--cols", "6",
            "--spin-ns", "500", "--workers", "4",
            "--telemetry-window", "2000"]

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
        assert doc["schema_version"] == 1
        assert doc["telemetry"]["signals"]["workers.busy"]

        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "workers.busy" in out

        assert main(["report", str(path), str(path)]) == 0
        out = capsys.readouterr().out
        assert "+0.00%" in out

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
        assert main(["run", "wait-chain", "--rows", "3", "--cols", "4",
                     "--workers", "2", "--metrics-out", str(path)]) == 0
        capsys.readouterr()
        doc = json.loads(path.read_text())
        assert doc["telemetry"] is None
        assert main(["report", str(path)]) == 0
        assert "telemetry: off" in capsys.readouterr().out

    def test_sweep_profile_attaches_kernel_stats(self, capsys, tmp_path):
        import json

        path = tmp_path / "sweep.json"
        assert main(["sweep", "wait-chain", "--rows", "4", "--cols", "6",
                     "--spin-ns", "500", "--workers", "4",
                     "--cores", "1,2", "--profile",
                     "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "kernel profile: 2 runs" in out
        payload = json.loads(path.read_text())
        for row in payload["rows"]:
            assert row["sim"]["events_processed"] > 0
            assert "wall_seconds" in row["sim"]

    def test_shard_sweep_profile_attaches_kernel_stats(self, capsys, tmp_path):
        import json

        path = tmp_path / "shards.json"
        assert main(["sweep", "random", "--tasks", "120", "--workers", "4",
                     "--axis", "maestro_shards=1,2", "--no-contention",
                     "--profile", "--json", str(path)]) == 0
        capsys.readouterr()
        payload = json.loads(path.read_text())
        assert all(r["sim"]["events_processed"] > 0 for r in payload["rows"])

    def test_sweep_without_profile_keeps_rows_clean(self, capsys, tmp_path):
        import json

        path = tmp_path / "plain-sweep.json"
        assert main(["sweep", "wait-chain", "--rows", "4", "--cols", "6",
                     "--spin-ns", "500", "--workers", "4",
                     "--cores", "1,2", "--json", str(path)]) == 0
        capsys.readouterr()
        payload = json.loads(path.read_text())
        assert all("sim" not in r for r in payload["rows"])

    def test_telemetry_window_rejects_negative(self):
        with pytest.raises(SystemExit, match="telemetry_window"):
            main(["run", "wait-chain", "--rows", "3", "--cols", "4",
                  "--workers", "2", "--telemetry-window", "-5"])
