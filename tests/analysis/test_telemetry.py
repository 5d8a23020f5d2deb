"""Windowed telemetry subsystem: sampler, schema, metrics doc, counter lanes.

Validates the four contracts of :mod:`repro.analysis.telemetry`:

* sampling is **observe-only** — the full PR 6 knob-stack machine replays
  cycle-identically with ``telemetry_window`` set, and a telemetry-off
  run carries no telemetry block at all;
* the time series is exact — window-delta reads of the cumulative
  hardware statistics, one value per signal per window, monotone sample
  times, a final partial window included;
* the versioned metrics document round-trips through JSON, validates
  against :func:`telemetry_schema`, renders, and diffs;
* the Chrome-trace **counter lanes** (``ph: "C"``) are byte-stable across
  fresh runs and sha256-pinned.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.analysis import (
    build_metrics_document,
    chrome_trace,
    diff_metrics,
    render_metrics,
    validate_metrics,
    write_chrome_trace,
    write_metrics,
)
from repro.analysis.telemetry import METRICS_SCHEMA_VERSION, TimeSeries
from repro.config import LADDER, SystemConfig
from repro.machine import run_trace
from repro.traces import wait_chain_trace

#: sha256 of the telemetry-on mini-golden Chrome trace below (2 workers,
#: 1 us windows); byte-for-byte pin of the counter-lane export.
TELEMETRY_GOLDEN_SHA256 = (
    "e6c8d76d8197ab9b1e645e8543cfb88f5319c78b070e322a8df0bcf6d18a3231"
)

WINDOW_PS = 1_000_000  # 1 us


def _mini_trace():
    return wait_chain_trace(3, 4, k_deps=2, spin_ns=500)


def _mini_config(**overrides):
    overrides.setdefault("telemetry_window", WINDOW_PS)
    return SystemConfig(workers=2, memory_contention=False, **overrides)


@pytest.fixture(scope="module")
def run():
    return run_trace(_mini_trace(), _mini_config())


@pytest.fixture(scope="module")
def telemetry(run):
    return run.telemetry


class TestSampling:
    def test_off_by_default(self):
        result = run_trace(_mini_trace(), SystemConfig(workers=2, memory_contention=False))
        assert result.telemetry is None
        assert "telemetry" not in result.stats

    def test_series_shape(self, run, telemetry):
        assert telemetry["window_ps"] == WINDOW_PS
        times = telemetry["times_ps"]
        assert times == sorted(times) and len(set(times)) == len(times)
        # Full windows land on boundaries; the final sample is the run's
        # end (a partial window unless the makespan divides evenly).
        for t in times[:-1]:
            assert t % WINDOW_PS == 0
        assert times[-1] >= run.makespan
        for name, values in telemetry["signals"].items():
            assert len(values) == len(times), name

    def test_expected_signals_present(self, telemetry):
        names = set(telemetry["signals"])
        assert {
            "workers.busy",
            "master.busy",
            "check_deps.busy",
            "ready.depth",
            "resolve.inbox.depth",
            "tds_buffer.depth",
            "dep_table.kickoff_waiters",
            "sim.events",
        } <= names
        assert not any(name.startswith("host.") for name in names)

    def test_fractions_are_fractions(self, telemetry):
        for name, values in telemetry["signals"].items():
            if name.endswith(".busy"):
                assert all(0.0 <= v <= 1.0 for v in values), name

    def test_busy_deltas_reconstruct_the_run_aggregate(self, run, telemetry):
        """Window busy fractions times window lengths must sum back to the
        cumulative worker busy time — the delta reads drop nothing."""
        times = telemetry["times_ps"]
        starts = [0] + times[:-1]
        busy_ps = sum(
            v * (t1 - t0)
            for v, t0, t1 in zip(telemetry["signals"]["workers.busy"], starts, times)
        )
        exec_ps = sum(r.exec_end - r.exec_start for r in run.records)
        assert busy_ps == pytest.approx(exec_ps / run.config.workers, rel=1e-3)

    def test_sharded_machine_registers_per_shard_signals(self):
        result = run_trace(
            _mini_trace(),
            SystemConfig(
                workers=4,
                maestro_shards=2,
                memory_contention=False,
                telemetry_window=WINDOW_PS,
            ),
        )
        names = set(result.telemetry["signals"])
        assert {
            "s0.check.busy",
            "s1.check.busy",
            "retire.inflight",
            "retire.full_fraction",
        } <= names


class TestObserveOnly:
    def test_knob_stack_digest_unchanged_with_telemetry_on(self):
        """The golden table's full-stack machine (every knob on, 4
        shards) must replay cycle-identically when sampled."""
        base = LADDER["full"].with_(workers=8, master_cores=4, td_cache_entries=16)

        def digest(result):
            rows = [
                (r.tid, r.core, r.ready, r.dispatched, r.exec_start, r.completed)
                for r in result.records
            ]
            return hashlib.sha256(repr(rows).encode()).hexdigest()

        trace = wait_chain_trace(8, 10, k_deps=3, spin_ns=800, cv=0.3, seed=5)
        plain = run_trace(trace, base)
        sampled = run_trace(trace, base.with_(telemetry_window=3_000_000))
        assert digest(plain) == digest(sampled)
        assert sampled.telemetry["times_ps"]
        # The sampled run registers the optional-subsystem signals.
        names = set(sampled.telemetry["signals"])
        assert {
            "td_cache.hit_rate",
            "resolve.kick_queues.depth",
            "check.scatter_slices.depth",
            "check.reseq_held",
        } <= names

    def test_window_size_never_changes_the_schedule(self):
        trace = _mini_trace()

        def stamps(window):
            result = run_trace(trace, _mini_config(telemetry_window=window))
            return [(r.tid, r.exec_start, r.completed) for r in result.records]

        # Odd window sizes put boundaries mid-flight everywhere.
        assert stamps(WINDOW_PS) == stamps(777_777) == stamps(10_000_000)


class TestMetricsDocument:
    def test_document_validates_and_round_trips(self, run):
        doc = build_metrics_document(run)
        assert doc["schema_version"] == METRICS_SCHEMA_VERSION
        assert validate_metrics(doc) == []
        assert json.loads(json.dumps(doc)) == doc
        assert doc["telemetry"]["signals"]["workers.busy"]
        assert "telemetry" not in doc["aggregates"]
        assert doc["config"] == dataclasses.asdict(_mini_config())

    def test_document_without_telemetry_validates(self):
        result = run_trace(
            _mini_trace(), SystemConfig(workers=2, memory_contention=False)
        )
        doc = build_metrics_document(result)
        assert doc["telemetry"] is None
        assert validate_metrics(doc) == []

    def test_validator_rejects_malformed_documents(self, run):
        doc = build_metrics_document(run)
        for mutate in (
            lambda d: d.pop("makespan_ps"),
            lambda d: d.update(schema_version=99),
            lambda d: d.update(kind="something-else"),
            lambda d: d["telemetry"].update(window_ps=0),
            lambda d: d["telemetry"]["times_ps"].reverse(),
            lambda d: d["telemetry"]["signals"]["workers.busy"].pop(),
        ):
            broken = json.loads(json.dumps(doc))
            mutate(broken)
            assert validate_metrics(broken), mutate
        assert validate_metrics([]) != []
        assert validate_metrics({"kind": "repro-metrics"}) != []

    def test_validator_rejects_another_version_by_name(self, run):
        """A version-2 document (top-level ``workers``, no ``host``) is
        refused for its version, not for the keys it lacks."""
        old = build_metrics_document(run)
        old.update(schema_version=2, workers=old["config"]["workers"])
        del old["host"]
        assert validate_metrics(old) == [
            "unsupported schema_version 2 (this reader understands 3)"
        ]

    def test_write_metrics_is_validated_and_stable(self, run, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_metrics(run, str(a))
        write_metrics(run, str(b))
        assert validate_metrics(json.loads(a.read_text())) == []
        assert a.read_bytes() == b.read_bytes()

    def test_render_and_self_diff(self, run):
        doc = build_metrics_document(run)
        text = render_metrics(doc)
        assert "workers.busy" in text and "telemetry" in text
        diff = diff_metrics(doc, doc)
        assert "+0.00%" in diff
        assert "workers.busy" in diff
        by_block = doc["aggregates"]["sim"]["events_by_block"]
        assert sum(by_block.values()) == doc["aggregates"]["sim"]["events_processed"]
        assert "events by block" in diff
        assert all(block in diff for block in by_block)

    def test_report_reads_documents_with_and_without_kernel_keys(
        self, run, tmp_path, capsys
    ):
        """A document whose ``aggregates.sim`` and ``config`` carry keys
        this reader does not know (the removed kernel knobs'
        ``kernel``/``fast_path`` and ``sim_kernel``/``fast_path``) still
        renders, and diffs against one without them."""
        from repro.cli import main

        new = build_metrics_document(run)
        old = json.loads(json.dumps(new))
        old["aggregates"]["sim"].update(kernel="wheel", fast_path=True)
        old["config"].update(sim_kernel="wheel", fast_path=True)
        assert "kernel" not in new["aggregates"]["sim"]
        assert "sim_kernel" not in new["config"]
        old_path, new_path = tmp_path / "old.json", tmp_path / "new.json"
        old_path.write_text(json.dumps(old))
        new_path.write_text(json.dumps(new))
        for path in (old_path, new_path):
            assert main(["report", str(path)]) == 0
            out = capsys.readouterr().out
            assert "host: " in out and "events/s" in out
            assert "kernel" not in out
        # The unknown keys are a difference outside ``host``: the diff
        # prints, names the sections that differ and exits 1.
        assert main(["report", str(old_path), str(new_path)]) == 1
        out = capsys.readouterr().out
        assert "modelled difference (outside host) in: aggregates, config" in out
        assert "+0.00%" in out
        assert "workers.busy" in out

    def test_diff_flags_telemetry_only_in_one(self, run):
        doc = build_metrics_document(run)
        bare = run_trace(
            _mini_trace(), SystemConfig(workers=2, memory_contention=False)
        )
        diff = diff_metrics(doc, build_metrics_document(bare))
        assert "only in one document" in diff


class TestCounterLanes:
    def test_lanes_present_and_shaped(self, run):
        doc = chrome_trace(run)
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        lanes = {e["name"] for e in counters}
        assert len(lanes) >= 4
        times = run.telemetry["times_ps"]
        for ev in counters:
            assert ev["pid"] == 3 and ev["cat"] == "telemetry"
            assert "value" in ev["args"]
        # One sample per lane per window.
        assert len(counters) == len(lanes) * len(times)
        assert doc["otherData"]["n_counter_lanes"] == len(lanes)
        assert doc["otherData"]["telemetry_window_ps"] == WINDOW_PS
        meta = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert "telemetry" in meta

    def test_no_lanes_without_telemetry(self):
        result = run_trace(
            _mini_trace(), SystemConfig(workers=2, memory_contention=False)
        )
        doc = chrome_trace(result)
        assert not [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert "n_counter_lanes" not in doc["otherData"]

    def test_telemetry_golden_replays_byte_for_byte(self, tmp_path):
        datas = []
        for i in range(2):
            result = run_trace(_mini_trace(), _mini_config())
            path = tmp_path / f"golden-{i}.json"
            write_chrome_trace(result, str(path))
            datas.append(path.read_bytes())
        assert datas[0] == datas[1]
        assert hashlib.sha256(datas[0]).hexdigest() == TELEMETRY_GOLDEN_SHA256


class TestTimeSeries:
    def test_round_trip_and_aggregates(self):
        series = TimeSeries(100)
        series.times_ps = [100, 200]
        series.signals = {"a.b": [1.0, 3.0]}
        assert series.mean("a.b") == 2.0
        assert series.max("a.b") == 3.0
        assert TimeSeries.from_dict(series.to_dict()).to_dict() == series.to_dict()

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            TimeSeries(0)
