"""Chrome trace-event export: schema, flow pairing, goldens, observe-only.

Validates the three contracts of :mod:`repro.analysis.trace_export`:

* the document conforms to the trace-event schema chrome://tracing and
  Perfetto parse (``ph``/``ts``/``pid``/``tid`` on every event, ``dur``
  on duration events, ``s``/``f`` flow pairs bound by ``id``);
* the exported events are a faithful image of the run — one ``task``
  slice per retired task, and the flow-event set is exactly the
  scoreboard's ``released_by`` dependence edges;
* exporting is observe-only — byte-stable for a given run and incapable
  of perturbing a schedule (the golden table's full-stack machine
  replays cycle-identically with export enabled).
"""

import hashlib
import json

import pytest

from repro.analysis import chrome_trace, write_chrome_trace
from repro.config import LADDER, SystemConfig
from repro.machine import run_trace
from repro.traces import wait_chain_trace

#: sha256 of the serialized mini-golden export below; byte-for-byte pin.
GOLDEN_SHA256 = "ea0d11a3c46294426059e079ae5e815bab8b0be313afbcb6082898ef10906b5b"


def _mini_trace():
    return wait_chain_trace(3, 4, k_deps=2, spin_ns=500)


def _mini_config():
    return SystemConfig(workers=2, memory_contention=False)


@pytest.fixture(scope="module")
def run():
    return run_trace(_mini_trace(), _mini_config())


@pytest.fixture(scope="module")
def doc(run):
    return chrome_trace(run)


class TestSchema:
    def test_document_shape(self, doc):
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]

    def test_every_event_carries_the_required_fields(self, doc):
        for ev in doc["traceEvents"]:
            assert ev["ph"] in ("M", "X", "b", "e", "s", "f"), ev
            assert isinstance(ev["pid"], int) and isinstance(ev["tid"], int)
            assert "name" in ev
            if ev["ph"] != "M":
                assert isinstance(ev["ts"], (int, float)) and ev["ts"] >= 0
            if ev["ph"] == "X":
                assert ev["dur"] >= 0

    def test_timestamps_are_microseconds(self, run, doc):
        # The latest event timestamp equals the makespan in us.
        latest = max(
            e["ts"] + e.get("dur", 0)
            for e in doc["traceEvents"]
            if e["ph"] != "M"
        )
        last_writeback = max(r.writeback_end for r in run.records)
        assert latest == pytest.approx(last_writeback / 1e6)

    def test_metadata_names_processes_and_threads(self, doc):
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta if e["name"] == "process_name"}
        assert names == {"worker cores", "task maestro"}
        threads = {e["args"]["name"] for e in meta if e["name"] == "thread_name"}
        assert "maestro" in threads
        assert any(t.startswith("worker ") for t in threads)

    def test_async_shard_spans_pair_up(self, doc):
        begins = {e["id"] for e in doc["traceEvents"] if e["ph"] == "b"}
        ends = {e["id"] for e in doc["traceEvents"] if e["ph"] == "e"}
        assert begins == ends


class TestFaithfulness:
    def test_task_slice_count_matches_retired_tasks(self, run, doc):
        slices = [e for e in doc["traceEvents"] if e.get("cat") == "task"]
        assert len(slices) == run.n_tasks
        assert {e["args"]["tid"] for e in slices} == set(range(run.n_tasks))
        assert doc["otherData"]["n_tasks"] == run.n_tasks

    def test_task_slices_sit_on_their_worker_lane(self, run, doc):
        by_tid = {e["args"]["tid"]: e for e in doc["traceEvents"] if e.get("cat") == "task"}
        for r in run.records:
            ev = by_tid[r.tid]
            assert ev["tid"] == r.core
            assert ev["ts"] == pytest.approx(r.fetch_start / 1e6)
            assert ev["dur"] == pytest.approx(
                (r.writeback_end - r.fetch_start) / 1e6
            )

    def test_flow_events_are_exactly_the_released_by_edges(self, run, doc):
        edges = {
            r.tid: r.released_by for r in run.records if r.released_by >= 0
        }
        assert edges, "mini golden must exercise dependence releases"
        starts = {e["id"]: e for e in doc["traceEvents"] if e["ph"] == "s"}
        finishes = {e["id"]: e for e in doc["traceEvents"] if e["ph"] == "f"}
        # One s/f pair per released task, keyed by the released tid.
        assert set(starts) == set(edges)
        assert set(finishes) == set(edges)
        assert doc["otherData"]["n_dependence_flows"] == len(edges)
        records = {r.tid: r for r in run.records}
        for tid, released_by in edges.items():
            pred, succ = records[released_by], records[tid]
            assert starts[tid]["tid"] == pred.core
            assert starts[tid]["ts"] == pytest.approx(pred.writeback_end / 1e6)
            assert finishes[tid]["bp"] == "e"
            assert finishes[tid]["tid"] == succ.core
            assert finishes[tid]["ts"] == pytest.approx(succ.fetch_start / 1e6)

    def test_sharded_run_uses_home_shard_lanes(self):
        result = run_trace(
            _mini_trace(),
            SystemConfig(workers=4, maestro_shards=2, memory_contention=False),
        )
        doc = chrome_trace(result)
        for ev in doc["traceEvents"]:
            if ev["ph"] == "b":
                assert ev["tid"] == ev["id"] % 2  # home shard = tid % shards
        threads = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert {"shard 0", "shard 1"} <= threads

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_shard_lanes_follow_the_run_config(self, shards):
        """The export reads the shard count from the machine the run
        carries: one Maestro lane per shard, and the count in
        ``otherData``."""
        cfg = SystemConfig(
            workers=4, maestro_shards=shards, memory_contention=False
        )
        doc = chrome_trace(run_trace(_mini_trace(), cfg))
        assert doc["otherData"]["maestro_shards"] == shards
        threads = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        expected = (
            {f"shard {s}" for s in range(shards)} if shards > 1 else {"maestro"}
        )
        assert {n for n in threads if n.startswith(("shard", "maestro"))} == expected

    def test_software_runtime_run_draws_one_resolve_lane(self):
        """The software runtime has no Maestro: its export draws one
        resolve lane whatever Maestro fields its config carries."""
        from repro.runtime import run_software_rts
        from repro.traces import workload

        result = run_software_rts(
            workload("wait-chain", rows=4, cols=4), LADDER["sharded"]
        )
        assert result.config.maestro_shards == 4
        doc = chrome_trace(result)
        assert doc["otherData"]["maestro_shards"] == 1
        lanes = [
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name" and e["pid"] == 2
        ]
        assert lanes == ["maestro"]
        assert {e["tid"] for e in doc["traceEvents"] if e["ph"] == "b"} == {0}


class TestGolden:
    def test_mini_golden_replays_byte_for_byte(self, tmp_path):
        paths = []
        for i in range(2):
            result = run_trace(_mini_trace(), _mini_config())
            path = tmp_path / f"golden-{i}.json"
            write_chrome_trace(result, str(path))
            paths.append(path)
        first, second = (p.read_bytes() for p in paths)
        assert first == second
        assert hashlib.sha256(first).hexdigest() == GOLDEN_SHA256
        # And the serialized bytes parse back to the in-memory document.
        assert json.loads(first) == chrome_trace(
            run_trace(_mini_trace(), _mini_config())
        )


class TestObserveOnly:
    def test_export_never_perturbs_the_schedule(self, tmp_path):
        """The golden table's full-stack machine (every knob on, 4
        shards) must replay cycle-identically with export enabled."""
        cfg = LADDER["full"].with_(workers=8, master_cores=4, td_cache_entries=16)

        def digest(result):
            rows = [
                (r.tid, r.core, r.ready, r.dispatched, r.exec_start, r.completed)
                for r in result.records
            ]
            return hashlib.sha256(repr(rows).encode()).hexdigest()

        trace = wait_chain_trace(8, 10, k_deps=3, spin_ns=800, cv=0.3, seed=5)
        plain = run_trace(trace, cfg)
        baseline = digest(plain)

        exported = run_trace(trace, cfg)
        before = digest(exported)
        write_chrome_trace(exported, str(tmp_path / "export.json"))
        assert digest(exported) == before, "export mutated the records"
        assert baseline == before

        # And a fresh run after an export still replays the schedule.
        assert digest(run_trace(trace, cfg)) == baseline

    def test_cli_trace_out_output_is_identical_modulo_export_line(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        argv = ["run", "wait-chain", "--param", "rows=4", "--param", "cols=6",
                "--param", "spin_ns=500", "--workers", "4", "--verify"]
        assert main(argv) == 0
        plain = capsys.readouterr().out

        out_path = tmp_path / "cli.trace.json"
        assert main(argv + ["--trace-out", str(out_path)]) == 0
        with_export = capsys.readouterr().out

        export_lines = [
            line
            for line in with_export.splitlines()
            if line.startswith("chrome trace written to ")
        ]
        assert len(export_lines) == 1
        rest = "\n".join(
            line
            for line in with_export.splitlines()
            if not line.startswith("chrome trace written to ")
        )
        assert rest == plain.rstrip("\n")
        # The written file is a loadable trace-event document.
        doc = json.loads(out_path.read_text())
        assert doc["traceEvents"]
