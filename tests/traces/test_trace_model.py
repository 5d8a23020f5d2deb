"""Tests for the trace data model and serialization."""

import pytest

from repro.traces import AccessMode, Param, TaskTrace, TraceTask


def make_task(tid=0, n_params=2, exec_time=100):
    params = tuple(
        Param(0x1000 + i * 64, 64, AccessMode.IN if i else AccessMode.INOUT)
        for i in range(n_params)
    )
    return TraceTask(tid, 0xAB, params, exec_time, 50, 25)


class TestAccessMode:
    def test_reads_writes(self):
        assert AccessMode.IN.reads and not AccessMode.IN.writes
        assert AccessMode.OUT.writes and not AccessMode.OUT.reads
        assert AccessMode.INOUT.reads and AccessMode.INOUT.writes

    def test_parse(self):
        assert AccessMode.parse("in") == AccessMode.IN
        assert AccessMode.parse(" INOUT ") == AccessMode.INOUT
        with pytest.raises(ValueError):
            AccessMode.parse("sideways")


class TestParam:
    def test_str_format_matches_paper_table(self):
        p = Param(0x1A, 4, AccessMode.IN)
        assert str(p) == "0x1a/4/in"

    def test_negative_addr_rejected(self):
        with pytest.raises(ValueError):
            Param(-1, 4, AccessMode.IN)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            Param(0x10, 0, AccessMode.IN)


class TestTraceTask:
    def test_properties(self):
        t = make_task(n_params=3)
        assert t.n_params == 3
        assert t.memory_time == 75
        assert len(list(t.reads())) == 3  # inout reads too
        assert len(list(t.writes())) == 1

    def test_needs_params(self):
        with pytest.raises(ValueError):
            TraceTask(0, 0, (), 10)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            TraceTask(0, 0, (Param(0, 4, AccessMode.IN),), -5)


class TestTaskTrace:
    def test_tids_must_match_positions(self):
        with pytest.raises(ValueError, match="tids must equal serial position"):
            TaskTrace("bad", [make_task(tid=5)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            TaskTrace("empty", [])

    def test_statistics(self):
        trace = TaskTrace("t", [make_task(0), make_task(1)])
        assert len(trace) == 2
        assert trace.total_exec_time == 200
        assert trace.mean_exec_time == 100
        assert trace.mean_memory_time == 75
        assert trace.max_params == 2
        assert "2 tasks" in trace.describe()

    def test_roundtrip_serialization(self, tmp_path):
        trace = TaskTrace(
            "roundtrip",
            [make_task(0, n_params=1), make_task(1, n_params=4), make_task(2)],
            meta={"pattern": "test", "n": 3},
        )
        path = str(tmp_path / "trace.npz")
        trace.save(path)
        loaded = TaskTrace.load(path)
        assert loaded.name == "roundtrip"
        assert loaded.meta == {"pattern": "test", "n": 3}
        assert len(loaded) == 3
        for orig, back in zip(trace, loaded):
            assert orig == back

    def test_load_reads_each_array_once(self, tmp_path, monkeypatch):
        """A chunked-generator-sized trace round-trips, and ``load`` reads
        every stored array at most once (``NpzFile`` decompresses a member
        on each item access, so per-task indexing is quadratic)."""
        from collections import Counter

        from numpy.lib.npyio import NpzFile

        from repro.traces import random_trace

        trace = random_trace(8192 + 300, n_addresses=64, max_params=5, seed=4)
        path = str(tmp_path / "big.npz")
        trace.save(path)

        reads = Counter()
        getitem = NpzFile.__getitem__

        def counting_getitem(self, key):
            reads[key] += 1
            return getitem(self, key)

        monkeypatch.setattr(NpzFile, "__getitem__", counting_getitem)
        loaded = TaskTrace.load(path)

        assert loaded.name == trace.name
        assert loaded.meta == trace.meta
        assert loaded.tasks == trace.tasks
        assert reads and max(reads.values()) == 1, reads
