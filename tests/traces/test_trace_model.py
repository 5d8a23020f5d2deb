"""Tests for the trace data model and serialization."""

import gc
import hashlib
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def row_digest(trace):
    """sha256 over every row ``(tid, func, params, exec, read, write)``."""
    h = hashlib.sha256()
    for t in trace:
        h.update(repr((
            t.tid, t.func,
            tuple((p.addr, p.size, int(p.mode)) for p in t.params),
            t.exec_time, t.read_time, t.write_time,
        )).encode())
    return h.hexdigest()


#: Row digests recorded on the object-per-task trace the columns replaced:
#: every generator, including both ``random_trace`` paths (per task below
#: 8192 tasks, chunked above), must write exactly the same rows.
TRACE_GOLDENS = [
    ("gaussian_trace(30)", 464,
     "82274360d8c00c60892d51afa97396e145c4ec59b0691b3bb15c92b893ea362c"),
    ("random_trace(3000, 16, 6, seed=1)", 3000,
     "829b5e55fa038854f129b3d34a5d54bb8b4ef7ee2671889970b849daacaab0c1"),
    ("random_trace(9000, 1024, 4, seed=5)", 9000,
     "3eebd22d65a013e8f1c65673b14c4e7ffaeb0f379e811977c7ccd9e477c3f7bb"),
    ("wait_chain_trace(4, 50, spin_ns=250)", 200,
     "fe3bbf8416b4e27b420eaffac97e4e391acc381f479cd4dc935099b6b5864029"),
    ("h264_wavefront_trace()", 8160,
     "853be015bce3089bd2ff27243191f251b7586499ecb8358620c4320af68d9d13"),
]


@pytest.mark.parametrize("expr, n_tasks, digest", TRACE_GOLDENS,
                         ids=[g[0] for g in TRACE_GOLDENS])
def test_trace_golden_digests(expr, n_tasks, digest):
    from repro import traces

    trace = eval(expr, vars(traces))
    assert len(trace) == n_tasks
    assert row_digest(trace) == digest


def test_trace_retains_at_most_160_bytes_per_task():
    """Columns, not an object per task and per parameter: eight bytes per
    task field and offset, 17 per parameter (the object trace kept 615)."""
    from repro.traces import gaussian_trace

    tracemalloc.start()
    try:
        trace = gaussian_trace(100)
        n_tasks, n_params = len(trace), len(trace.param_addr)
        gc.collect()
        with_trace = tracemalloc.get_traced_memory()[0]
        del trace
        gc.collect()
        retained = with_trace - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 40 * n_tasks + 17 * n_params <= retained <= 160 * n_tasks


class TestColumns:
    def test_rows_read_back_hand_built_tasks(self):
        tasks = [make_task(0, n_params=1), make_task(1, n_params=4)]
        trace = TaskTrace("rows", tasks)
        assert list(trace) == tasks and trace.tasks == tasks
        assert trace[1] == tasks[1] and trace[-1] == tasks[1]
        assert trace.params_of(1) == tasks[1].params
        assert trace.n_params_of(1) == 4
        assert list(trace.param_offsets) == [0, 1, 5]

    def test_hot_path_reads_are_python_ints(self):
        from repro.traces import gaussian_trace, random_trace

        for trace in (gaussian_trace(6), random_trace(9000, 64, 4, seed=2)):
            tid = len(trace) - 1
            for column in (trace.func, trace.exec_time, trace.read_time,
                           trace.write_time, trace.param_addr,
                           trace.param_size, trace.param_mode):
                assert type(column[0]) is int
            assert type(trace.n_params_of(tid)) is int
            assert all(type(v) is int for p in trace.params_of(tid) for v in p[:2])

    def test_from_columns_rejects_what_rows_reject(self):
        good = dict(func=[1, 1], exec_time=[5, 5], read_time=[0, 0],
                    write_time=[0, 0], param_offsets=[0, 1, 2],
                    param_addr=[0x10, 0x20], param_size=[8, 8], param_mode=[0, 1])
        assert len(TaskTrace.from_columns("ok", **good)) == 2
        cases = [
            (dict(param_offsets=[0, 2, 2]), "task 1: needs at least one parameter"),
            (dict(exec_time=[5, -1]), "task 1: negative duration"),
            (dict(param_size=[8, 0]), "parameter size must be positive"),
            (dict(param_mode=[0, 3]), "unknown access mode"),
            (dict(func=[1]), "column lengths disagree"),
        ]
        for change, message in cases:
            with pytest.raises(ValueError, match=message):
                TaskTrace.from_columns("bad", **{**good, **change})


# ---- whole-column validation: the first bad index wins ----------------------------


@st.composite
def one_bad_column(draw):
    """Good one-parameter-per-task columns (wide values, so every byte of
    an element varies) with a bad value written at a first index above 1
    and another at a later index.  Returns the columns and the message
    the first bad index must give."""
    n = draw(st.integers(4, 40))
    first = draw(st.integers(2, n - 2))
    later = draw(st.integers(first + 1, n - 1))
    key = draw(st.sampled_from(["param_offsets", "exec_time", "read_time",
                                "write_time", "param_size", "param_mode"]))
    wide = st.integers(0, 2**62)
    cols = {k: draw(st.lists(wide, min_size=n, max_size=n))
            for k in ("exec_time", "read_time", "write_time")}
    cols["func"] = [7] * n
    counts = [1] * n
    if key == "param_offsets":
        counts[first] = counts[later] = 0
        message = f"task {first}: needs at least one parameter"
    elif key in cols:
        below = st.integers(-(2**62), -1)
        cols[key][first], cols[key][later] = draw(below), draw(below)
        message = f"task {first}: negative duration"
    n_params = sum(counts)
    cols["param_offsets"] = [0]
    for c in counts:
        cols["param_offsets"].append(cols["param_offsets"][-1] + c)
    cols.update(param_addr=list(range(n_params)),
                param_size=draw(st.lists(st.integers(1, 2**62),
                                         min_size=n_params, max_size=n_params)),
                param_mode=draw(st.lists(st.integers(0, 2),
                                         min_size=n_params, max_size=n_params)))
    if key in ("param_size", "param_mode"):
        bad = (st.integers(-(2**62), 0) if key == "param_size"
               else st.integers(-128, -1) | st.integers(3, 127))
        value = draw(bad)
        cols[key][first], cols[key][later] = value, draw(bad)
        message = (f"parameter size must be positive, got {value}"
                   if key == "param_size" else f"unknown access mode {value}")
    return cols, message


@settings(max_examples=120, deadline=None)
@given(one_bad_column())
def test_validate_names_the_first_bad_index(case):
    columns, message = case
    with pytest.raises(ValueError) as err:
        TaskTrace.from_columns("bad", **columns)
    assert str(err.value) == message


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 8), min_size=0, max_size=30), st.integers(1, 4))
def test_max_params_sees_the_last_task(widths, extra):
    """The widest task last: an off-by-one over the offsets would miss it."""
    widths = widths + [max(widths, default=0) + extra]
    trace = TaskTrace("wide", [make_task(tid, n_params=w)
                               for tid, w in enumerate(widths)])
    assert trace.max_params == widths[-1]
