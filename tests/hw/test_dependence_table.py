"""Unit tests for the Dependence Table: Listing 2, Kick-Off Lists, dummies.

The properties at the end replay random traces through one table
synchronously and check it against the golden dependence graph.
"""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import traces

from repro.hw.dependence_table import (
    DependenceTable,
    kickoff_entries_needed,
)
from repro.hw.errors import CapacityError, ProtocolError
from repro.runtime.task_graph import build_task_graph

A, B = 0x1000, 0x2000


def dt(entries=64, kick=8, **kw):
    return DependenceTable(entries, kick, **kw)


def check(table, tid, addr, mode):
    reads = mode in ("in", "inout")
    writes = mode in ("out", "inout")
    blocked, _ = table.check_param(tid, addr, 64, reads, writes)
    return blocked


def finish(table, tid, addr, mode):
    reads = mode in ("in", "inout")
    writes = mode in ("out", "inout")
    granted, _ = table.finish_param(tid, addr, reads, writes)
    return granted


class TestKickoffEntriesNeeded:
    @pytest.mark.parametrize(
        "waiters,expected",
        [(0, 1), (1, 1), (8, 1), (9, 2), (15, 2), (16, 3), (22, 3), (23, 4)],
    )
    def test_spans(self, waiters, expected):
        assert kickoff_entries_needed(waiters, 8) == expected


class TestListing2NewTasks:
    def test_first_reader_inserts_and_runs(self):
        t = dt()
        assert not check(t, 0, A, "in")
        e = t.entry_for(A)
        assert e.readers == 1 and not e.is_out

    def test_first_writer_inserts_and_runs(self):
        t = dt()
        assert not check(t, 0, A, "out")
        e = t.entry_for(A)
        assert e.is_out and e.readers == 0

    def test_concurrent_readers_share(self):
        t = dt()
        assert not check(t, 0, A, "in")
        assert not check(t, 1, A, "in")
        assert t.entry_for(A).readers == 2

    def test_raw_blocks_reader(self):
        t = dt()
        check(t, 0, A, "out")
        assert check(t, 1, A, "in")  # blocked behind the writer
        assert [w.tid for w in t.entry_for(A).kick] == [1]

    def test_waw_blocks_writer(self):
        t = dt()
        check(t, 0, A, "out")
        assert check(t, 1, A, "out")
        e = t.entry_for(A)
        assert e.is_out and not e.writer_waits  # ww is for writer-behind-readers

    def test_war_sets_writer_waits(self):
        t = dt()
        check(t, 0, A, "in")
        assert check(t, 1, A, "out")
        e = t.entry_for(A)
        assert e.writer_waits and not e.is_out
        assert e.readers == 1

    def test_reader_does_not_bypass_waiting_writer(self):
        # T0 reads, T10 wants to write (ww set), T2 wants to read: T2 must
        # queue too — "any other task that wishes to access B ... will be
        # added to the Kick-Off List of B".
        t = dt()
        check(t, 0, A, "in")
        check(t, 10, A, "out")
        assert check(t, 2, A, "in")
        assert [w.tid for w in t.entry_for(A).kick] == [10, 2]

    def test_inout_treated_as_writer(self):
        t = dt()
        check(t, 0, A, "inout")
        assert t.entry_for(A).is_out
        assert check(t, 1, A, "inout")

    def test_independent_addresses(self):
        t = dt()
        assert not check(t, 0, A, "out")
        assert not check(t, 1, B, "out")
        assert t.live_addresses == 2

    def test_paramless_direction_rejected(self):
        with pytest.raises(ProtocolError):
            dt().check_param(0, A, 64, reads=False, writes=False)


class TestHandleFinished:
    def test_lone_writer_finish_deletes_entry(self):
        t = dt()
        check(t, 0, A, "out")
        assert finish(t, 0, A, "out") == []
        assert t.entry_for(A) is None
        assert t.is_empty

    def test_lone_reader_finish_deletes_entry(self):
        t = dt()
        check(t, 0, A, "in")
        assert finish(t, 0, A, "in") == []
        assert t.is_empty

    def test_raw_release(self):
        t = dt()
        check(t, 0, A, "out")
        check(t, 1, A, "in")
        check(t, 2, A, "in")
        granted = finish(t, 0, A, "out")
        assert granted == [1, 2]
        e = t.entry_for(A)
        assert e.readers == 2 and not e.is_out

    def test_waw_release_one_writer_at_a_time(self):
        t = dt()
        check(t, 0, A, "out")
        check(t, 1, A, "out")
        check(t, 2, A, "out")
        assert finish(t, 0, A, "out") == [1]
        e = t.entry_for(A)
        assert e.is_out
        assert [w.tid for w in e.kick] == [2]
        assert finish(t, 1, A, "out") == [2]
        assert finish(t, 2, A, "out") == []
        assert t.is_empty

    def test_war_release_after_last_reader(self):
        t = dt()
        check(t, 0, A, "in")
        check(t, 1, A, "in")
        check(t, 9, A, "out")  # ww
        assert finish(t, 0, A, "in") == []
        granted = finish(t, 1, A, "in")
        assert granted == [9]
        e = t.entry_for(A)
        assert e.is_out and not e.writer_waits

    def test_readers_granted_up_to_next_writer(self):
        t = dt()
        check(t, 0, A, "out")
        check(t, 1, A, "in")
        check(t, 2, A, "in")
        check(t, 3, A, "out")
        check(t, 4, A, "in")
        granted = finish(t, 0, A, "out")
        assert granted == [1, 2]
        e = t.entry_for(A)
        assert e.writer_waits and not e.is_out
        assert [w.tid for w in e.kick] == [3, 4]
        # Readers drain; the writer is granted, trailing reader still queued.
        assert finish(t, 1, A, "in") == []
        assert finish(t, 2, A, "in") == [3]
        assert t.entry_for(A).is_out
        assert finish(t, 3, A, "out") == [4]
        assert finish(t, 4, A, "in") == []
        assert t.is_empty

    def test_finish_unknown_address_rejected(self):
        with pytest.raises(ProtocolError, match="unknown segment"):
            dt().finish_param(0, A, True, False)

    def test_reader_underflow_rejected(self):
        t = dt()
        check(t, 0, A, "out")
        with pytest.raises(ProtocolError, match="underflow"):
            finish(t, 0, A, "in")


class TestKickoffSpilling:
    def test_dummy_entries_allocated_beyond_kickoff_size(self):
        t = dt(entries=64, kick=4)
        check(t, 0, A, "out")
        for tid in range(1, 6):  # 5 waiters > 4 slots
            check(t, tid, A, "in")
        e = t.entry_for(A)
        assert len(e.kick) == 5
        assert e.phys_entries == 2
        assert t.dummy_entries_created == 1
        assert t.occupied == 2  # address entry + 1 dummy

    def test_dummy_entries_freed_as_list_drains(self):
        t = dt(entries=64, kick=4)
        check(t, 0, A, "out")
        for tid in range(1, 10):  # 9 waiters -> parent(4)+d(3)+d(2): 3 entries
            check(t, tid, A, "in")
        assert t.entry_for(A).phys_entries == 3
        granted = finish(t, 0, A, "out")
        assert granted == list(range(1, 10))
        assert t.entry_for(A).phys_entries == 1
        # All 9 readers still active; entry remains until they finish.
        for tid in range(1, 10):
            finish(t, tid, A, "in")
        assert t.is_empty

    def test_restricted_mode_overflow_raises(self):
        t = dt(entries=64, kick=4, restricted=True)
        check(t, 0, A, "out")
        for tid in range(1, 5):
            check(t, tid, A, "in")
        with pytest.raises(CapacityError, match="dummy entries are disabled"):
            check(t, 5, A, "in")

    def test_gaussian_scale_fanout(self):
        # 200 tasks waiting on one segment: far beyond the 8-slot list.
        t = dt(entries=64, kick=8)
        check(t, 0, A, "out")
        for tid in range(1, 201):
            check(t, tid, A, "in")
        e = t.entry_for(A)
        assert len(e.kick) == 200
        assert e.phys_entries == kickoff_entries_needed(200, 8)
        assert t.max_kickoff_waiters == 200
        granted = finish(t, 0, A, "out")
        assert granted == list(range(1, 201))


class TestCapacityAccounting:
    def test_occupied_tracks_addresses(self):
        t = dt(entries=8, kick=8)
        for i in range(5):
            check(t, i, 0x1000 + i * 64, "out")
        assert t.occupied == 5
        assert t.free_slots == 3

    def test_overflow_without_stall_is_protocol_error(self):
        t = dt(entries=2, kick=8)
        check(t, 0, 0x1000, "out")
        check(t, 1, 0x2000, "out")
        with pytest.raises(ProtocolError, match="overflow"):
            check(t, 2, 0x3000, "out")

    def test_high_water(self):
        t = dt(entries=8)
        check(t, 0, A, "out")
        check(t, 1, B, "out")
        finish(t, 0, A, "out")
        assert t.high_water == 2
        assert t.occupied == 1


class TestHashChainStats:
    def test_collisions_counted(self):
        # Force every address into one bucket.
        t = DependenceTable(16, 8, hash_fn=lambda a, n: 0)
        for i in range(5):
            check(t, i, 0x1000 + i * 64, "out")
        assert t.max_hash_chain == 5
        # Probing the 5th entry costs 5 probes.
        _, probes = t._lookup(0x1000 + 4 * 64)
        assert probes == 5

    def test_wider_table_shortens_chains(self):
        def run(n_entries):
            t = DependenceTable(n_entries, 8)
            for i in range(200):
                check(t, i, 0x1000 + i * 4096, "out")
            return t.max_hash_chain

        assert run(4096) <= run(256)

    def test_mean_probes(self):
        t = dt()
        check(t, 0, A, "out")
        assert t.mean_probes() >= 1.0

    def test_stats_dict(self):
        t = dt()
        check(t, 0, A, "out")
        s = t.stats()
        assert s["occupied"] == 1
        assert s["high_water"] == 1


class TestValidation:
    def test_bad_construction(self):
        with pytest.raises(ValueError):
            DependenceTable(0, 8)
        with pytest.raises(ValueError):
            DependenceTable(8, 1)


class TestCoalescedAccessDiscounts:
    """The staged-resolve discounts: latched rows and pipelined probes."""

    def test_row_latched_skips_probe_cost_and_stats(self):
        t = dt()
        check(t, 0, A, "out")
        check(t, 1, A, "out")  # queued writer
        lookups_before = t.total_lookups
        granted, accesses = t.finish_param(0, A, False, True, row_latched=True)
        assert granted == [1]
        # The pop still pays its Kick-Off List accesses, but no probes
        # were charged or recorded (the row sat in the update register).
        full_t = dt()
        check(full_t, 0, A, "out")
        check(full_t, 1, A, "out")
        _, full_accesses = full_t.finish_param(0, A, False, True)
        assert accesses < full_accesses
        assert t.total_lookups == lookups_before

    def test_probe_overlapped_charges_no_probe_but_counts_it(self):
        t = dt()
        check(t, 0, A, "out")
        check(t, 1, A, "out")
        lookups_before = t.total_lookups
        granted, accesses = t.finish_param(
            0, A, False, True, probe_overlapped=True
        )
        assert granted == [1]
        full_t = dt()
        check(full_t, 0, A, "out")
        check(full_t, 1, A, "out")
        _, full_accesses = full_t.finish_param(0, A, False, True)
        # Cheaper than the serial access by exactly the probe count...
        assert accesses < full_accesses
        # ...but the probe physically happened, so the hash statistics
        # still count it (unlike the latched row).
        assert t.total_lookups == lookups_before + 1

    def test_row_latched_grants_match_serial_grants(self):
        for flags in ({}, {"row_latched": True}, {"probe_overlapped": True}):
            t = dt()
            check(t, 0, A, "out")
            for tid in (1, 2, 3):
                check(t, tid, A, "in")
            granted, _ = t.finish_param(0, A, False, True, **flags)
            assert granted == [1, 2, 3]

    def test_row_latched_missing_entry_is_a_protocol_error(self):
        t = dt()
        with pytest.raises(ProtocolError, match="latched"):
            t.finish_param(0, A, False, True, row_latched=True)


class TestWaiterOccupancy:
    """The time-weighted kick-off waiter recorder (admission-throttle feed)."""

    def test_queued_waiters_tracks_lists(self):
        t = dt()
        assert t.queued_waiters == 0
        check(t, 0, A, "out")
        check(t, 1, A, "out")
        check(t, 2, A, "out")
        check(t, 3, B, "out")
        check(t, 4, B, "in")
        assert t.queued_waiters == 3  # two behind A's writer, one behind B's
        finish(t, 0, A, "out")
        assert t.queued_waiters == 2

    def test_waiter_stat_records_levels(self):
        class Recorder:
            def __init__(self):
                self.levels = []

            def record(self, level):
                self.levels.append(level)

        t = dt()
        t.waiter_stat = Recorder()
        check(t, 0, A, "out")
        check(t, 1, A, "out")
        check(t, 2, A, "out")
        finish(t, 0, A, "out")
        assert t.waiter_stat.levels == [1, 2, 1]

    def test_machine_reports_kickoff_waiter_levels(self):
        from repro.config import SystemConfig
        from repro.machine import run_trace
        from repro.traces import random_trace

        trace = random_trace(
            120, n_addresses=16, max_params=4, seed=7,
            mean_exec=4000, mean_memory=0,
        )
        for shards in (1, 2):
            result = run_trace(
                trace,
                SystemConfig(
                    workers=4, maestro_shards=shards, memory_contention=False
                ),
            )
            kw = result.stats["dep_table"]["kickoff_waiters"]
            assert kw["max_per_shard"] >= 1
            assert kw["mean_total"] > 0.0
            assert len(kw["per_shard_mean"]) == shards
            # A slice's time-weighted mean can never exceed the largest
            # level any slice held (the machine total can).
            assert all(m <= kw["max_per_shard"] for m in kw["per_shard_mean"])


# ---- synchronous Dependence Table replay ---------------------------------------------


def replay_dependence_table(trace, completion_policy):
    """Feed the whole trace through a DependenceTable synchronously.

    ``completion_policy`` picks which running task finishes next (index
    into the running list) — exercising different interleavings.  Returns
    the observed start order and a map tid -> set of tids that had finished
    before it started.
    """
    dt = DependenceTable(4096, 8)
    dep_count = {t.tid: 0 for t in trace}
    started = []
    finished_before_start = {}
    finished = set()
    ready = deque()

    for task in trace:
        blocked = 0
        for p in task.params:
            b, _ = dt.check_param(task.tid, p.addr, p.size, p.mode.reads, p.mode.writes)
            blocked += int(b)
        dep_count[task.tid] = blocked
        if blocked == 0:
            ready.append(task.tid)

    running = []
    while ready or running:
        while ready:
            tid = ready.popleft()
            started.append(tid)
            finished_before_start[tid] = set(finished)
            running.append(tid)
        # Finish one running task.
        idx = completion_policy(len(running))
        tid = running.pop(idx)
        finished.add(tid)
        task = trace[tid]
        for p in task.params:
            granted, _ = dt.finish_param(tid, p.addr, p.mode.reads, p.mode.writes)
            for g in granted:
                dep_count[g] -= 1
                if dep_count[g] == 0:
                    ready.append(g)
    assert dt.is_empty, "Dependence Table did not drain"
    return started, finished_before_start


@settings(max_examples=120, deadline=None)
@given(traces(), st.randoms(use_true_random=False))
def test_dependence_table_matches_golden_graph(trace, rnd):
    graph = build_task_graph(trace)
    policy = lambda n: rnd.randrange(n)
    started, finished_before = replay_dependence_table(trace, policy)
    # Every task ran exactly once.
    assert sorted(started) == list(range(len(trace)))
    # A task may only start after all golden predecessors finished.
    for tid in started:
        missing = graph.predecessors[tid] - finished_before[tid]
        assert not missing, (
            f"task {tid} started before predecessors {sorted(missing)}"
        )


@settings(max_examples=100, deadline=None)
@given(traces())
def test_dependence_table_no_spurious_blocking(trace):
    """FIFO completion must never lose or duplicate a grant."""
    started, _ = replay_dependence_table(trace, lambda n: 0)
    assert sorted(started) == list(range(len(trace)))


@settings(max_examples=60, deadline=None)
@given(traces(), st.integers(2, 7))
def test_kickoff_spilling_transparent(trace, kick_size):
    """A tiny Kick-Off List (heavy dummy-entry use) gives identical order."""
    dt_small = DependenceTable(4096, kick_size)
    dt_big = DependenceTable(4096, 64)

    def run(dt):
        dep_count = {t.tid: 0 for t in trace}
        order = []
        ready = deque()
        for task in trace:
            blocked = 0
            for p in task.params:
                b, _ = dt.check_param(
                    task.tid, p.addr, p.size, p.mode.reads, p.mode.writes
                )
                blocked += int(b)
            dep_count[task.tid] = blocked
            if blocked == 0:
                ready.append(task.tid)
        while ready:
            tid = ready.popleft()
            order.append(tid)
            for p in trace[tid].params:
                granted, _ = dt.finish_param(
                    tid, p.addr, p.mode.reads, p.mode.writes
                )
                for g in granted:
                    dep_count[g] -= 1
                    if dep_count[g] == 0:
                        ready.append(g)
        return order

    assert run(dt_small) == run(dt_big)
