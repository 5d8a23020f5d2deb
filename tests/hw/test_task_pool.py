"""Unit tests for the Task Pool and dummy-task chaining (paper §III-C)."""

import pytest

from repro.hw.errors import CapacityError, ProtocolError
from repro.hw.task_pool import TaskPool, entries_needed
from repro.traces import AccessMode, Param, TraceTask


def make_task(tid=0, n_params=3):
    params = tuple(
        Param(0x1000 + i * 64, 64, AccessMode.IN if i else AccessMode.INOUT)
        for i in range(n_params)
    )
    return TraceTask(tid, 0xABCD, params, 100, 10, 10)


def store(pool, task, indices):
    """Store a hand-built task the way Write TP stores a trace row."""
    return pool.store(task.tid, task.func, task.params, indices)


def entries_for(pool, task):
    return pool.entries_for(task.tid, task.n_params)


class TestEntriesNeeded:
    @pytest.mark.parametrize(
        "n_params,expected",
        [
            (1, 1),
            (8, 1),  # fits exactly
            (9, 2),  # parent 7 + tail 2 (slot 8 becomes pointer)
            (10, 2),  # the paper's Table I example: 10 params -> 2 entries
            (15, 2),  # parent 7 + tail 8
            (16, 3),
            (22, 3),  # 7 + 7 + 8
            (23, 4),
        ],
    )
    def test_counts_with_cap_8(self, n_params, expected):
        assert entries_needed(n_params, 8) == expected

    def test_small_cap(self):
        assert entries_needed(2, 2) == 1
        assert entries_needed(3, 2) == 2  # 1 + ptr, then 2
        assert entries_needed(4, 2) == 3  # 1, 1, 2


class TestStoreAndRead:
    def test_simple_store_roundtrip(self):
        pool = TaskPool(entries=16, max_params=8)
        task = make_task(n_params=3)
        head, accesses = store(pool, task, [5])
        assert head == 5
        assert accesses == 1
        assert pool.occupied == 1
        params, reads = pool.read_params(5)
        assert params == list(task.params)
        assert reads == 1
        assert pool.head(5).trace_tid == 0
        assert pool.head(5).n_dummies == 0

    def test_dummy_chain_storage(self):
        pool = TaskPool(entries=16, max_params=8)
        task = make_task(n_params=10)
        head, accesses = store(pool, task, [0, 9])
        assert accesses == 2
        assert pool.occupied == 2
        assert pool.dummy_tasks_created == 1
        parent = pool.head(head)
        assert parent.n_dummies == 1
        assert parent.next_dummy == 9
        assert len(parent.params) == 7  # last slot is the pointer
        assert pool.entries[9].is_dummy
        assert len(pool.entries[9].params) == 3
        params, reads = pool.read_params(head)
        assert params == list(task.params)
        assert reads == 2

    def test_long_chain(self):
        pool = TaskPool(entries=32, max_params=8)
        task = make_task(n_params=22)  # 7 + 7 + 8
        head, _ = store(pool, task, [1, 2, 3])
        params, reads = pool.read_params(head)
        assert params == list(task.params)
        assert reads == 3
        assert pool.head(head).n_dummies == 2

    def test_wrong_index_count_rejected(self):
        pool = TaskPool(entries=16, max_params=8)
        with pytest.raises(ProtocolError, match="needs 2"):
            store(pool, make_task(n_params=10), [0])

    def test_double_occupancy_rejected(self):
        pool = TaskPool(entries=16, max_params=8)
        store(pool, make_task(0), [3])
        with pytest.raises(ProtocolError, match="occupied"):
            store(pool, make_task(1), [3])

    def test_read_dummy_head_rejected(self):
        pool = TaskPool(entries=16, max_params=8)
        store(pool, make_task(n_params=10), [0, 1])
        with pytest.raises(ProtocolError, match="dummy"):
            pool.read_params(1)


class TestFree:
    def test_free_returns_whole_chain(self):
        pool = TaskPool(entries=16, max_params=8)
        head, _ = store(pool, make_task(n_params=16), [4, 8, 12])
        freed, accesses = pool.free_chain(head)
        assert freed == [4, 8, 12]
        assert accesses == 3
        assert pool.occupied == 0
        assert pool.is_empty

    def test_freed_entries_reusable(self):
        pool = TaskPool(entries=4, max_params=8)
        head, _ = store(pool, make_task(0), [2])
        pool.free_chain(head)
        head2, _ = store(pool, make_task(1), [2])
        assert pool.head(head2).trace_tid == 1

    def test_high_water_tracking(self):
        pool = TaskPool(entries=16, max_params=8)
        h0, _ = store(pool, make_task(0, n_params=10), [0, 1])
        h1, _ = store(pool, make_task(1), [2])
        assert pool.high_water == 3
        pool.free_chain(h0)
        assert pool.high_water == 3
        assert pool.occupied == 1


class TestDependenceCounter:
    def test_add_and_resolve(self):
        pool = TaskPool(entries=16, max_params=8)
        head, _ = store(pool, make_task(), [0])
        pool.add_dependences(head, 2)
        assert pool.head(head).dep_count == 2
        assert not pool.resolve_dependence(head)
        assert pool.resolve_dependence(head)  # now ready

    def test_underflow_rejected(self):
        pool = TaskPool(entries=16, max_params=8)
        head, _ = store(pool, make_task(), [0])
        with pytest.raises(ProtocolError, match="underflow"):
            pool.resolve_dependence(head)


class TestRestrictedMode:
    def test_restricted_rejects_wide_tasks(self):
        pool = TaskPool(entries=16, max_params=8, restricted=True)
        with pytest.raises(CapacityError, match="dummy tasks are disabled"):
            entries_for(pool, make_task(n_params=9))

    def test_restricted_allows_fitting_tasks(self):
        pool = TaskPool(entries=16, max_params=8, restricted=True)
        assert entries_for(pool, make_task(n_params=8)) == 1

    def test_task_larger_than_pool_rejected(self):
        pool = TaskPool(entries=2, max_params=8)
        with pytest.raises(CapacityError, match="pool only has 2"):
            entries_for(pool, make_task(n_params=30))


class TestValidation:
    def test_bad_construction(self):
        with pytest.raises(ValueError):
            TaskPool(entries=0, max_params=8)
        with pytest.raises(ValueError):
            TaskPool(entries=8, max_params=1)

    def test_invalid_index_access(self):
        pool = TaskPool(entries=4, max_params=8)
        with pytest.raises(ProtocolError, match="out of range"):
            pool.read_params(99)
        with pytest.raises(ProtocolError, match="not valid"):
            pool.read_params(2)
