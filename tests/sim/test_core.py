"""Unit tests for the simulation kernel core: processes, timeouts, ordering."""

import pytest

from repro.sim import NS, DeadlockError, ProcessError, Simulator


def test_empty_run_returns_zero():
    sim = Simulator()
    assert sim.run() == 0
    assert sim.now == 0


def test_single_timeout_advances_time():
    sim = Simulator()
    seen = []

    def proc():
        yield sim.timeout(5 * NS)
        seen.append(sim.now)

    sim.process(proc())
    sim.run()
    assert seen == [5 * NS]
    assert sim.now == 5 * NS


def test_zero_timeout_completes_at_same_time():
    sim = Simulator()
    seen = []

    def proc():
        yield sim.timeout(0)
        seen.append(sim.now)

    sim.process(proc())
    sim.run()
    assert seen == [0]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1)


def test_sequential_timeouts_accumulate():
    sim = Simulator()
    marks = []

    def proc():
        for d in (1, 2, 3):
            yield sim.timeout(d * NS)
            marks.append(sim.now)

    sim.process(proc())
    sim.run()
    assert marks == [1 * NS, 3 * NS, 6 * NS]


def test_same_time_events_fire_in_scheduling_order():
    sim = Simulator()
    order = []

    def make(tag):
        def proc():
            yield sim.timeout(10)
            order.append(tag)

        return proc

    for tag in ("a", "b", "c"):
        sim.process(make(tag)())
    sim.run()
    assert order == ["a", "b", "c"]


def test_interleaving_is_deterministic():
    def build():
        sim = Simulator()
        log = []

        def worker(name, period):
            for _ in range(3):
                yield sim.timeout(period)
                log.append((sim.now, name))

        sim.process(worker("x", 3))
        sim.process(worker("y", 5))
        sim.run()
        return log

    assert build() == build()


def test_process_return_value_joinable():
    sim = Simulator()
    got = []

    def child():
        yield sim.timeout(7)
        return 42

    def parent():
        result = yield sim.process(child(), name="child")
        got.append((sim.now, result))

    sim.process(parent(), name="parent")
    sim.run()
    assert got == [(7, 42)]


def test_join_already_finished_process():
    sim = Simulator()
    got = []

    def child():
        return 99
        yield  # pragma: no cover

    def parent():
        proc = sim.process(child(), name="child")
        yield sim.timeout(100)
        result = yield proc
        got.append(result)

    sim.process(parent())
    sim.run()
    assert got == [99]


def test_multiple_joiners_all_resume():
    sim = Simulator()
    got = []

    def child():
        yield sim.timeout(5)
        return "done"

    def make_joiner(proc, tag):
        def joiner():
            result = yield proc
            got.append((tag, result))

        return joiner

    def root():
        proc = sim.process(child(), name="child")
        sim.process(make_joiner(proc, 1)())
        sim.process(make_joiner(proc, 2)())
        yield sim.timeout(0)

    sim.process(root())
    sim.run()
    assert sorted(got) == [(1, "done"), (2, "done")]


def test_exception_in_process_wrapped_with_context():
    sim = Simulator()

    def bad():
        yield sim.timeout(3)
        raise ValueError("boom")

    sim.process(bad(), name="bad-block")
    with pytest.raises(ProcessError) as exc_info:
        sim.run()
    assert "bad-block" in str(exc_info.value)
    assert isinstance(exc_info.value.original, ValueError)
    assert exc_info.value.now == 3


def test_yield_non_waitable_is_an_error():
    sim = Simulator()

    def bad():
        yield 123

    sim.process(bad(), name="bad")
    with pytest.raises(ProcessError):
        sim.run()


def test_run_until_pauses_and_resumes():
    sim = Simulator()
    marks = []

    def proc():
        for _ in range(4):
            yield sim.timeout(10)
            marks.append(sim.now)

    sim.process(proc())
    sim.run(until=25)
    assert sim.now == 25
    assert marks == [10, 20]
    sim.run()
    assert marks == [10, 20, 30, 40]


def test_call_at_runs_plain_callback():
    sim = Simulator()
    fired = []
    sim.call_at(15, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [15]


def test_call_at_past_rejected():
    sim = Simulator()

    def proc():
        yield sim.timeout(10)
        sim.call_at(5, lambda: None)

    sim.process(proc())
    with pytest.raises(ProcessError):
        sim.run()


def test_deadlock_detection_reports_blocked_process():
    from repro.sim import Fifo

    sim = Simulator()
    fifo = Fifo(sim, capacity=1, name="stuck-fifo")

    def consumer():
        yield fifo.get()
        yield fifo.get()  # never satisfied

    sim.process(consumer(), name="consumer")

    def producer():
        yield fifo.put("only-item")

    sim.process(producer(), name="producer")
    with pytest.raises(DeadlockError) as exc_info:
        sim.run()
    assert "consumer" in str(exc_info.value)
    assert "stuck-fifo" in str(exc_info.value)


def test_process_creation_inside_process_is_not_reentrant():
    sim = Simulator()
    order = []

    def child():
        order.append("child-runs")
        yield sim.timeout(0)

    def parent():
        sim.process(child(), name="child")
        order.append("parent-continues")
        yield sim.timeout(0)

    sim.process(parent(), name="parent")
    sim.run()
    # Parent must keep running past the spawn; child starts strictly later.
    assert order == ["parent-continues", "child-runs"]


def test_pending_events_counter():
    sim = Simulator()

    def proc():
        yield sim.timeout(5)

    sim.process(proc())
    assert sim.pending_events == 1
    sim.run()
    assert sim.pending_events == 0


def test_many_processes_scale():
    sim = Simulator()
    done = []

    def proc(i):
        yield sim.timeout(i)
        done.append(i)

    for i in range(1000):
        sim.process(proc(i))
    sim.run()
    assert len(done) == 1000
    assert done == sorted(done)


# ---- run(until=...) / call_at edge cases -------------------------------------------


def test_run_until_repushes_popped_event_exactly_once():
    """Pausing re-pushes the first too-late event; it must fire once, on time."""
    sim = Simulator()
    fired = []

    def proc():
        yield sim.timeout(10)
        fired.append(sim.now)
        yield sim.timeout(20)
        fired.append(sim.now)

    sim.process(proc())
    # Pause between the two events: the t=30 event is popped, seen to be
    # beyond the horizon and pushed back.
    assert sim.run(until=20) == 20
    assert fired == [10]
    # A second paused run before the event's time must not fire it either.
    assert sim.run(until=29) == 29
    assert fired == [10]
    # Resuming fires it exactly once, at its original timestamp.
    sim.run()
    assert fired == [10, 30]


def test_run_until_exact_event_time_is_inclusive():
    sim = Simulator()
    fired = []

    def proc():
        yield sim.timeout(10)
        fired.append(sim.now)

    sim.process(proc())
    sim.run(until=10)
    assert fired == [10]


def test_call_at_past_rejected_directly():
    sim = Simulator()

    def proc():
        yield sim.timeout(10)

    sim.process(proc())
    sim.run()
    assert sim.now == 10
    with pytest.raises(ValueError):
        sim.call_at(5, lambda: None)


# ---- deadlock report completeness -----------------------------------------------


def test_deadlock_report_names_every_blocked_process():
    """Each blocked process appears with its waitable's describe() string."""
    from repro.sim import Fifo, Resource, Signal

    sim = Simulator()
    fifo = Fifo(sim, capacity=1, name="starved-fifo")
    signal = Signal(sim, name="never-set")
    res = Resource(sim, 1, name="held-port")

    def on_fifo():
        yield fifo.get()

    def on_signal():
        yield signal.wait()

    def on_resource():
        yield res.acquire()
        yield res.acquire()  # second acquire of a capacity-1 resource

    sim.process(on_fifo(), name="fifo-waiter")
    sim.process(on_signal(), name="signal-waiter")
    sim.process(on_resource(), name="resource-waiter")
    with pytest.raises(DeadlockError) as exc_info:
        sim.run()

    blocked = dict(exc_info.value.blocked)
    assert blocked == {
        "fifo-waiter": "get(starved-fifo)",
        "signal-waiter": "wait(never-set)",
        "resource-waiter": "acquire(held-port)",
    }
    for fragment in ("fifo-waiter", "get(starved-fifo)", "wait(never-set)",
                     "acquire(held-port)"):
        assert fragment in str(exc_info.value)


# ---- _throw kill paths (regression: dead processes must leave the registry) -------


def test_thrown_process_is_pruned_from_deadlock_reports():
    """A process killed by an unhandled injected exception must not linger."""
    from repro.sim import Fifo

    sim = Simulator()
    fifo = Fifo(sim, capacity=1, name="quiet-fifo")

    def victim():
        yield fifo.get()

    proc = sim.process(victim(), name="victim")
    sim.call_at(100, lambda: None)  # keeps the heap non-empty while paused
    sim.run(until=0)  # let the process start and block
    with pytest.raises(ProcessError):
        proc._throw(RuntimeError("injected"))
    assert not proc.alive

    def survivor():
        yield fifo.get()

    sim.process(survivor(), name="survivor")
    with pytest.raises(DeadlockError) as exc_info:
        sim.run()
    names = [name for name, _ in exc_info.value.blocked]
    assert names == ["survivor"], "killed process leaked into the deadlock report"


def test_throw_transformed_exception_still_kills_the_process():
    """Raising a *different* exception while handling the injected one must
    also decrement the live count, or the next drain falsely deadlocks."""
    sim = Simulator()

    def victim():
        try:
            yield sim.timeout(1000)
        except ValueError as exc:
            raise RuntimeError("transformed") from exc

    proc = sim.process(victim(), name="victim")
    sim.run(until=0)
    with pytest.raises(ProcessError) as exc_info:
        proc._throw(ValueError("injected"))
    assert isinstance(exc_info.value.original, RuntimeError)
    assert not proc.alive
    assert sim._live_processes == 0
    # The heap still holds the dead process's timeout; draining it must not
    # report a deadlock now that no live process remains.
    assert sim.run() == 1000


def test_finished_processes_compact_out_of_the_registry():
    """Thousands of short-lived processes must not accumulate forever."""
    sim = Simulator()

    def short():
        yield sim.timeout(1)

    for i in range(500):
        sim.process(short(), name=f"short{i}")
    sim.run()
    assert sim._live_processes == 0
    assert len(sim._blocked_registry) <= 500 // 2 + 1


# ---- close: a finished simulation is freed by reference counting ---------------


def test_close_releases_parked_processes_and_drops_pending_events():
    import gc

    from repro.sim import Fifo, Resource, Signal

    gc.collect()
    gc.disable()
    try:
        sim = Simulator()
        empty = Fifo(sim, 1, "empty")
        full = Fifo(sim, 1, "full")
        full.try_put("x")
        port = Resource(sim, 1, "port")
        line = Signal(sim, "line")
        closed = []

        def parked(name, waitable):
            try:
                yield waitable
            finally:
                closed.append(name)

        def holder():
            yield port.acquire()
            yield sim.timeout(10 * NS)  # still pending when the run pauses

        sim.process(holder(), name="holder")
        procs = [
            sim.process(parked("get", empty.get()), name="get"),
            sim.process(parked("put", full.put("y")), name="put"),
            sim.process(parked("acquire", port.acquire()), name="acquire"),
            sim.process(parked("signal", line.wait()), name="signal"),
        ]
        sim.run(until=1 * NS)
        assert sim.pending_events == 1
        assert all(p.alive for p in procs)

        sim.close()
        assert sorted(closed) == ["acquire", "get", "put", "signal"]
        assert not any(p.alive for p in procs)
        assert sim.pending_events == 0
        assert sim.run() == 1 * NS  # nothing left to fire
        del sim, empty, full, port, line, procs, holder, parked
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_events_by_block_folds_digits_and_sums_to_events_processed():
    """Ended and parked processes are both counted, instances of one block
    share a key, and a ``call_at`` callback resumes no process."""
    from repro.sim import Fifo
    from repro.sim.core import OTHER_EVENTS

    sim = Simulator()
    fifo = Fifo(sim, capacity=1)

    def worker():
        for _ in range(2):
            yield sim.timeout(NS)

    def consumer():
        while True:
            yield fifo.get()

    for core in range(3):
        sim.process(worker(), name=f"tc{core}.run-task")
    sim.process(consumer(), name="merge-unit")
    sim.call_at(5 * NS, lambda: None)
    with pytest.raises(DeadlockError):
        sim.run()
    by_block = sim.events_by_block()
    assert by_block == {"tcN.run-task": 9, "merge-unit": 1, OTHER_EVENTS: 1}
    assert sum(by_block.values()) == sim.events_processed
    sim.close()
    assert sim.events_by_block() == by_block
