"""Kernel contract tests: the timing wheel against the heap oracle.

Every test here runs against the wheel kernel and the heap ordering
oracle in ``heap_kernel`` (or runs both and compares): ``run(until=)``
landing exactly on an event's time, ``call_at`` at the current time,
deadlock reports after the live-process registry compacted, far-future
events scheduled out of time order, an exception escaping in the middle
of a same-timestamp burst, the ledger's kernel mesh, and the
steady-state no-garbage property of the hot path.
"""

import gc
import random

import pytest

from heap_kernel import KERNELS
from repro.sim import DeadlockError, Fifo, ProcessError, Simulator


@pytest.mark.parametrize("kernel", KERNELS)
def test_call_at_now_fires_this_timestep_in_order(kernel):
    sim = KERNELS[kernel]()
    fired = []

    def proc():
        yield sim.timeout(5)
        # At t=5: schedule three callbacks at the current time; they must
        # fire at t=5, in scheduling order, after control returns.
        sim.call_at(sim.now, lambda: fired.append(("a", sim.now)))
        sim.call_at(sim.now, lambda: fired.append(("b", sim.now)))
        sim.call_at(sim.now, lambda: fired.append(("c", sim.now)))
        yield sim.timeout(1)
        fired.append(("after", sim.now))

    sim.process(proc())
    sim.run()
    assert fired == [("a", 5), ("b", 5), ("c", 5), ("after", 6)]


@pytest.mark.parametrize("kernel", KERNELS)
def test_zero_delay_wakeup_queues_behind_pending_same_time_events(kernel):
    """A wake-up completed at the current timestamp is appended to that
    timestep's queue: it fires after every event already scheduled for
    ``now``, never ahead of them."""
    sim = KERNELS[kernel]()
    fifo = Fifo(sim, capacity=1)
    fired = []

    def waiter():
        item = yield fifo.get()
        fired.append(("woke", item))

    def waker():
        yield sim.timeout(3)
        sim.call_at(3, lambda: fired.append("first"))
        sim.call_at(3, lambda: fired.append("second"))
        yield fifo.put("x")
        fired.append("waker")

    sim.process(waiter())
    sim.process(waker())
    assert sim.run() == 3
    assert fired == ["first", "second", ("woke", "x"), "waker"]


@pytest.mark.parametrize("kernel", KERNELS)
def test_run_until_is_inclusive_and_resumes_cleanly(kernel):
    """An event at exactly t=until fires; the paused run resumes intact."""
    sim = KERNELS[kernel]()
    fired = []
    sim.call_at(100, lambda: fired.append(100))
    sim.call_at(101, lambda: fired.append(101))
    assert sim.run(until=100) == 100
    assert fired == [100]
    assert sim.pending_events == 1
    assert sim.run() == 101
    assert fired == [100, 101]
    assert sim.pending_events == 0


@pytest.mark.parametrize("kernel", KERNELS)
def test_run_until_between_events_sets_now_without_firing(kernel):
    sim = KERNELS[kernel]()
    fired = []
    sim.call_at(100, lambda: fired.append(100))
    assert sim.run(until=40) == 40
    assert sim.now == 40 and not fired
    assert sim.run(until=99) == 99
    assert sim.now == 99 and not fired
    assert sim.run() == 100
    assert fired == [100]


def test_run_until_on_wheel_span_boundary():
    """Events at span-1 / span / span+1 of a 2^18 ps span fire in time
    order on both kernels, and until= on each of them stops exactly
    there."""
    span = 1 << 18
    for until, expect in [
        (span - 1, [span - 1]),
        (span, [span - 1, span]),
        (span + 1, [span - 1, span, span + 1]),
    ]:
        results = {}
        for kernel in KERNELS:
            sim = KERNELS[kernel]()
            fired = []
            for t in (span - 1, span, span + 1):
                sim.call_at(t, lambda t=t: fired.append(t))
            assert sim.run(until=until) == until
            results[kernel] = list(fired)
            assert fired == expect
            sim.run()
            assert fired == [span - 1, span, span + 1]
        assert results["heap"] == results["wheel"]


@pytest.mark.parametrize("kernel", KERNELS)
def test_far_future_overflow_events_fire_in_schedule_order(kernel):
    """Events several 2^18 ps spans out, scheduled out of time order and
    with ties, fire in (time, scheduling-order) order."""
    span = 1 << 18
    sim = KERNELS[kernel]()
    fired = []
    times = [7 * span + 3, 2, 3 * span, 3 * span, 7 * span + 3, span + 1, 2]
    for i, t in enumerate(times):
        sim.call_at(t, lambda i=i, t=t: fired.append((t, i)))
    sim.run()
    # Sorted by time, ties broken by scheduling order.
    assert fired == sorted(fired, key=lambda e: (e[0], e[1]))
    assert [t for t, _ in fired] == sorted(times)


@pytest.mark.parametrize("kernel", KERNELS)
def test_deadlock_report_after_registry_compaction(kernel):
    """Many short-lived processes trigger the registry compaction; the
    eventual deadlock report must name exactly the still-blocked ones."""
    sim = KERNELS[kernel]()
    fifo = Fifo(sim, capacity=1, name="starved")

    def short_lived(i):
        yield sim.timeout(i)

    def stuck_consumer():
        yield fifo.get()

    for i in range(50):
        sim.process(short_lived(i), name=f"ephemeral{i}")
    sim.process(stuck_consumer(), name="waiter-a")
    sim.process(stuck_consumer(), name="waiter-b")
    with pytest.raises(DeadlockError) as err:
        sim.run()
    blocked = dict(err.value.blocked)
    assert blocked == {
        "waiter-a": "get(starved)",
        "waiter-b": "get(starved)",
    }


@pytest.mark.parametrize("kernel", KERNELS)
def test_run_until_before_now_is_a_clamped_noop(kernel):
    sim = KERNELS[kernel]()
    fired = []
    sim.call_at(50, lambda: fired.append(50))
    sim.call_at(200, lambda: fired.append(200))
    assert sim.run(until=100) == 100
    assert sim.run(until=60) == 60
    assert sim.now == 60 and fired == [50]


def test_profile_counters_are_populated():
    for kernel in KERNELS:
        sim = KERNELS[kernel]()
        fifo = Fifo(sim, capacity=4)
        n = 200

        def producer():
            for i in range(n):
                yield fifo.put(i)

        def consumer():
            for _ in range(n):
                yield fifo.get()
                yield sim.timeout(3)

        sim.process(producer(), name="p")
        sim.process(consumer(), name="c")
        sim.run()
        # Both kernels fire the same schedule, so the same events; how many
        # sit pending at once is the kernel's own count (the wheel counts a
        # drain's fired events until the drain ends).
        assert sim.events_processed == 3 * n + 2
        assert sim.peak_pending == {"wheel": 9, "heap": 2}[kernel]
        assert sim.pending_events == 0


@pytest.mark.parametrize("kernel", KERNELS)
def test_exception_mid_burst_leaves_the_rest_scheduled(kernel):
    """A process that raises inside a same-timestamp burst stops the run
    after its own event: every event still scheduled stays pending, only
    fired events are counted, and a resumed run fires each of the rest
    exactly once."""
    sim = KERNELS[kernel]()
    fifo = Fifo(sim, capacity=1)
    fired = []

    def consumer():
        fired.append(("consumer", (yield fifo.get())))

    def producer():
        yield sim.timeout(10)
        fired.append("producer")
        yield fifo.put("x")  # wakes the consumer and itself behind the burst
        fired.append("producer-done")

    def worker(i):
        yield sim.timeout(10)
        if i == 1:
            raise RuntimeError("boom")
        fired.append(("worker", i))

    sim.process(consumer(), name="consumer")
    sim.process(producer(), name="producer")
    for i in range(3):
        sim.process(worker(i), name=f"worker{i}")
    sim.call_at(20, lambda: fired.append("late"))
    with pytest.raises(ProcessError) as err:
        sim.run()
    assert (err.value.process_name, err.value.now) == ("worker1", 10)
    # Five first steps, then producer, worker0 and the raising worker1.
    assert sim.events_processed == 8
    # worker2, the consumer, the producer and the call_at callback.
    assert sim.pending_events == 4
    assert fired == ["producer", ("worker", 0)]
    assert sim.run() == 20
    assert fired == [
        "producer",
        ("worker", 0),
        ("worker", 2),
        ("consumer", "x"),
        "producer-done",
        "late",
    ]
    assert sim.events_processed == 12
    assert sim.pending_events == 0


@pytest.mark.parametrize("kernel", KERNELS)
def test_a_process_that_yields_a_non_waitable_dies(kernel):
    """Yielding something that is not a waitable kills the process as a
    raising body does: it leaves the live count, so a resumed run ends
    cleanly instead of reporting it as blocked."""
    sim = KERNELS[kernel]()
    fired = []

    def bad():
        yield 42

    def good():
        yield sim.timeout(5)
        fired.append(sim.now)

    proc = sim.process(bad(), name="bad")
    sim.process(good(), name="good")
    with pytest.raises(ProcessError) as err:
        sim.run()
    assert err.value.process_name == "bad"
    assert "non-waitable 42" in str(err.value)
    assert not proc.alive
    assert sim.run() == 5
    assert fired == [5]


def test_ledger_mesh_fires_the_same_events_on_both_kernels(ledger, monkeypatch):
    """The ledger's ``kernel-mesh`` shape, 16 pairs of 64 messages, runs
    identically on the wheel and on the heap oracle."""
    rng = random.Random(7)
    payloads = [[rng.getrandbits(32) for _ in range(64)] for _ in range(16)]
    runs = {}
    for kernel in KERNELS:
        monkeypatch.setattr(ledger, "Simulator", KERNELS[kernel])
        mesh = ledger.Mesh(payloads)
        assert type(mesh.sim) is KERNELS[kernel]
        mesh.sim.run()
        runs[kernel] = (
            mesh.sim.events_processed,
            mesh.sim.now,
            mesh.in_order,
            mesh.sim.events_by_block(),
        )
    assert runs["heap"] == runs["wheel"]
    events, now, in_order, _ = runs["wheel"]
    assert in_order == [64] * 16
    assert now == 64 * ledger.Mesh.SLEEP_PS
    assert events == 16 * 64 * 3 + 32


def test_event_counts_identical_across_kernels():
    counts = {}
    for kernel in KERNELS:
        sim = KERNELS[kernel]()
        fifo = Fifo(sim, capacity=2)

        def producer():
            for i in range(100):
                yield fifo.put(i)
                if i % 7 == 0:
                    yield sim.timeout(i)

        def consumer():
            for _ in range(100):
                yield fifo.get()
                yield sim.timeout(2)

        sim.process(producer(), name="p")
        sim.process(consumer(), name="c")
        end = sim.run()
        counts[kernel] = (end, sim.events_processed)
    assert counts["heap"] == counts["wheel"]


def test_timeouts_are_interned_per_delay():
    sim = Simulator()
    assert sim.timeout(7) is sim.timeout(7)
    assert sim.timeout(7) is not sim.timeout(8)
    assert sim.timeout(0).delay == 0
    with pytest.raises(ValueError):
        sim.timeout(-1)


def test_steady_state_produces_no_per_event_garbage():
    """The kernel's allocation-light claim, measured: a steady-state
    producer/consumer pair must not accumulate collectable garbage per
    event.  gc is disabled so nothing hides the churn; the gen-0 counter
    nets allocations minus deallocations, so a bounded delta over tens of
    thousands of events means the hot path recycles everything it touches.
    A second pair on a capacity-1 FIFO parks its producer on every item,
    so the parked-putter handoff runs under the same bound.
    """
    sim = Simulator()
    done = []

    def producer(fifo):
        i = 0
        while True:
            yield fifo.put(i)
            i += 1
            yield sim.timeout(3)

    def consumer(fifo):
        while True:
            yield fifo.get()
            yield sim.timeout(5)
            done.append(None)
            done.pop()

    for capacity in (8, 1):
        fifo = Fifo(sim, capacity=capacity)
        sim.process(producer(fifo), name=f"p{capacity}")
        sim.process(consumer(fifo), name=f"c{capacity}")
    # Warm up: fill caches (interned timeouts, ring/bucket lists).
    sim.run(until=50_000)
    events_before = sim.events_processed
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        count0 = gc.get_count()[0]
        sim.run(until=2_000_000)
        delta = gc.get_count()[0] - count0
    finally:
        if gc_was_enabled:
            gc.enable()
    events = sim.events_processed - events_before
    assert events > 100_000, "steady state did not run long enough"
    # Zero net garbage in an ideal world; allow a small constant slack for
    # list over-allocation and interpreter internals, but nothing that
    # scales with the event count.
    assert delta < 100, (
        f"hot path leaked {delta} gc-tracked objects over {events} events"
    )
