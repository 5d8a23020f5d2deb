"""Unit tests for bounded FIFO channels."""

import pytest

from heap_kernel import KERNELS
from repro.sim import Fifo, Simulator


def test_put_get_roundtrip():
    sim = Simulator()
    fifo = Fifo(sim, capacity=4)
    got = []

    def producer():
        for i in range(3):
            yield fifo.put(i)

    def consumer():
        for _ in range(3):
            item = yield fifo.get()
            got.append(item)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert got == [0, 1, 2]


def test_capacity_one_enforces_alternation():
    sim = Simulator()
    fifo = Fifo(sim, capacity=1)
    events = []

    def producer():
        for i in range(3):
            yield fifo.put(i)
            events.append(("put", i, sim.now))

    def consumer():
        for _ in range(3):
            yield sim.timeout(10)
            item = yield fifo.get()
            events.append(("get", item, sim.now))

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    gets = [e for e in events if e[0] == "get"]
    assert [g[1] for g in gets] == [0, 1, 2]
    # Puts 1 and 2 must each wait for the preceding get to free the slot.
    puts = {e[1]: e[2] for e in events if e[0] == "put"}
    assert puts[0] == 0
    assert puts[1] == 10
    assert puts[2] == 20


def test_producer_blocks_when_full():
    sim = Simulator()
    fifo = Fifo(sim, capacity=2)
    progress = []

    def producer():
        yield fifo.put("a")
        yield fifo.put("b")
        progress.append(("filled", sim.now))
        yield fifo.put("c")  # blocks until a get at t=50
        progress.append(("unblocked", sim.now))

    def consumer():
        yield sim.timeout(50)
        item = yield fifo.get()
        progress.append(("got", item, sim.now))

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert ("filled", 0) in progress
    assert ("got", "a", 50) in progress
    assert ("unblocked", 50) in progress


def test_consumer_blocks_when_empty():
    sim = Simulator()
    fifo = Fifo(sim, capacity=2)
    got = []

    def consumer():
        item = yield fifo.get()
        got.append((item, sim.now))

    def producer():
        yield sim.timeout(30)
        yield fifo.put("late")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert got == [("late", 30)]


def test_fifo_order_with_multiple_consumers():
    sim = Simulator()
    fifo = Fifo(sim, capacity=8)
    got = []

    def consumer(tag):
        item = yield fifo.get()
        got.append((tag, item))

    def producer():
        yield sim.timeout(5)
        for i in range(2):
            yield fifo.put(i)

    sim.process(consumer("first"))
    sim.process(consumer("second"))
    sim.process(producer())
    sim.run()
    # Consumers are served in arrival order.
    assert got == [("first", 0), ("second", 1)]


def test_blocked_producers_complete_in_order():
    sim = Simulator()
    fifo = Fifo(sim, capacity=1)
    order = []

    def producer(tag):
        yield fifo.put(tag)
        order.append(tag)

    def consumer():
        for _ in range(3):
            yield sim.timeout(10)
            yield fifo.get()

    for tag in ("p0", "p1", "p2"):
        sim.process(producer(tag))
    sim.process(consumer())
    sim.run()
    assert order == ["p0", "p1", "p2"]


def test_try_put_nonblocking():
    sim = Simulator()
    fifo = Fifo(sim, capacity=2)
    assert fifo.try_put(1)
    assert fifo.try_put(2)
    assert not fifo.try_put(3)
    assert len(fifo) == 2
    assert fifo.is_full


def test_try_put_hands_to_waiting_getter():
    sim = Simulator()
    fifo = Fifo(sim, capacity=1)
    got = []

    def consumer():
        item = yield fifo.get()
        got.append(item)

    def producer():
        yield sim.timeout(5)
        assert fifo.try_put("direct")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert got == ["direct"]


def test_unbounded_fifo_never_blocks_producer():
    sim = Simulator()
    fifo = Fifo(sim, capacity=None)

    def producer():
        for i in range(100):
            yield fifo.put(i)
        assert sim.now == 0  # no put ever blocked

    sim.process(producer())

    def consumer():
        for i in range(100):
            item = yield fifo.get()
            assert item == i

    sim.process(consumer())
    sim.run()


def test_invalid_capacity_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        Fifo(sim, capacity=0)


def test_snapshot_and_len():
    sim = Simulator()
    fifo = Fifo(sim, capacity=4)
    fifo.try_put("x")
    fifo.try_put("y")
    assert fifo.snapshot() == ["x", "y"]
    assert len(fifo) == 2
    assert not fifo.is_empty


def test_peek_on_empty_fifo_consumes_nothing():
    sim = Simulator()
    fifo = Fifo(sim, capacity=4)
    assert fifo.peek() is None
    assert fifo.peek() is None  # repeatable: a wire tap, not a pop
    assert fifo.is_empty
    fifo.try_put("x")
    assert fifo.peek() == "x"
    assert fifo.peek() == "x"
    assert len(fifo) == 1  # still there


def test_peek_then_get_ordering():
    """peek must show exactly what the next try_get delivers while a
    zero-latency drain (the coalescing intake pattern: peek, decide,
    pop) empties a queue with producers still blocked on it."""
    sim = Simulator()
    fifo = Fifo(sim, capacity=1)
    resumed = []

    def producer(tag):
        yield fifo.put(tag)
        resumed.append(tag)

    drained = []

    def drain():
        yield sim.timeout(10)
        # p0 filled the single slot; p1/p2 are blocked with pending items.
        assert resumed == ["p0"]
        while True:
            head = fifo.peek()
            if head is None:
                break
            item = fifo.try_get()
            assert item == head  # peek promised this exact item
            drained.append(item)
        yield sim.timeout(10)  # let the released producers finish
        assert resumed == ["p0", "p1", "p2"]
        assert fifo.peek() is None and fifo.try_get() is None

    sim.process(producer("p0"))
    sim.process(producer("p1"))
    sim.process(producer("p2"))
    sim.process(drain())
    sim.run()
    assert drained == ["p0", "p1", "p2"]


def test_peek_sees_a_blocked_producers_pending_item():
    """White-box pin of the defensive empty-queue-with-blocked-producer
    state that try_get/_arm_get also bypass-guard: peek must report the
    pending item the next get would deliver — ``None`` would stall a
    batch drain one message early — without consuming it or resuming
    its producer."""
    sim = Simulator()
    fifo = Fifo(sim, capacity=1)
    resumed = []

    def producer():
        yield fifo.put("pending")
        resumed.append("resumed")

    def prober():
        yield sim.timeout(10)
        assert len(fifo._putters) == 1
        fifo._items.clear()  # manufacture the defensive state directly
        assert fifo.peek() == "pending"
        assert fifo.peek() == "pending"  # still not consumed
        yield sim.timeout(10)
        assert resumed == []  # a wire tap never resumes the producer
        assert fifo.try_get() == "pending"
        yield sim.timeout(10)
        assert resumed == ["resumed"]

    fifo.try_put("filler")  # fill the slot so the producer blocks
    sim.process(producer())
    sim.process(prober())
    sim.run()
    assert resumed == ["resumed"]


def test_peek_never_unblocks_a_waiting_producer():
    """On a full queue with a blocked producer, peek shows the real head
    (not the pending item) and leaves the producer blocked."""
    sim = Simulator()
    fifo = Fifo(sim, capacity=1)
    resumed = []

    def producer(tag):
        yield fifo.put(tag)
        resumed.append(tag)

    def prober():
        yield sim.timeout(10)
        assert resumed == ["p0"]
        assert fifo.peek() == "p0"
        yield sim.timeout(10)
        assert resumed == ["p0"]  # peek alone never unblocked p1
        assert fifo.try_get() == "p0"  # pops p0, promotes p1's pending item
        assert fifo.peek() == "p1"
        yield sim.timeout(10)
        assert resumed == ["p0", "p1"]
        assert fifo.try_get() == "p1"

    sim.process(producer("p0"))
    sim.process(producer("p1"))
    sim.process(prober())
    sim.run()
    assert resumed == ["p0", "p1"]


def test_occupancy_statistics():
    sim = Simulator()
    fifo = Fifo(sim, capacity=4, track_occupancy=True)

    def producer():
        yield fifo.put("a")  # occupancy 1 at t=0
        yield sim.timeout(100)
        yield fifo.put("b")  # occupancy 2 at t=100

    def consumer():
        yield sim.timeout(200)
        yield fifo.get()
        yield fifo.get()

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert fifo.stat.max_level == 2
    # Level was 1 for t in [0,100), 2 for [100,200), 0 after.
    assert fifo.stat.mean(until=200) == pytest.approx(1.5)


def test_occupancy_accounting_under_zero_latency_drain():
    """A peek/try_get batch drain at a single timestamp (the coalescing
    intake) leaves the time-weighted occupancy exact: the drained items
    had zero residence, so they peak max_level but contribute no area."""
    sim = Simulator()
    fifo = Fifo(sim, capacity=4, track_occupancy=True)
    for i in range(3):
        assert fifo.try_put(i)
    assert fifo.stat.max_level == 3
    drained = []
    while fifo.peek() is not None:
        drained.append(fifo.try_get())
    assert drained == [0, 1, 2]

    def clock():
        yield sim.timeout(100)

    sim.process(clock())
    sim.run()
    assert fifo.stat.mean() == pytest.approx(0.0)
    assert fifo.stat.histogram() == {0: pytest.approx(1.0)}


def test_occupancy_accounting_through_producer_promotion():
    """try_get's pop-and-promote of a blocked producer is one atomic
    level transition: the queue never dips below capacity during the
    swap, so the occupancy integral sees an unbroken full period."""
    sim = Simulator()
    fifo = Fifo(sim, capacity=1, track_occupancy=True)

    def producer(tag):
        yield fifo.put(tag)

    sim.process(producer("p0"))
    sim.process(producer("p1"))

    def consumer():
        yield sim.timeout(50)
        assert fifo.try_get() == "p0"  # promotes p1's pending item
        assert len(fifo) == 1
        yield sim.timeout(50)
        assert fifo.try_get() == "p1"

    sim.process(consumer())
    sim.run()
    assert fifo.stat.max_level == 1
    # Full for the whole [0, 100) span: the swap at t=50 never emptied it.
    assert fifo.stat.mean(until=100) == pytest.approx(1.0)
    assert fifo.stat.histogram(until=100) == {1: pytest.approx(1.0)}


@pytest.mark.parametrize("kernel", KERNELS)
def test_put_to_waiting_getter_wakes_getter_before_putter(kernel):
    """The rendezvous hand-off wakes both sides this cycle, getter first,
    behind any event already queued for the same timestamp."""
    sim = KERNELS[kernel]()
    fifo = Fifo(sim, capacity=1)
    log = []

    def consumer():
        item = yield fifo.get()
        log.append(("got", item, sim.now))

    def producer():
        yield sim.timeout(5)
        sim.call_at(5, lambda: log.append(("queued", sim.now)))
        yield fifo.put("x")
        log.append(("put", sim.now))

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert log == [("queued", 5), ("got", "x", 5), ("put", 5)]
    assert len(fifo) == 0


@pytest.mark.parametrize("kernel", KERNELS)
def test_get_from_full_fifo_wakes_blocked_putter_before_getter(kernel):
    """Freeing a slot promotes the blocked producer's item and wakes the
    producer before the consumer, both at the get's timestamp."""
    sim = KERNELS[kernel]()
    fifo = Fifo(sim, capacity=1)
    log = []

    def producer():
        for i in range(2):
            yield fifo.put(i)
            log.append(("put", i, sim.now))

    def consumer():
        yield sim.timeout(7)
        item = yield fifo.get()
        log.append(("got", item, sim.now))

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert log == [("put", 0, 0), ("put", 1, 7), ("got", 0, 7)]
    assert fifo.snapshot() == [1]


def _stat_driven_run(kernel):
    """Bursty producer/consumer traffic on a tracked FIFO, with the
    occupancy readers sampled at fixed modelled times — the exact shape
    of the telemetry sampler's window-delta reads."""
    sim = KERNELS[kernel]()
    fifo = Fifo(sim, capacity=4, track_occupancy=True)
    samples = []

    def producer():
        for i in range(24):
            if i % 6 == 5:
                # A gap lets the consumer drain the burst to empty.
                yield sim.timeout(7)
            yield fifo.put(i)

    def consumer():
        for n in range(24):
            yield fifo.get()
            # Zero-latency gets chain same-cycle hand-offs; the
            # occasional 2 ps think time lets the producer run ahead.
            yield sim.timeout(0 if n % 3 else 2)

    sim.process(producer(), name="prod")
    sim.process(consumer(), name="cons")

    def sample():
        stat = fifo.stat
        samples.append(
            (
                sim.now,
                stat.area(),
                stat.time_at_or_above(1),
                stat.time_at_or_above(3),
                stat.max_level,
                stat.level,
            )
        )

    for t in (1, 3, 5, 9, 14, 20):
        sim.call_at(t, sample)
    sim.run()
    final = (
        fifo.stat.mean(),
        fifo.stat.histogram(),
        fifo.stat.max_level,
        sim.events_processed,
    )
    return samples, final


def test_occupancy_readers_identical_across_kernels():
    """Every occupancy transition happens at the same modelled instant, in
    the same schedule order, on the wheel and on the heap oracle — so the
    sampled area, threshold-time and peak-level reads match exactly, not
    just approximately."""
    samples_wheel, final_wheel = _stat_driven_run("wheel")
    samples_heap, final_heap = _stat_driven_run("heap")
    assert samples_wheel == samples_heap
    assert final_wheel == final_heap
    # The workload genuinely exercised the readers: occupancy moved, and
    # at least one sample caught a non-empty queue mid-run.
    assert final_wheel[2] >= 2
    assert any(s[5] > 0 for s in samples_wheel)
