"""Model-based property tests for the kernel primitives.

Hypothesis drives random operation sequences against the simulation
FIFO/Resource and a plain-Python reference model; any divergence in
delivered items or grant order is a kernel bug.  These primitives carry
the whole hardware model, so they get the heaviest scrutiny.
"""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from heap_kernel import HeapSimulator
from repro.sim import DeadlockError, Fifo, Resource, Simulator


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(0, 1000), min_size=1, max_size=40),
    st.integers(1, 5),
    st.lists(st.integers(0, 30), min_size=1, max_size=40),
)
def test_fifo_delivers_everything_in_order(items, capacity, consumer_delays):
    """All items arrive exactly once, in order, for any capacity/timing."""
    sim = Simulator()
    fifo = Fifo(sim, capacity=capacity)
    received = []

    def producer():
        for item in items:
            yield fifo.put(item)

    def consumer():
        for i in range(len(items)):
            delay = consumer_delays[i % len(consumer_delays)]
            if delay:
                yield sim.timeout(delay)
            got = yield fifo.get()
            received.append(got)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert received == items


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 4),  # capacity
    st.lists(  # (arrival_delay, hold_time) per user
        st.tuples(st.integers(0, 20), st.integers(1, 20)),
        min_size=1,
        max_size=25,
    ),
)
def test_resource_never_oversubscribed_and_work_conserving(capacity, users):
    """Occupancy <= capacity at all times; total hold time is conserved."""
    sim = Simulator()
    res = Resource(sim, capacity=capacity)
    active = [0]
    max_active = [0]
    finished = []

    def user(idx, arrive, hold):
        yield sim.timeout(arrive)
        yield res.acquire()
        active[0] += 1
        max_active[0] = max(max_active[0], active[0])
        yield sim.timeout(hold)
        active[0] -= 1
        res.release()
        finished.append(idx)

    for idx, (arrive, hold) in enumerate(users):
        sim.process(user(idx, arrive, hold))
    end = sim.run()
    assert sorted(finished) == list(range(len(users)))
    assert max_active[0] <= capacity
    # Work conservation: the run cannot take longer than serialised time
    # plus the last arrival, nor less than total work / capacity.
    total_hold = sum(h for _, h in users)
    last_arrival = max(a for a, _ in users)
    assert end <= last_arrival + total_hold
    assert end >= (total_hold + capacity - 1) // capacity


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["put", "get"]), st.integers(0, 99)),
        min_size=1,
        max_size=60,
    ),
    st.integers(1, 4),
)
def test_fifo_against_reference_deque(ops, capacity):
    """Interleaved puts/gets match a reference deque simulation.

    A single driver process applies the operation list; the reference
    model applies the same list with identical blocking rules (a put on a
    full deque or get on an empty deque is skipped in both, since a
    single-process driver would deadlock).
    """
    sim = Simulator()
    fifo = Fifo(sim, capacity=capacity)
    ref = deque(maxlen=None)
    got_real = []
    got_ref = []

    def driver():
        for op, value in ops:
            if op == "put":
                if len(fifo) < capacity:
                    yield fifo.put(value)
                    ref.append(value)
            else:
                if len(fifo):
                    item = yield fifo.get()
                    got_real.append(item)
                    got_ref.append(ref.popleft())
            yield sim.timeout(1)

    sim.process(driver())
    sim.run()
    assert got_real == got_ref
    assert list(fifo.snapshot()) == list(ref)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(  # per process: a schedule of (delay, fanout) steps
        st.lists(
            st.tuples(st.integers(0, 300_000), st.integers(0, 3)),
            min_size=1,
            max_size=12,
        ),
        min_size=1,
        max_size=6,
    ),
    st.integers(1, 3),  # fifo capacity
)
def test_wheel_event_order_identical_to_heap(schedules, capacity):
    """The determinism contract, differentially: for arbitrary mixtures of
    zero-delay events, near-future timeouts, far-future overflow timeouts
    (delays beyond WHEEL_SPAN), call_at callbacks and FIFO wakeup fan-out,
    the wheel kernel fires the exact event sequence the heap oracle does.
    """
    def run(kernel):
        sim = kernel()
        fifo = Fifo(sim, capacity=capacity)
        log = []

        def proc(pid, steps):
            for delay, fanout in steps:
                if delay:
                    yield sim.timeout(delay)
                log.append(("step", pid, sim.now))
                for j in range(fanout):
                    sim.call_at(
                        sim.now + (delay // (j + 1)),
                        lambda pid=pid, j=j: log.append(("cb", pid, j, sim.now)),
                    )
                if fanout and not fifo.is_full:
                    yield fifo.put((pid, fanout))
                    log.append(("put", pid, sim.now))

        def drainer():
            while True:
                item = yield fifo.get()
                log.append(("got", item, sim.now))

        for pid, steps in enumerate(schedules):
            sim.process(proc(pid, steps), name=f"p{pid}")
        sim.process(drainer(), name="drain")
        try:
            end = sim.run()
        except DeadlockError:
            end = sim.now  # drainer parks on the empty FIFO: normal drain
        return end, log

    assert run(HeapSimulator) == run(Simulator)


def test_verifier_catches_hardware_lies(monkeypatch):
    """Oracle self-check: a Dependence Table that never blocks must make
    the legality verifier report violations (proving the oracle has teeth).
    """
    from repro.config import SystemConfig
    from repro.hw.dependence_table import DependenceTable
    from repro.machine import run_trace
    from repro.runtime.task_graph import build_task_graph
    from repro.traces import AccessMode, Param, TaskTrace, TraceTask

    def never_blocks(self, tid, addr, size, reads, writes):
        entry, probes = self._lookup(addr)
        if entry is None:
            entry = self._insert(addr, size)
            entry.is_out = writes
            if reads and not writes:
                entry.readers = 1
        else:
            # Lie: grant access regardless of hazards.
            if reads and not writes:
                entry.readers += 1
        return False, probes + 1

    def forgiving_finish(self, tid, addr, reads, writes, **kwargs):
        entry, probes = self._lookup(addr)
        if entry is not None:
            if reads and not writes and entry.readers > 0:
                entry.readers -= 1
            if entry.readers <= 0 and not entry.kick:
                entry.readers = 0
                entry.writer_waits = False
                entry.is_out = False
                self._delete(entry)
        return [], probes + 1

    monkeypatch.setattr(DependenceTable, "check_param", never_blocks)
    monkeypatch.setattr(DependenceTable, "finish_param", forgiving_finish)

    tasks = [
        TraceTask(0, 1, (Param(0x100, 64, AccessMode.OUT),), 1_000_000, 0, 0),
        TraceTask(1, 1, (Param(0x100, 64, AccessMode.IN),), 1_000_000, 0, 0),
    ]
    trace = TaskTrace("lying-hw", tasks)
    result = run_trace(trace, SystemConfig(workers=2, memory_contention=False))
    problems = result.verify_against(build_task_graph(trace))
    assert problems, "verifier failed to detect an illegally early start"
    assert any("RAW violation" in p for p in problems)
