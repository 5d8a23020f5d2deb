"""Unit tests for signals and counted resources."""

import pytest

from repro.sim import Resource, Signal, Simulator


class TestSignal:
    def test_wait_on_high_signal_is_immediate(self):
        sim = Simulator()
        sig = Signal(sim)
        sig.set()
        seen = []

        def proc():
            yield sig.wait()
            seen.append(sim.now)

        sim.process(proc())
        sim.run()
        assert seen == [0]

    def test_wait_blocks_until_set(self):
        sim = Simulator()
        sig = Signal(sim)
        seen = []

        def waiter():
            yield sig.wait()
            seen.append(sim.now)

        def setter():
            yield sim.timeout(40)
            sig.set()

        sim.process(waiter())
        sim.process(setter())
        sim.run()
        assert seen == [40]

    def test_set_wakes_all_waiters(self):
        sim = Simulator()
        sig = Signal(sim)
        seen = []

        def waiter(tag):
            yield sig.wait()
            seen.append(tag)

        for tag in range(3):
            sim.process(waiter(tag))

        def setter():
            yield sim.timeout(5)
            sig.set()

        sim.process(setter())
        sim.run()
        assert sorted(seen) == [0, 1, 2]

    def test_clear_makes_wait_block_again(self):
        sim = Simulator()
        sig = Signal(sim)
        log = []

        def proc():
            sig.set()
            yield sig.wait()  # immediate
            log.append(("first", sim.now))
            sig.clear()
            yield sig.wait()  # blocks until t=30
            log.append(("second", sim.now))

        def setter():
            yield sim.timeout(30)
            sig.set()

        sim.process(proc())
        sim.process(setter())
        sim.run()
        assert log == [("first", 0), ("second", 30)]

    def test_idempotent_set(self):
        sim = Simulator()
        sig = Signal(sim)
        sig.set()
        sig.set()
        assert sig.level


class TestResource:
    def test_acquire_release(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        log = []

        def user(tag, hold):
            yield res.acquire()
            log.append((tag, "in", sim.now))
            yield sim.timeout(hold)
            res.release()
            log.append((tag, "out", sim.now))

        sim.process(user("a", 10))
        sim.process(user("b", 10))
        sim.process(user("c", 10))
        sim.run()
        # a and b enter immediately; c waits for the first release.
        ins = {tag: t for tag, what, t in log if what == "in"}
        assert ins["a"] == 0 and ins["b"] == 0
        assert ins["c"] == 10

    def test_concurrency_never_exceeds_capacity(self):
        sim = Simulator()
        res = Resource(sim, capacity=3)
        active = [0]
        max_active = [0]

        def user(i):
            yield sim.timeout(i % 7)
            yield res.acquire()
            active[0] += 1
            max_active[0] = max(max_active[0], active[0])
            yield sim.timeout(5)
            active[0] -= 1
            res.release()

        for i in range(50):
            sim.process(user(i))
        sim.run()
        assert max_active[0] == 3

    def test_fifo_fairness(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        order = []

        def user(tag, arrive):
            yield sim.timeout(arrive)
            yield res.acquire()
            order.append(tag)
            yield sim.timeout(100)
            res.release()

        sim.process(user("first", 1))
        sim.process(user("second", 2))
        sim.process(user("third", 3))
        sim.process(user("holder", 0))
        sim.run()
        assert order == ["holder", "first", "second", "third"]

    def test_release_without_acquire_raises(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        with pytest.raises(RuntimeError):
            res.release()

    def test_invalid_capacity(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Resource(sim, capacity=0)

    def test_occupancy_tracking(self):
        sim = Simulator()
        res = Resource(sim, capacity=4, track_occupancy=True)

        def user():
            yield res.acquire()
            yield sim.timeout(100)
            res.release()

        sim.process(user())
        sim.process(user())
        sim.run()
        assert res.stat.max_level == 2


class TestBusyTrackerAndSampler:
    def test_busy_tracker_utilization(self):
        from repro.sim import BusyTracker

        sim = Simulator()
        tracker = BusyTracker(sim)

        def proc():
            tracker.begin()
            yield sim.timeout(30)
            tracker.end()
            yield sim.timeout(70)

        sim.process(proc())
        sim.run()
        assert tracker.busy_time == 30
        assert tracker.utilization(100) == pytest.approx(0.3)
        assert tracker.intervals == 1

    def test_busy_tracker_misuse_raises(self):
        from repro.sim import BusyTracker

        sim = Simulator()
        tracker = BusyTracker(sim)
        with pytest.raises(RuntimeError):
            tracker.end()
        tracker.begin()
        with pytest.raises(RuntimeError):
            tracker.begin()

    def test_sampler_moments(self):
        from repro.sim import Sampler

        s = Sampler()
        for x in (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0):
            s.add(x)
        assert s.count == 8
        assert s.mean == pytest.approx(5.0)
        assert s.min == 2.0 and s.max == 9.0
        assert s.stdev == pytest.approx(2.138, abs=1e-3)
        assert s.total == pytest.approx(40.0)

    def test_sampler_empty(self):
        from repro.sim import Sampler

        s = Sampler()
        assert s.mean == 0.0
        assert s.variance == 0.0


def test_time_unit_helpers():
    from repro.sim import NS, US, cycles, fmt_time, ns, us

    assert ns(2) == 2 * NS
    assert us(11.8) == 11_800 * NS
    assert cycles(14, 2 * NS) == 28 * NS
    assert fmt_time(0) == "0ps"
    assert fmt_time(2 * NS) == "2ns"
    assert fmt_time(int(1.5 * US)) == "1.5us"
