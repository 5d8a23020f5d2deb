"""Discrete-event simulation core.

This is the SystemC substitute used by the whole reproduction: a
deterministic event-driven kernel in which hardware blocks are Python
generator *processes* that ``yield`` waitables (timeouts, FIFO operations,
signal waits, resource acquisitions).

Design notes
------------
* Time is an integer picosecond count (:mod:`repro.sim.time_units`).
* The ordering contract: events fire in ``(time, scheduling order)`` —
  same-timestamp events fire in the order they were scheduled.  This makes
  every run bit-for-bit deterministic, which the differential tests rely on.
* The scheduler is a calendar-queue / timing wheel built for
  million-event traces: same-timestamp events (the dominant class: FIFO
  handoffs, merge/re-sequencer forwards, kick-queue pops) go to a flat
  *ready ring* drained FIFO with no heap traffic at all; near-future
  events land in per-timestamp calendar buckets (one heap operation per
  *distinct* timestamp, not per event); far-future events beyond the
  sliding ``WHEEL_SPAN`` horizon fall back to a sorted overflow heap and
  are transferred into buckets window by window as time advances.
* Immediate completions (e.g. a ``put`` into a non-full FIFO) complete at
  the *current* time but are still scheduled — one ready-ring append —
  never run inline, mirroring SystemC's evaluate/update phases.
* The hot loop is allocation-light on purpose: resume callbacks are cached
  bound methods, ``Simulator.timeout`` interns one :class:`Timeout` per
  distinct delay, ``call_at`` is closure-free, the ready ring stores flat
  ``callback, value`` pairs (no per-event tuple), and a process's
  "waiting on" note is the waitable itself — its description is only
  rendered if a deadlock report ever needs it.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, Optional

from .errors import DeadlockError, ProcessError

__all__ = ["Simulator", "Process", "Waitable", "Timeout"]

#: Type of the generator body driving a :class:`Process`.
ProcessBody = Generator["Waitable", Any, Any]

#: Interned :class:`Timeout` cache bound per simulator; stop growing it
#: past this many distinct delays (pathological workloads only).
_TIMEOUT_CACHE_LIMIT = 4096


def _dead(value: Any) -> None:
    """Resume callback of a process that has ended: a wake-up that still
    reaches it (e.g. from a queue it was parked on when an exception was
    thrown into it) is dropped, as ``Process._resume`` drops it."""


def _invoke0(callback: Callable[[], None]) -> None:
    """Run-loop adapter for :meth:`Simulator.call_at`: the scheduled entry
    is ``(_invoke0, callback)``, so no per-call closure is allocated."""
    callback()


class Waitable:
    """Base class for everything a process may ``yield``.

    Subclasses implement :meth:`_arm`, called once when the owning process
    yields the waitable; it must arrange for ``proc._resume(value)`` (or
    ``proc._throw(exc)``) to eventually be called.
    """

    __slots__ = ()

    #: Human-readable description used in deadlock reports.
    def describe(self) -> str:
        return type(self).__name__

    def _arm(self, sim: "Simulator", proc: "Process") -> None:  # pragma: no cover
        raise NotImplementedError


class Timeout(Waitable):
    """Resume the process after a fixed delay (possibly zero).

    Timeouts are immutable and armed immediately at yield time, so one
    instance per distinct delay can be shared by every process —
    :meth:`Simulator.timeout` interns them.
    """

    __slots__ = ("delay",)

    def __init__(self, delay: int):
        if delay < 0:
            raise ValueError(f"negative timeout: {delay}")
        self.delay = delay

    def describe(self) -> str:
        return f"timeout({self.delay}ps)"

    def _arm(self, sim: "Simulator", proc: "Process") -> None:
        if self.delay:
            sim._schedule(sim.now + self.delay, proc._resume_cb, None)
        else:
            sim._dispatch(proc._resume_cb, None)


class Process(Waitable):
    """A running simulation process wrapping a generator.

    A process is itself a :class:`Waitable`: other processes may ``yield``
    it to join on its completion and receive its return value.
    """

    __slots__ = ("sim", "name", "_gen", "_send", "_resume_cb", "alive",
                 "result", "_joiners", "_waiting_on")

    def __init__(self, sim: "Simulator", gen: ProcessBody, name: str):
        self.sim = sim
        self.name = name
        self._gen = gen
        # Cached per-process callables: the generator's send and this
        # process's bound resume method.  Scheduling ``proc._resume``
        # directly would allocate a fresh bound-method object per event.
        self._send = gen.send
        self._resume_cb = self._resume
        self.alive = True
        self.result: Any = None
        self._joiners: list[Process] = []
        #: The waitable currently blocking this process (``None`` while
        #: running).  Kept as the object, not a rendered string: deadlock
        #: reports call ``describe()`` lazily, the hot loop never does.
        self._waiting_on: Optional[Waitable] = None
        sim._live_processes += 1
        # First step happens as a zero-delay event so that creating a process
        # inside another process does not run its body re-entrantly.
        sim._schedule(sim.now, self._resume_cb, None)

    # -- driving the generator -------------------------------------------------

    def _resume(self, value: Any) -> None:
        if not self.alive:
            return
        self._waiting_on = None
        try:
            target = self._send(value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except Exception as exc:  # surface with process context
            self._kill()
            raise ProcessError(self.name, self.sim.now, exc) from exc
        # Inline wait-for: the per-event path avoids an extra frame and
        # special-cases the dominant waitable (Timeout) entirely.
        self._waiting_on = target
        if type(target) is Timeout:
            sim = self.sim
            delay = target.delay
            if delay:
                sim._schedule(sim.now + delay, self._resume_cb, None)
            else:
                sim._dispatch(self._resume_cb, None)
        elif isinstance(target, Waitable):
            target._arm(self.sim, self)
        else:
            self._waiting_on = None
            raise ProcessError(
                self.name,
                self.sim.now,
                TypeError(f"process yielded non-waitable {target!r}"),
            )

    def _throw(self, exc: BaseException) -> None:
        """Inject an exception into the process at its current yield point."""
        if not self.alive:
            return
        self._waiting_on = None
        try:
            target = self._gen.throw(exc)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except Exception as err:
            # The process either did not handle the injected exception or
            # raised a new one while handling it: it is dead either way, so
            # take it out of the live count and the deadlock registry before
            # propagating out of the simulator loop.
            self._kill()
            raise ProcessError(self.name, self.sim.now, err) from err
        self._wait_for(target)

    def _kill(self) -> None:
        """Terminate the process after an escaped exception."""
        self.alive = False
        self._release()
        self.sim._live_processes -= 1
        self.sim._forget(self)

    def _release(self) -> None:
        """Drop the references that tie an ended process into cycles: its
        cached bound ``_resume`` (the process itself) and its generator,
        whose frame holds the block that owns the process's queues."""
        self._resume_cb = _dead
        self._send = _dead
        self._gen = None
        self._waiting_on = None

    def _wait_for(self, target: Any) -> None:
        if not isinstance(target, Waitable):
            raise ProcessError(
                self.name,
                self.sim.now,
                TypeError(f"process yielded non-waitable {target!r}"),
            )
        self._waiting_on = target
        target._arm(self.sim, self)

    def _finish(self, result: Any) -> None:
        self.alive = False
        self.result = result
        self._release()
        self.sim._live_processes -= 1
        # Joiner wakeups are batched through the scheduler's same-timestamp
        # path: a burst of same-cycle completions costs
        # one ready-ring append per joiner, never a heap operation.
        sim = self.sim
        for joiner in self._joiners:
            sim._schedule(sim.now, joiner._resume_cb, result)
        self._joiners.clear()
        sim._forget(self)

    # -- Waitable protocol (join) ----------------------------------------------

    def describe(self) -> str:
        return f"process({self.name})"

    def _arm(self, sim: "Simulator", proc: "Process") -> None:
        if self.alive:
            self._joiners.append(proc)
        else:
            sim._dispatch(proc._resume_cb, self.result)

    def __repr__(self) -> str:
        state = "alive" if self.alive else "done"
        return f"<Process {self.name} {state}>"


class Simulator:
    """Deterministic discrete-event simulator on a timing wheel.

    Three tiers, cheapest first:

    * **ready ring** — flat list of ``callback, value`` pairs for events at
      the current timestamp, drained FIFO.  Zero-delay scheduling is two
      list appends; no tuple, no heap, no comparison.
    * **calendar buckets** — ``{time: [callback, value, ...]}`` for events
      before the sliding horizon (``now`` + :data:`WHEEL_SPAN`), plus a
      small heap of *distinct* bucket times.  Within a bucket, list order
      is scheduling order, so the ``(time, seq)`` contract holds with no
      sequence numbers at all.
    * **overflow heap** — ``(time, seq, callback, value)`` tuples for
      far-future events beyond the horizon; transferred into fresh buckets
      window by window as time advances (sorted by ``(time, seq)``, so
      transfer preserves scheduling order exactly).

    The horizon only ever grows, and buckets are only created for times
    below it, so a transferred bucket can never collide with — or reorder
    against — an existing one.

    Typical use::

        sim = Simulator()

        def producer(fifo):
            for i in range(3):
                yield fifo.put(i)
                yield sim.timeout(5 * NS)

        sim.process(producer(my_fifo), name="producer")
        sim.run()
    """

    __slots__ = (
        "now",
        "_seq",
        "_live_processes",
        "_blocked_registry",
        "_dead_registered",
        "_timeouts",
        "events_processed",
        "peak_pending",
        "_ready",
        "_buckets",
        "_times",
        "_overflow",
        "_horizon",
        "_pending",
        "_channels",
    )

    #: Calendar window in picoseconds (~0.26 us).  Block latencies in this
    #: model are a few ns to a few tens of ns, so virtually every event is
    #: a ready-ring append or a bucket insert; only long task executions
    #: ever touch the overflow heap.
    WHEEL_SPAN = 1 << 18

    def __init__(self) -> None:
        #: Current simulation time in picoseconds.
        self.now: int = 0
        self._seq: int = 0
        self._live_processes: int = 0
        # Registry of live processes, for deadlock reports.  Dead processes
        # are pruned lazily (amortized O(1)) so short-lived processes do not
        # accumulate across a long run or pollute later deadlock reports.
        self._blocked_registry: list[Process] = []
        self._dead_registered: int = 0
        self._timeouts: dict[int, Timeout] = {}
        #: Events fired so far (callbacks invoked), for run profiling.
        self.events_processed: int = 0
        #: High-water mark of scheduled-but-unfired events.
        self.peak_pending: int = 0
        self._ready: list[Any] = []
        self._buckets: dict[int, list[Any]] = {}
        self._times: list[int] = []
        self._overflow: list[tuple[int, int, Callable[..., None], Any]] = []
        self._horizon: int = self.WHEEL_SPAN
        self._pending: int = 0
        #: Channels built on this simulator (FIFOs, signals, gates,
        #: resources), each holding a cached waitable that points back at
        #: it; :meth:`close` unlinks them.
        self._channels: list[Any] = []

    # -- scheduling -------------------------------------------------------------

    def _schedule(self, when: int, callback: Callable[[Any], None], value: Any) -> None:
        if when <= self.now:
            # Same-timestamp event: the dominant class.  Flat append onto
            # the ready ring; fires this timestep, in scheduling order.
            ready = self._ready
            ready.append(callback)
            ready.append(value)
        elif when < self._horizon:
            bucket = self._buckets.get(when)
            if bucket is None:
                self._buckets[when] = [callback, value]
                heapq.heappush(self._times, when)
            else:
                bucket.append(callback)
                bucket.append(value)
        else:
            self._seq += 1
            heapq.heappush(self._overflow, (when, self._seq, callback, value))
        pending = self._pending = self._pending + 1
        if pending > self.peak_pending:
            self.peak_pending = pending

    def _dispatch(self, callback: Callable[[Any], None], value: Any) -> None:
        """Complete a wake-up at the current timestamp.

        Exactly ``_schedule(self.now, ...)``, minus the tier test: one
        ready-ring append.
        """
        ready = self._ready
        ready.append(callback)
        ready.append(value)
        pending = self._pending = self._pending + 1
        if pending > self.peak_pending:
            self.peak_pending = pending

    def timeout(self, delay: int) -> Timeout:
        """Waitable that completes ``delay`` picoseconds from now.

        Timeouts are interned per distinct delay: the hot loops yield the
        same few delays (cycle times, hop/access latencies) millions of
        times, and re-validating/allocating per yield was pure churn.
        """
        cache = self._timeouts
        t = cache.get(delay)
        if t is None:
            t = Timeout(delay)
            if len(cache) < _TIMEOUT_CACHE_LIMIT:
                cache[delay] = t
        return t

    def process(self, gen: ProcessBody, name: str = "proc") -> Process:
        """Register a generator as a simulation process (starts at t=now)."""
        proc = Process(self, gen, name)
        self._blocked_registry.append(proc)
        return proc

    def _forget(self, proc: Process) -> None:
        """Note a process death; compact the registry once half are dead."""
        self._dead_registered += 1
        if self._dead_registered * 2 > len(self._blocked_registry):
            self._blocked_registry = [p for p in self._blocked_registry if p.alive]
            self._dead_registered = 0

    def call_at(self, when: int, callback: Callable[[], None]) -> None:
        """Schedule a plain callback (no process) at an absolute time.

        Closure-free: the callback rides as the event's value and a shared
        module-level adapter invokes it, so ``call_at`` allocates nothing
        per call.
        """
        if when < self.now:
            raise ValueError(f"cannot schedule in the past: {when} < {self.now}")
        self._schedule(when, _invoke0, callback)

    # -- running ----------------------------------------------------------------

    def run(self, until: Optional[int] = None) -> int:
        """Run until every tier drains or ``until`` (inclusive) is reached.

        Returns the final simulation time.  Raises :class:`DeadlockError`
        if events drain while processes are still blocked.
        """
        ready = self._ready
        buckets = self._buckets
        times = self._times
        overflow = self._overflow
        fired = 0
        if until is not None and until < self.now and (
            ready or times or overflow
        ):
            # Degenerate backwards pause: nothing at a future time may fire.
            self.now = until
            return until
        try:
            while True:
                if ready:
                    # Drain the ring FIFO.  Callbacks may append more
                    # same-timestamp events; the index chases the growing
                    # tail.  On an escaping exception the consumed prefix
                    # is removed so a resumed run never re-fires it.
                    i = 0
                    try:
                        while i < len(ready):
                            callback = ready[i]
                            value = ready[i + 1]
                            i += 2
                            callback(value)
                    finally:
                        n = i >> 1
                        del ready[:i]
                        self._pending -= n
                        fired += n
                # Advance time: bucket times always precede the overflow
                # horizon, so the next timestamp is the bucket-heap head,
                # or the overflow head once the calendar is empty.
                if times:
                    t = times[0]
                elif overflow:
                    t = overflow[0][0]
                else:
                    break
                if until is not None and t > until:
                    self.now = until
                    return self.now
                self.now = t
                # Slide the horizon and pull the next overflow window into
                # fresh calendar buckets, in (time, seq) order.
                horizon = t + self.WHEEL_SPAN
                if horizon > self._horizon:
                    self._horizon = horizon
                    while overflow and overflow[0][0] < horizon:
                        when, _seq, callback, value = heapq.heappop(overflow)
                        bucket = buckets.get(when)
                        if bucket is None:
                            buckets[when] = [callback, value]
                            heapq.heappush(times, when)
                        else:
                            bucket.append(callback)
                            bucket.append(value)
                heapq.heappop(times)
                # The bucket seeds the ready ring for the new timestamp.
                ready.extend(buckets.pop(t))
        finally:
            self.events_processed += fired
        if self._live_processes > 0:
            raise DeadlockError(self._blocked_report())
        return self.now

    def close(self) -> None:
        """Release a finished simulation by reference counting alone.

        A run ends with every block parked in its endless loop, and every
        channel keeps a cached waitable that points back at it, so without
        this the whole machine sits in reference cycles until the cyclic
        collector's next full pass.  ``close`` closes the parked processes'
        generators, unlinks the channels' cached waitables and waiter
        queues, and drops every pending event.  Statistics stay readable;
        the simulator and its channels cannot run again.
        """
        for proc in self._blocked_registry:
            if proc.alive:
                proc.alive = False
                gen = proc._gen
                proc._release()
                proc._joiners.clear()
                gen.close()
        self._blocked_registry = []
        self._live_processes = 0
        for channel in self._channels:
            channel._unlink()
        self._channels = []
        self._ready.clear()
        self._buckets.clear()
        self._times.clear()
        self._overflow.clear()
        self._pending = 0

    def _blocked_report(self) -> list[tuple[str, str]]:
        return [
            (p.name, p._waiting_on.describe() if p._waiting_on is not None
             else "<unknown>")
            for p in self._blocked_registry
            if p.alive
        ]

    @property
    def pending_events(self) -> int:
        """Number of events currently scheduled (for tests/diagnostics)."""
        return self._pending
