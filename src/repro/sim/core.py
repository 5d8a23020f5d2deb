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
  *ready ring* drained FIFO with no heap traffic at all; every future
  event lands in a per-timestamp calendar bucket (one heap operation per
  *distinct* timestamp, not per event).
* Immediate completions (e.g. a ``put`` into a non-full FIFO) complete at
  the *current* time but are still scheduled — one ready-ring append —
  never run inline, mirroring SystemC's evaluate/update phases.
* The hot loop is call-light and allocation-light on purpose: the ready
  ring holds the :class:`Process` itself and :meth:`Simulator.run`
  resumes it inline; each waitable's ``_arm`` appends its wake-ups
  straight onto the ring; ``Simulator.timeout`` interns one
  :class:`Timeout` per distinct delay; the ring stores flat
  ``process, value`` pairs (no per-event tuple); pending events are
  counted once per drain, not per schedule; and a process's "waiting on"
  note is the waitable itself — its description is only rendered if a
  deadlock report ever needs it.
"""

from __future__ import annotations

import heapq
import re
from typing import Any, Callable, Generator, Optional

from .errors import DeadlockError, ProcessError

__all__ = ["Simulator", "Process", "Waitable", "Timeout"]

#: Type of the generator body driving a :class:`Process`.
ProcessBody = Generator["Waitable", Any, Any]

#: Interned :class:`Timeout` cache bound per simulator; stop growing it
#: past this many distinct delays (pathological workloads only).
_TIMEOUT_CACHE_LIMIT = 4096

#: ``events_by_block`` key for fired events that resumed no live process:
#: ``call_at`` callbacks and wake-ups that reach an ended process.
OTHER_EVENTS = "(no live process)"

_DIGITS = re.compile(r"\d+")


def block_name(process_name: str) -> str:
    """A process name with its digit runs folded to ``N``, so every shard,
    core or task instance of one block shares a key (``smaestro.sN.check``)."""
    return _DIGITS.sub("N", process_name)


class Waitable:
    """Base class for everything a process may ``yield``.

    Subclasses implement :meth:`_arm`, called once when the owning process
    yields the waitable; it must arrange for the process to be woken with
    a value — by appending ``proc, value`` to ``sim._ready`` when it
    completes at the current time — or for ``proc._throw(exc)`` to be
    called.
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
        sim._schedule(sim.now + self.delay, proc, None)


class Process(Waitable):
    """A running simulation process wrapping a generator.

    A process is itself a :class:`Waitable`: other processes may ``yield``
    it to join on its completion and receive its return value.
    """

    __slots__ = ("sim", "name", "_gen", "_send", "alive", "result",
                 "_joiners", "_waiting_on", "resumes")

    def __init__(self, sim: "Simulator", gen: ProcessBody, name: str):
        self.sim = sim
        self.name = name
        self._gen = gen
        #: The generator's cached ``send``; :meth:`Simulator.run` resumes
        #: the process through it.
        self._send = gen.send
        self.alive = True
        self.result: Any = None
        self._joiners: list[Process] = []
        #: The waitable currently blocking this process.  Kept as the
        #: object, not a rendered string: deadlock reports call
        #: ``describe()`` lazily, the hot loop never does.
        self._waiting_on: Optional[Waitable] = None
        #: Events that resumed this process while it was alive.
        self.resumes = 0
        sim._live_processes += 1
        # First step happens as a zero-delay event so that creating a process
        # inside another process does not run its body re-entrantly.
        sim._schedule(sim.now, self, None)

    # -- driving the generator -------------------------------------------------

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
        generator and the generator's cached ``send``, whose frame holds
        the block that owns the process's queues.  A wake-up that still
        reaches the process (e.g. from a queue it was parked on when an
        exception was thrown into it) is dropped by the ``alive`` check.
        Its resume count moves to the simulator's per-block tally."""
        ended = self.sim._ended_resumes
        block = block_name(self.name)
        ended[block] = ended.get(block, 0) + self.resumes
        self._send = None
        self._gen = None
        self._waiting_on = None

    def _wait_for(self, target: Any) -> None:
        if not isinstance(target, Waitable):
            # A process that yields what it cannot wait on is dead, as one
            # whose body raised is.
            self._kill()
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
            sim._schedule(sim.now, joiner, result)
        self._joiners.clear()
        sim._forget(self)

    # -- Waitable protocol (join) ----------------------------------------------

    def describe(self) -> str:
        return f"process({self.name})"

    def _arm(self, sim: "Simulator", proc: "Process") -> None:
        if self.alive:
            self._joiners.append(proc)
        else:
            ready = sim._ready
            ready.append(proc)
            ready.append(self.result)

    def __repr__(self) -> str:
        state = "alive" if self.alive else "done"
        return f"<Process {self.name} {state}>"


class Simulator:
    """Deterministic discrete-event simulator on a timing wheel.

    Two tiers, cheapest first:

    * **ready ring** — flat list of ``process, value`` pairs for events at
      the current timestamp, drained FIFO by :meth:`run`, which resumes
      each process inline.  Zero-delay scheduling is two list appends,
      made directly by the waitables' ``_arm``; no tuple, no heap, no
      comparison, no call.
    * **calendar buckets** — ``{time: [process, value, ...]}`` for every
      future event, plus a heap of the *distinct* bucket times.  Within a
      bucket, list order is scheduling order, so the ``(time, seq)``
      contract holds with no sequence numbers at all.

    An entry that is not a :class:`Process` is a :meth:`call_at` callback,
    called with no arguments.

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
        "_live_processes",
        "_blocked_registry",
        "_dead_registered",
        "_timeouts",
        "events_processed",
        "_ended_resumes",
        "_peak",
        "_ready",
        "_buckets",
        "_times",
        "_pending",
        "_channels",
    )

    def __init__(self) -> None:
        #: Current simulation time in picoseconds.
        self.now: int = 0
        self._live_processes: int = 0
        # Registry of live processes, for deadlock reports.  Dead processes
        # are pruned lazily (amortized O(1)) so short-lived processes do not
        # accumulate across a long run or pollute later deadlock reports.
        self._blocked_registry: list[Process] = []
        self._dead_registered: int = 0
        self._timeouts: dict[int, Timeout] = {}
        #: Events fired so far (callbacks invoked), for run profiling.
        self.events_processed: int = 0
        #: Resumes of ended processes per :func:`block_name`.
        self._ended_resumes: dict[str, int] = {}
        # Pending-event high-water mark as of the last drain's end.
        self._peak: int = 0
        self._ready: list[Any] = []
        self._buckets: dict[int, list[Any]] = {}
        self._times: list[int] = []
        # Events waiting in calendar buckets (the ring's are len // 2).
        self._pending: int = 0
        #: Channels built on this simulator (FIFOs, signals, resources),
        #: each holding a cached waitable that points back at it;
        #: :meth:`close` unlinks them.
        self._channels: list[Any] = []

    # -- scheduling -------------------------------------------------------------

    def _schedule(self, when: int, target: Any, value: Any) -> None:
        if when <= self.now:
            # Same-timestamp event: the dominant class.  Flat append onto
            # the ready ring; fires this timestep, in scheduling order.
            ready = self._ready
            ready.append(target)
            ready.append(value)
            return
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [target, value]
            heapq.heappush(self._times, when)
        else:
            bucket.append(target)
            bucket.append(value)
        self._pending += 1

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

        The callback itself is the event's entry (its value is unused), so
        ``call_at`` allocates nothing per call.
        """
        if when < self.now:
            raise ValueError(f"cannot schedule in the past: {when} < {self.now}")
        self._schedule(when, callback, None)

    # -- running ----------------------------------------------------------------

    def run(self, until: Optional[int] = None) -> int:
        """Run until both tiers drain or ``until`` (inclusive) is reached.

        Returns the final simulation time.  Raises :class:`DeadlockError`
        if events drain while processes are still blocked.
        """
        ready = self._ready
        buckets = self._buckets
        times = self._times
        now = self.now
        fired = 0
        if until is not None and until < now and (ready or times):
            # Degenerate backwards pause: nothing at a future time may fire.
            self.now = until
            return until
        try:
            while True:
                if ready:
                    # Drain the ring FIFO, resuming each process inline.
                    # Resumes may append more same-timestamp events; the
                    # index chases the growing tail.  On an escaping
                    # exception the consumed prefix is removed so a resumed
                    # run never re-fires it.
                    i = 0
                    try:
                        while i < len(ready):
                            proc = ready[i]
                            value = ready[i + 1]
                            i += 2
                            if type(proc) is not Process:
                                proc()  # a call_at callback
                                continue
                            if not proc.alive:
                                continue
                            proc.resumes += 1
                            try:
                                target = proc._send(value)
                            except StopIteration as stop:
                                proc._finish(stop.value)
                                continue
                            except Exception as exc:  # surface with process context
                                proc._kill()
                                raise ProcessError(proc.name, now, exc) from exc
                            proc._waiting_on = target
                            # The dominant waitable, Timeout, is armed inline.
                            if type(target) is Timeout:
                                delay = target.delay
                                if delay:
                                    when = now + delay
                                    bucket = buckets.get(when)
                                    if bucket is None:
                                        buckets[when] = [proc, None]
                                        heapq.heappush(times, when)
                                    else:
                                        bucket.append(proc)
                                        bucket.append(None)
                                    self._pending += 1
                                else:
                                    ready.append(proc)
                                    ready.append(None)
                            elif isinstance(target, Waitable):
                                target._arm(self, proc)
                            else:
                                proc._wait_for(target)  # raises ProcessError
                    finally:
                        # Pending events only grow within a drain, so its
                        # end is the high-water mark: the whole ring (the
                        # fired prefix included) plus the bucketed events.
                        pending = (len(ready) >> 1) + self._pending
                        if pending > self._peak:
                            self._peak = pending
                        del ready[:i]
                        fired += i >> 1
                # Advance time to the earliest bucket.
                if not times:
                    break
                t = times[0]
                if until is not None and t > until:
                    self.now = until
                    return until
                self.now = now = t
                heapq.heappop(times)
                # The bucket seeds the ready ring for the new timestamp.
                bucket = buckets.pop(t)
                self._pending -= len(bucket) >> 1
                ready.extend(bucket)
        finally:
            self.events_processed += fired
        if self._live_processes > 0:
            raise DeadlockError(self._blocked_report())
        return now

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
        self._peak = self.peak_pending
        self._ready.clear()
        self._buckets.clear()
        self._times.clear()
        self._pending = 0

    def _blocked_report(self) -> list[tuple[str, str]]:
        return [
            (p.name, p._waiting_on.describe() if p._waiting_on is not None
             else "<unknown>")
            for p in self._blocked_registry
            if p.alive
        ]

    def events_by_block(self) -> dict[str, int]:
        """Fired events per :func:`block_name`, most first; they sum to
        :attr:`events_processed`, with any event that resumed no live
        process under :data:`OTHER_EVENTS`."""
        counts = dict(self._ended_resumes)
        for proc in self._blocked_registry:
            if proc.alive:
                block = block_name(proc.name)
                counts[block] = counts.get(block, 0) + proc.resumes
        other = self.events_processed - sum(counts.values())
        if other:
            counts[OTHER_EVENTS] = other
        return dict(sorted(
            ((k, v) for k, v in counts.items() if v),
            key=lambda kv: (-kv[1], kv[0]),
        ))

    @property
    def pending_events(self) -> int:
        """Number of events currently scheduled (for tests/diagnostics)."""
        return self._pending + (len(self._ready) >> 1)

    @property
    def peak_pending(self) -> int:
        """High-water mark of scheduled-but-unfired events.

        Events fired by a drain leave the count only when the drain ends,
        so between two drain ends it can only grow: the maxima of those
        ends and of the current count are the maximum over all time.
        """
        return max(self._peak, self.pending_events)
