"""Global-heap event kernel: the ordering oracle for the timing wheel.

The simplest possible implementation of the kernel's ``(time, scheduling
order)`` contract — one ``heapq`` keyed by ``(time, seq)`` — used by the
tests to check that :class:`repro.sim.Simulator` (the timing wheel) fires
every event in exactly the order this one does.  It reuses the wheel's
process, timeout, waitable and registry machinery and replaces only the
scheduler and the run loop.

The waitables append same-time wake-ups straight onto the wheel's ready
ring, so this kernel's :meth:`HeapSimulator._schedule` puts same-time
events there too, and the ring is moved into the heap, in order, after
every fired event: each wake-up gets its sequence number in the order the
program made it.
"""

from __future__ import annotations

import heapq
from typing import Any, Optional

from repro.sim import DeadlockError, Process, ProcessError, Simulator

__all__ = ["HeapSimulator", "KERNELS"]


class HeapSimulator(Simulator):
    """One global ``heapq`` keyed by ``(time, seq)``."""

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        super().__init__()
        self._heap: list[tuple[int, int, Any, Any]] = []
        self._seq = 0

    def _schedule(self, when: int, target: Any, value: Any) -> None:
        if when <= self.now:
            ready = self._ready
            ready.append(target)
            ready.append(value)
        else:
            self._seq += 1
            heapq.heappush(self._heap, (when, self._seq, target, value))

    def _flush(self) -> None:
        """Move the ready ring into the heap at the current time, in order."""
        ready = self._ready
        for i in range(0, len(ready), 2):
            self._seq += 1
            heapq.heappush(self._heap, (self.now, self._seq, ready[i], ready[i + 1]))
        ready.clear()
        self._peak = max(self._peak, len(self._heap))

    def _fire(self, target: Any, value: Any) -> None:
        if type(target) is not Process:
            target()  # a call_at callback
            return
        if not target.alive:
            return
        target.resumes += 1
        try:
            waitable = target._send(value)
        except StopIteration as stop:
            target._finish(stop.value)
            return
        except Exception as exc:
            target._kill()
            raise ProcessError(target.name, self.now, exc) from exc
        target._wait_for(waitable)

    def run(self, until: Optional[int] = None) -> int:
        """Run until the event heap drains or ``until`` (inclusive) is reached."""
        heap = self._heap
        pop = heapq.heappop
        fired = 0
        self._flush()
        try:
            while heap:
                event = pop(heap)
                when = event[0]
                if until is not None and when > until:
                    # Put it back; the caller may continue the run later.
                    heapq.heappush(heap, event)
                    self.now = until
                    return self.now
                self.now = when
                fired += 1
                try:
                    self._fire(event[2], event[3])
                finally:
                    self._flush()
        finally:
            self.events_processed += fired
        if self._live_processes > 0:
            raise DeadlockError(self._blocked_report())
        return self.now

    @property
    def pending_events(self) -> int:
        return len(self._heap) + (len(self._ready) >> 1)


#: Kernel classes by name, for tests parametrized over both.
KERNELS = {"wheel": Simulator, "heap": HeapSimulator}
