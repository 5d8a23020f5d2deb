"""Global-heap event kernel: the ordering oracle for the timing wheel.

The simplest possible implementation of the kernel's ``(time, scheduling
order)`` contract — one ``heapq`` keyed by ``(time, seq)`` — used by the
tests to check that :class:`repro.sim.Simulator` (the timing wheel) fires
every event in exactly the order this one does.  It reuses the wheel's
process, timeout and registry machinery and replaces only the scheduler.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.sim import DeadlockError, Simulator

__all__ = ["HeapSimulator", "KERNELS"]


class HeapSimulator(Simulator):
    """One global ``heapq`` keyed by ``(time, seq)``."""

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        super().__init__()
        self._heap: list[tuple[int, int, Callable[..., None], Any]] = []

    def _schedule(self, when: int, callback: Callable[[Any], None], value: Any) -> None:
        self._seq += 1
        heap = self._heap
        heapq.heappush(heap, (when, self._seq, callback, value))
        pending = len(heap)
        if pending > self.peak_pending:
            self.peak_pending = pending

    def _dispatch(self, callback: Callable[[Any], None], value: Any) -> None:
        self._schedule(self.now, callback, value)

    def run(self, until: Optional[int] = None) -> int:
        """Run until the event heap drains or ``until`` (inclusive) is reached."""
        heap = self._heap
        pop = heapq.heappop
        fired = 0
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
                event[2](event[3])
        finally:
            self.events_processed += fired
        if self._live_processes > 0:
            raise DeadlockError(self._blocked_report())
        return self.now

    @property
    def pending_events(self) -> int:
        return len(self._heap)


#: Kernel classes by name, for tests parametrized over both.
KERNELS = {"wheel": Simulator, "heap": HeapSimulator}
