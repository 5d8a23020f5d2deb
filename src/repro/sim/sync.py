"""Synchronization primitives: 1-bit signals, gates and counted resources.

The paper stresses that "all events and notifications are one-bit signals"
between Task Maestro blocks and Task Controllers.  :class:`Signal` models a
level-sensitive 1-bit line with wait-until-set semantics, :class:`Gate`
models a 'some request pending' line that round-robin arbiters (the *Send
TDs* and *Handle Finished* blocks) sleep on, and :class:`Resource` models
counted resources such as the 32 off-chip memory banks.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from .core import Process, Simulator, Waitable
from .stats import OccupancyStat

__all__ = ["Signal", "Gate", "Resource", "Acquire"]


class _SignalWait(Waitable):
    __slots__ = ("signal",)

    def __init__(self, signal: "Signal"):
        self.signal = signal

    def describe(self) -> str:
        return f"wait({self.signal.name})"

    def _arm(self, sim: Simulator, proc: Process) -> None:
        if self.signal._level:
            sim._dispatch(proc._resume_cb, None)
        else:
            self.signal._waiters.append(proc)


class Signal:
    """Level-sensitive 1-bit signal.

    ``set()`` raises the line and wakes all current waiters; ``clear()``
    lowers it.  A process that waits while the line is high resumes
    immediately (at the same timestamp).
    """

    __slots__ = ("_sim", "name", "_level", "_waiters", "_wait")

    def __init__(self, sim: Simulator, name: str = "signal"):
        self._sim = sim
        self.name = name
        self._level = False
        self._waiters: Deque[Process] = deque()
        self._wait = _SignalWait(self)
        sim._channels.append(self)

    def _unlink(self) -> None:
        """Break the signal's cycles once its simulator closes."""
        self._wait = None
        self._waiters.clear()

    @property
    def level(self) -> bool:
        return self._level

    def set(self) -> None:
        if self._level:
            return
        self._level = True
        while self._waiters:
            proc = self._waiters.popleft()
            self._sim._schedule(self._sim.now, proc._resume_cb, None)

    def clear(self) -> None:
        self._level = False

    def wait(self) -> _SignalWait:
        """Waitable that completes when the line is (or becomes) high."""
        return self._wait

    def __repr__(self) -> str:
        return f"<Signal {self.name} {'high' if self._level else 'low'}>"


class _GateWait(Waitable):
    __slots__ = ("gate",)

    def __init__(self, gate: "Gate"):
        self.gate = gate

    def describe(self) -> str:
        return f"gate({self.gate.name}, count={self.gate._count})"

    def _arm(self, sim: Simulator, proc: Process) -> None:
        if self.gate._count > 0:
            sim._dispatch(proc._resume_cb, None)
        else:
            self.gate._waiters.append(proc)


class Gate:
    """Counted wake-up line: 'at least one request is pending'.

    Producers call :meth:`raise_request`; the arbiter process waits on the
    gate, then scans its request lines round-robin and calls
    :meth:`drop_request` for each one it services.  Unlike a FIFO this does
    not impose an order — the arbiter's own scan order decides, which is
    exactly how the paper's round-robin blocks behave.
    """

    __slots__ = ("_sim", "name", "_count", "_waiters", "_wait")

    def __init__(self, sim: Simulator, name: str = "gate"):
        self._sim = sim
        self.name = name
        self._count = 0
        self._waiters: Deque[Process] = deque()
        self._wait = _GateWait(self)
        sim._channels.append(self)

    def _unlink(self) -> None:
        """Break the gate's cycles once its simulator closes."""
        self._wait = None
        self._waiters.clear()

    @property
    def pending(self) -> int:
        return self._count

    def raise_request(self) -> None:
        self._count += 1
        if self._count == 1:
            while self._waiters:
                proc = self._waiters.popleft()
                self._sim._schedule(self._sim.now, proc._resume_cb, None)

    def drop_request(self) -> None:
        if self._count <= 0:
            raise RuntimeError(f"gate {self.name}: drop_request with no pending request")
        self._count -= 1

    def wait(self) -> _GateWait:
        """Waitable that completes while at least one request is pending."""
        return self._wait

    def __repr__(self) -> str:
        return f"<Gate {self.name} pending={self._count}>"


class Acquire(Waitable):
    """Waitable acquisition of one unit of a :class:`Resource`."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        self.resource = resource

    def describe(self) -> str:
        return f"acquire({self.resource.name})"

    def _arm(self, sim: Simulator, proc: Process) -> None:
        res = self.resource
        if res._in_use < res.capacity:
            res._in_use += 1
            res._note()
            sim._dispatch(proc._resume_cb, None)
        else:
            res._waiters.append(proc)


class Resource:
    """Counted resource with FIFO-ordered waiters.

    Models the paper's 32-bank off-chip memory constraint: "no more than 32
    tasks can access the memory at a given time".
    """

    __slots__ = ("_sim", "name", "capacity", "_in_use", "_waiters", "stat",
                 "_acquire")

    def __init__(
        self,
        sim: Simulator,
        capacity: int,
        name: str = "resource",
        track_occupancy: bool = False,
    ):
        if capacity < 1:
            raise ValueError(f"resource capacity must be >= 1, got {capacity}")
        self._sim = sim
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Process] = deque()
        self.stat: Optional[OccupancyStat] = (
            OccupancyStat(sim) if track_occupancy else None
        )
        self._acquire = Acquire(self)
        sim._channels.append(self)

    def _unlink(self) -> None:
        """Break the resource's cycles once its simulator closes."""
        self._acquire = None
        self._waiters.clear()

    def acquire(self) -> Acquire:
        """Waitable that grants one unit (blocks while all units are busy)."""
        return self._acquire

    def release(self) -> None:
        """Return one unit; wakes the longest-waiting acquirer, if any."""
        if self._in_use <= 0:
            raise RuntimeError(f"resource {self.name}: release without acquire")
        if self._waiters:
            proc = self._waiters.popleft()
            # The unit passes directly to the waiter; _in_use is unchanged.
            self._sim._schedule(self._sim.now, proc._resume_cb, None)
        else:
            self._in_use -= 1
            self._note()

    def _note(self) -> None:
        if self.stat is not None:
            self.stat.record(self._in_use)

    def __repr__(self) -> str:
        return f"<Resource {self.name} {self._in_use}/{self.capacity} (+{len(self._waiters)} waiting)>"
