"""Bounded FIFO channels.

These model the hardware FIFO lists of the paper (Table IV): the *TDs Sizes*
list, *New Tasks* list, *TP Free Indices* list, *Global Ready Tasks* list,
*Worker Cores IDs* list and the per-core *CiRdyTasks*/*CiFinTasks* lists.

A producer blocks on :meth:`Fifo.put` while the FIFO is full — exactly the
paper's "If this list is full, the Master Core stalls" behaviour — and a
consumer blocks on :meth:`Fifo.get` while it is empty.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from .core import Process, Simulator, Waitable
from .stats import LevelStat

__all__ = ["Fifo", "Put", "Get"]


class Put(Waitable):
    """Waitable put; completes when the item has been accepted.

    One instance is interned per :class:`Fifo` and reused by every
    ``fifo.put(...)`` call: the pending item is carried in :attr:`item`
    until the waitable is armed, which happens at the yield point — i.e.
    before the producing process can possibly issue another ``put`` on the
    same FIFO.  Consequently a ``Put`` must be yielded immediately, never
    stored for later (the process API has no other idiom).
    """

    __slots__ = ("fifo", "item")

    def __init__(self, fifo: "Fifo", item: Any = None):
        self.fifo = fifo
        self.item = item

    def describe(self) -> str:
        return f"put({self.fifo.name})"

    def _arm(self, sim: Simulator, proc: Process) -> None:
        item = self.item
        self.item = None  # do not pin the payload beyond the handoff
        self.fifo._arm_put(sim, proc, item)


class Get(Waitable):
    """Waitable get; completes with the item at the head of the FIFO.

    Stateless, so one instance per :class:`Fifo` serves every consumer.
    """

    __slots__ = ("fifo",)

    def __init__(self, fifo: "Fifo"):
        self.fifo = fifo

    def describe(self) -> str:
        return f"get({self.fifo.name})"

    def _arm(self, sim: Simulator, proc: Process) -> None:
        self.fifo._arm_get(sim, proc)


class Fifo:
    """A bounded FIFO with blocking put/get and occupancy statistics.

    ``capacity=None`` gives an unbounded FIFO (used for result collection in
    tests, never for the modelled hardware lists).
    """

    __slots__ = ("name", "capacity", "_items", "_getters", "_putters", "stat",
                 "_sim", "_put", "_get")

    def __init__(
        self,
        sim: Simulator,
        capacity: Optional[int],
        name: str = "fifo",
        track_occupancy: bool = False,
    ):
        if capacity is not None and capacity < 1:
            raise ValueError(f"FIFO capacity must be >= 1, got {capacity}")
        self._sim = sim
        self.name = name
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Process] = deque()
        self._putters: Deque[tuple[Process, Any]] = deque()
        # LevelStat (a histogram-keeping OccupancyStat) so tracked FIFOs
        # can answer both "mean occupancy" and "time at each depth".
        self.stat = LevelStat(sim) if track_occupancy else None
        # Interned waitables: put/get are the hottest calls in the machine
        # and each used to allocate a fresh object per operation.
        self._put = Put(self)
        self._get = Get(self)

    # -- public API ---------------------------------------------------------------

    def put(self, item: Any) -> Put:
        """Waitable that stores ``item`` (blocks while full).

        The returned waitable is interned and must be yielded immediately.
        """
        put = self._put
        put.item = item
        return put

    def get(self) -> Get:
        """Waitable that removes and returns the head item (blocks while empty)."""
        return self._get

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False if the FIFO is full.

        Only legal when no consumer could be starved: used for pre-filling
        (e.g. loading all Task Pool indices into the free list at reset).
        """
        if self._getters:
            getter = self._getters.popleft()
            self._sim._schedule(self._sim.now, getter._resume_cb, item)
            return True
        if self.capacity is not None and len(self._items) >= self.capacity:
            return False
        self._items.append(item)
        self._note()
        return True

    def try_get(self) -> Any:
        """Non-blocking get; returns the head item or ``None`` when empty.

        Used by arbiters that scan several FIFOs (the sharded Maestro's
        work-stealing schedulers).  The modelled hardware lists never carry
        ``None`` payloads, so the sentinel is unambiguous.
        """
        if self._items:
            item = self._items.popleft()
            if self._putters:
                putter, pending = self._putters.popleft()
                self._items.append(pending)
                self._sim._schedule(self._sim.now, putter._resume_cb, None)
            self._note()
            return item
        if self._putters:
            putter, pending = self._putters.popleft()
            self._sim._schedule(self._sim.now, putter._resume_cb, None)
            return pending
        return None

    def peek(self) -> Any:
        """The head item without removing it, or ``None`` when empty.

        Used by batch-draining arbiters (the coalescing resolve/check
        intakes) that must inspect a stamped message's arrival time
        before deciding to pop it.  No events, no statistics — a wire
        tap.  ``peek`` shows exactly what the next ``get``/``try_get``
        would deliver: when the queue proper is empty but a producer is
        blocked (capacity reached by racing getters at the same
        timestamp), the head is that producer's pending item — reporting
        ``None`` there would stall a batch drain one message early and
        reorder it behind the next intake round.  The pending item is
        *not* consumed and its producer stays blocked.
        """
        if self._items:
            return self._items[0]
        if self._putters:
            return self._putters[0][1]
        return None

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    @property
    def is_empty(self) -> bool:
        return not self._items

    def snapshot(self) -> list[Any]:
        """Copy of the current contents, head first (diagnostics only)."""
        return list(self._items)

    # -- kernel side ---------------------------------------------------------------

    def _note(self) -> None:
        if self.stat is not None:
            self.stat.record(len(self._items))

    def _arm_put(self, sim: Simulator, proc: Process, item: Any) -> None:
        if self._getters:
            # Hand the item straight to the first waiting consumer; both
            # wake this cycle, getter before producer.
            getter = self._getters.popleft()
            sim._dispatch(getter._resume_cb, item)
            sim._dispatch(proc._resume_cb, None)
            return
        if self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            self._note()
            sim._dispatch(proc._resume_cb, None)
            return
        self._putters.append((proc, item))

    def _arm_get(self, sim: Simulator, proc: Process) -> None:
        if self._items:
            item = self._items.popleft()
            if self._putters:
                # A blocked producer can now complete; its item takes the
                # freed slot, preserving FIFO order.  Putter wakes before
                # the consumer, as the two schedules always did.
                putter, pending = self._putters.popleft()
                self._items.append(pending)
                self._note()
                sim._dispatch(putter._resume_cb, None)
                sim._dispatch(proc._resume_cb, item)
                return
            self._note()
            sim._dispatch(proc._resume_cb, item)
            return
        if self._putters:
            # Empty FIFO but a blocked producer exists (capacity reached by
            # racing getters at the same timestamp): take its item directly.
            putter, pending = self._putters.popleft()
            sim._dispatch(putter._resume_cb, None)
            sim._dispatch(proc._resume_cb, pending)
            return
        self._getters.append(proc)

    def __repr__(self) -> str:
        cap = "inf" if self.capacity is None else self.capacity
        return f"<Fifo {self.name} {len(self._items)}/{cap}>"
