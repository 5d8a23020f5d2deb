"""The Task Pool: Nexus++'s main task storage table (paper Table I).

Each entry is one Task Descriptor slot holding ``(busy, tp_i, *f, DC, nD,
nP, P1..P8-or-pointer)``.  Inside Nexus++ a task is identified by its Task
Pool index, so every access is a direct read — no searching.

A task with more parameters than one descriptor can hold spills into
**dummy tasks**: extra Task Pool entries that exist only to store the
overflow parameters.  The last parameter slot of a full descriptor becomes
a pointer to the next entry of the chain (§III-C, Fig. 3), so a descriptor
holding a continuation stores ``max_params - 1`` real parameters while the
chain tail stores up to ``max_params``.

This module is pure bookkeeping — no simulation time.  Every operation
returns the number of table accesses it performed so the caller (a Task
Maestro block) can charge ``accesses * on_chip_access_time``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..traces.trace import Param
from .errors import CapacityError, ProtocolError

__all__ = ["TaskPool", "TPEntry", "entries_needed"]


def entries_needed(n_params: int, max_params: int) -> int:
    """Task Pool entries required to store a task with ``n_params``.

    One descriptor if the parameters fit; otherwise each non-tail entry
    gives up its last slot to the continuation pointer.
    """
    if n_params <= max_params:
        return 1
    payload = max_params - 1  # per non-tail entry
    entries = 1
    remaining = n_params - payload
    while remaining > max_params:
        entries += 1
        remaining -= payload
    return entries + 1


@dataclass
class TPEntry:
    """One Task Descriptor slot (a row of the paper's Table I)."""

    index: int
    busy: bool = False
    func: int = 0
    #: Dependence Counter: outstanding prerequisites before the task is ready.
    dep_count: int = 0
    #: Number of dummy entries chained behind this (parent) entry.
    n_dummies: int = 0
    #: Total parameter count of the whole task (parent entry only).
    n_params: int = 0
    #: Parameters stored in this entry.
    params: List[Param] = field(default_factory=list)
    #: Continuation pointer (index of the next dummy entry), if any.
    next_dummy: Optional[int] = None
    #: True for dummy entries (never scheduled, storage only).
    is_dummy: bool = False
    #: Trace task id of the stored task (parent entry only).
    trace_tid: Optional[int] = None
    valid: bool = False

    def reset(self) -> None:
        self.busy = False
        self.func = 0
        self.dep_count = 0
        self.n_dummies = 0
        self.n_params = 0
        self.params = []
        self.next_dummy = None
        self.is_dummy = False
        self.trace_tid = None
        self.valid = False


class TaskPool:
    """Fixed-size Task Descriptor table with dummy-task spilling."""

    def __init__(self, entries: int, max_params: int, restricted: bool = False):
        if entries < 1:
            raise ValueError("Task Pool needs at least one entry")
        if max_params < 2:
            raise ValueError("max_params must be >= 2 (payload + pointer)")
        self.capacity = entries
        self.max_params = max_params
        self.restricted = restricted
        self.entries = [TPEntry(i) for i in range(entries)]
        self.occupied = 0
        self.high_water = 0
        #: Total dummy entries ever allocated (reported by benches).
        self.dummy_tasks_created = 0

    # ---- sizing -----------------------------------------------------------------

    def entries_for(self, tid: int, n_params: int) -> int:
        """How many Task Pool entries storing task ``tid`` (with
        ``n_params`` parameters) takes.

        In restricted (original-Nexus) mode a task that does not fit one
        descriptor raises :class:`CapacityError` instead.
        """
        need = entries_needed(n_params, self.max_params)
        if self.restricted and need > 1:
            raise CapacityError(
                f"task {tid} has {n_params} parameters; a Task "
                f"Descriptor holds {self.max_params} and dummy tasks are "
                "disabled (Nexus restricted mode)"
            )
        if need > self.capacity:
            raise CapacityError(
                f"task {tid} needs {need} Task Pool entries but the "
                f"pool only has {self.capacity}"
            )
        return need

    # ---- storage ----------------------------------------------------------------

    def store(self, tid: int, func: int, params: Sequence[Param],
              indices: List[int]) -> Tuple[int, int]:
        """Write task ``tid`` (function ``func``, parameter list
        ``params``) into pre-allocated ``indices`` (head first).

        Returns ``(head_index, accesses)``.  The caller obtains ``indices``
        from the TP Free Indices list; their count must equal
        :meth:`entries_for`.
        """
        n_params = len(params)
        need = self.entries_for(tid, n_params)
        if len(indices) != need:
            raise ProtocolError(
                f"task {tid}: got {len(indices)} indices, needs {need}"
            )
        params = list(params)
        head = indices[0]
        accesses = 0
        for chain_pos, idx in enumerate(indices):
            entry = self.entries[idx]
            if entry.valid:
                raise ProtocolError(f"TP entry {idx} already occupied")
            is_tail = chain_pos == len(indices) - 1
            slots = self.max_params if is_tail else self.max_params - 1
            entry.valid = True
            entry.is_dummy = chain_pos > 0
            entry.func = func
            entry.params = params[:slots]
            params = params[slots:]
            entry.next_dummy = None if is_tail else indices[chain_pos + 1]
            if chain_pos == 0:
                entry.trace_tid = tid
                entry.n_params = n_params
                entry.n_dummies = need - 1
                entry.dep_count = 0
            accesses += 1
        if params:
            raise ProtocolError(f"task {tid}: {len(params)} parameters left over")
        self.dummy_tasks_created += need - 1
        self.occupied += need
        if self.occupied > self.high_water:
            self.high_water = self.occupied
        return head, accesses

    def read_params(self, head: int) -> Tuple[List[Param], int]:
        """Read the full parameter list, following the dummy chain.

        Returns ``(params, accesses)`` where accesses counts one table read
        per chain entry (a direct indexed read each — no searching).
        """
        entry = self._get_valid(head)
        if entry.is_dummy:
            raise ProtocolError(f"TP entry {head} is a dummy, not a task head")
        params: List[Param] = []
        accesses = 0
        idx: Optional[int] = head
        while idx is not None:
            e = self._get_valid(idx)
            params.extend(e.params)
            idx = e.next_dummy
            accesses += 1
        return params, accesses

    def free_chain(self, head: int) -> Tuple[List[int], int]:
        """Invalidate the task's entries; returns ``(freed_indices, accesses)``.

        The caller pushes the freed indices back onto the TP Free Indices
        list, as the Handle Finished block does after task completion.
        """
        entry = self._get_valid(head)
        if entry.is_dummy:
            raise ProtocolError(f"TP entry {head} is a dummy, not a task head")
        freed: List[int] = []
        idx: Optional[int] = head
        while idx is not None:
            e = self._get_valid(idx)
            nxt = e.next_dummy
            e.reset()
            freed.append(idx)
            idx = nxt
        self.occupied -= len(freed)
        return freed, len(freed)

    # ---- dependence counter (the DC column) --------------------------------------

    def head(self, index: int) -> TPEntry:
        """The parent entry for a stored task (validated)."""
        entry = self._get_valid(index)
        if entry.is_dummy:
            raise ProtocolError(f"TP entry {index} is a dummy")
        return entry

    def dep_count_of(self, head: int) -> int:
        """Current Dependence Counter of a stored task (a direct read;
        the fast-dispatch prefetch trigger polls it after a resolve)."""
        return self.head(head).dep_count

    def is_live_head(self, head: int) -> bool:
        """True when ``head`` is a valid, non-dummy task head right now.

        Speculative readers (the TD prefetch engines) re-check this after
        winning a port: with several Task Pool ports, a retiring task's
        chain can be freed while a reader was still arbitrating, and the
        in-flight map alone lags the free by the chain-walk time.
        """
        if not 0 <= head < self.capacity:
            return False
        entry = self.entries[head]
        return entry.valid and not entry.is_dummy

    def add_dependences(self, head: int, count: int) -> None:
        """Increment DC by ``count`` at once (test/tooling convenience)."""
        self.head(head).dep_count += count

    def add_dependence(self, head: int) -> None:
        """Increment DC by one (a parameter was queued on a Kick-Off List)."""
        self.head(head).dep_count += 1

    def begin_check(self, head: int) -> None:
        """Set the entry's busy flag while Check Deps walks its parameters.

        This is the paper's ``busy`` column: Handle Finished may decrement
        the Dependence Counter concurrently (a predecessor can retire while
        the new task is still being checked), and the busy flag keeps the
        half-checked task from being declared ready prematurely.
        """
        entry = self.head(head)
        if entry.busy:
            raise ProtocolError(f"TP entry {head} already busy")
        entry.busy = True

    def finish_check(self, head: int) -> bool:
        """Clear the busy flag; True if the task is ready (DC == 0)."""
        entry = self.head(head)
        if not entry.busy:
            raise ProtocolError(f"TP entry {head} was not being checked")
        entry.busy = False
        return entry.dep_count == 0

    def resolve_dependence(self, head: int) -> bool:
        """Decrement DC; True if the task just became ready.

        A task still under Check Deps (busy flag set) is never reported
        ready here — Check Deps itself will notice DC == 0 when it ends.
        """
        entry = self.head(head)
        if entry.dep_count <= 0:
            raise ProtocolError(f"TP entry {head}: DC underflow")
        entry.dep_count -= 1
        return entry.dep_count == 0 and not entry.busy

    # ---- helpers -----------------------------------------------------------------

    def _get_valid(self, index: int) -> TPEntry:
        if not 0 <= index < self.capacity:
            raise ProtocolError(f"TP index {index} out of range")
        entry = self.entries[index]
        if not entry.valid:
            raise ProtocolError(f"TP entry {index} is not valid")
        return entry

    @property
    def is_empty(self) -> bool:
        return self.occupied == 0

    def __repr__(self) -> str:
        return f"<TaskPool {self.occupied}/{self.capacity} high-water {self.high_water}>"
