"""Golden-model task graph: StarSs dependence semantics in plain software.

This is the reference the hardware model is differentially tested against.
It applies the same rules as the paper's Listing 2, expressed directly:

* a task **reading** address A depends on the most recent preceding task
  (in serial program order) that **writes** A;
* a task **writing** A depends on that writer *and* on every reader of A
  since that writer (WAR), and then becomes the new "last writer" (WAW);
* ``inout`` parameters are both.

Note the hardware queues a late reader behind a *waiting* writer (the
writer-waits flag); that is the same partial order as "reader depends on
last preceding writer", because the queued writer precedes the reader in
program order.  The equivalence is exercised by the differential tests.

Besides edges, this module computes scheduling-theoretic quantities used by
the analysis layer and the test oracles: critical path length and the
maximum/average parallelism profile.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import defaultdict
from collections.abc import Mapping, Sequence
from itertools import accumulate, pairwise
from typing import Dict, Iterator, List, Tuple

from ..traces.trace import AccessMode, TaskTrace

__all__ = ["TaskGraph", "build_task_graph", "DependenceKind"]


class DependenceKind:
    """Edge labels (true/anti/output dependencies)."""

    RAW = "RAW"
    WAR = "WAR"
    WAW = "WAW"


#: Edge kind by its stored byte, which is also its strength rank: a pair
#: carrying several hazards keeps the strongest (RAW > WAW > WAR).
_KINDS = (DependenceKind.WAR, DependenceKind.WAW, DependenceKind.RAW)
_WAR, _WAW, _RAW = range(3)
_IN, _OUT = int(AccessMode.IN), int(AccessMode.OUT)


class _Rows(Sequence):
    """Adjacency rows of one CSR (``offsets``, ``ids``): ``rows[t]`` is the
    frozenset of task ids in row ``t``."""

    __slots__ = ("_offsets", "_ids")

    def __init__(self, offsets: array, ids: array):
        self._offsets = offsets
        self._ids = ids

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __getitem__(self, tid: int) -> frozenset:
        return frozenset(self._ids[self._offsets[tid]:self._offsets[tid + 1]])


class _EdgeKinds(Mapping):
    """Read-only ``(pred, succ) -> kind`` view of the predecessor CSR,
    iterated by ascending successor, then ascending predecessor."""

    __slots__ = ("_graph",)

    def __init__(self, graph: "TaskGraph"):
        self._graph = graph

    def __getitem__(self, edge: Tuple[int, int]) -> str:
        k = self._graph._edge_index(*edge)
        if k < 0:
            raise KeyError(edge)
        return _KINDS[self._graph._pred_kinds[k]]

    def __len__(self) -> int:
        return len(self._graph._pred_ids)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        offsets, ids = self._graph._pred_offsets, self._graph._pred_ids
        for succ in range(len(offsets) - 1):
            for k in range(offsets[succ], offsets[succ + 1]):
                yield ids[k], succ

    def values(self) -> List[str]:
        """Every edge's kind, in iteration order (no per-edge search)."""
        return [_KINDS[kind] for kind in self._graph._pred_kinds]


class TaskGraph:
    """Immutable dependence DAG over a trace, with analysis helpers.

    Stored as predecessor CSR: ``_pred_offsets`` (one int64 per task plus
    one), ``_pred_ids`` (int32 predecessor ids, ascending within a row) and
    ``_pred_kinds`` (one kind byte per edge).  Successor CSR is derived on
    first use.  ``predecessors``/``successors`` rows, ``edge_kinds`` and
    ``is_edge`` keep the meaning of the set-of-sets graph this replaced.
    """

    def __init__(self, trace: TaskTrace, pred_offsets: array, pred_ids: array,
                 pred_kinds: bytes):
        self.trace = trace
        self._pred_offsets = pred_offsets
        self._pred_ids = pred_ids
        self._pred_kinds = pred_kinds
        self._succ_offsets: array | None = None
        self._succ_ids: array | None = None

    @property
    def predecessors(self) -> _Rows:
        """``predecessors[tid]`` -> frozenset of prerequisite task ids."""
        return _Rows(self._pred_offsets, self._pred_ids)

    @property
    def successors(self) -> _Rows:
        """``successors[tid]`` -> frozenset of dependent task ids.

        A row is built from ascending ids, as the set-of-sets graph added
        them, so it iterates in the same order; the software runtime's
        release order (and so its pinned schedules) depends on that.
        """
        if self._succ_offsets is None:
            self._derive_successors()
        return _Rows(self._succ_offsets, self._succ_ids)

    @property
    def edge_kinds(self) -> _EdgeKinds:
        """Edge kinds keyed by ``(pred, succ)``; a pair may carry several
        hazards, the strongest (RAW > WAW > WAR) is kept."""
        return _EdgeKinds(self)

    def _derive_successors(self) -> None:
        """Successor CSR by a counting sort of the predecessor CSR: each
        edge is placed in its predecessor's row while successors are walked
        in ascending order, so every row comes out ascending."""
        preds = self._pred_ids
        counts = array("q", bytes(8 * (self.n_tasks + 1)))
        for pred in preds:
            counts[pred + 1] += 1
        offsets = array("q", accumulate(counts))
        cursor = array("q", offsets)
        ids = array("i", bytes(4 * len(preds)))
        for succ, (lo, hi) in enumerate(pairwise(self._pred_offsets)):
            for pred in preds[lo:hi]:
                ids[cursor[pred]] = succ
                cursor[pred] += 1
        self._succ_offsets = offsets
        self._succ_ids = ids

    def _edge_index(self, pred: int, succ: int) -> int:
        """CSR position of edge ``pred -> succ``, or -1 when absent."""
        if not 0 <= succ < self.n_tasks:
            return -1
        lo, hi = self._pred_offsets[succ], self._pred_offsets[succ + 1]
        k = bisect_left(self._pred_ids, pred, lo, hi)
        return k if k < hi and self._pred_ids[k] == pred else -1

    # ---- basic queries ----------------------------------------------------------

    @property
    def n_tasks(self) -> int:
        return len(self._pred_offsets) - 1

    @property
    def n_edges(self) -> int:
        return len(self._pred_ids)

    def in_degree(self, tid: int) -> int:
        return self._pred_offsets[tid + 1] - self._pred_offsets[tid]

    def roots(self) -> List[int]:
        """Tasks with no prerequisites (ready at time zero)."""
        offsets = self._pred_offsets
        return [t for t in range(self.n_tasks) if offsets[t] == offsets[t + 1]]

    def is_edge(self, pred: int, succ: int) -> bool:
        return self._edge_index(pred, succ) >= 0

    # ---- scheduling-theoretic bounds ---------------------------------------------

    def task_cost(self, tid: int) -> int:
        """Serial per-task cost used in bounds: exec plus memory phases."""
        t = self.trace
        return t.exec_time[tid] + t.read_time[tid] + t.write_time[tid]

    @property
    def total_work(self) -> int:
        """T1: serial execution time of the whole trace."""
        return self.trace.total_exec_time + self.trace.total_memory_time

    def critical_path(self) -> int:
        """T-infinity: longest cost-weighted path through the DAG."""
        n = self.n_tasks
        offsets, ids = self._pred_offsets, self._pred_ids
        finish = [0] * n
        for tid in range(n):  # tids are a topological order (program order)
            start = max((finish[p] for p in ids[offsets[tid]:offsets[tid + 1]]),
                        default=0)
            finish[tid] = start + self.task_cost(tid)
        return max(finish) if n else 0

    def parallelism_profile(self) -> List[int]:
        """Number of tasks at each unit-cost dataflow step.

        Uses unit task costs (pure graph shape): profile[s] = tasks whose
        longest prerequisite chain has length s.  For the wavefront this is
        the paper's "ramping effect" curve.
        """
        n = self.n_tasks
        offsets, ids = self._pred_offsets, self._pred_ids
        depth = [0] * n
        for tid in range(n):
            depth[tid] = max(
                (depth[p] + 1 for p in ids[offsets[tid]:offsets[tid + 1]]),
                default=0,
            )
        profile: Dict[int, int] = defaultdict(int)
        for d in depth:
            profile[d] += 1
        return [profile[s] for s in range(max(profile) + 1)] if n else []

    def max_parallelism(self) -> int:
        return max(self.parallelism_profile()) if self.n_tasks else 0

    def average_parallelism(self) -> float:
        prof = self.parallelism_profile()
        return self.n_tasks / len(prof) if prof else 0.0

    # ---- validation helpers ---------------------------------------------------------

    def check_schedule(
        self,
        start_times: Sequence[int],
        finish_times: Sequence[int],
    ) -> List[str]:
        """Return a list of dependence violations for a simulated schedule.

        A legal schedule starts every task no earlier than the finish of all
        its predecessors.  Empty list = legal.  Problems are listed by
        ascending successor id and, within one successor, by ascending
        predecessor id.
        """
        problems = []
        if len(start_times) != self.n_tasks or len(finish_times) != self.n_tasks:
            problems.append(
                f"schedule covers {len(start_times)} tasks, trace has {self.n_tasks}"
            )
            return problems
        offsets, ids, kinds = self._pred_offsets, self._pred_ids, self._pred_kinds
        for succ in range(self.n_tasks):
            start = start_times[succ]
            for k in range(offsets[succ], offsets[succ + 1]):
                pred = ids[k]
                if finish_times[pred] > start:
                    problems.append(
                        f"{_KINDS[kinds[k]]} violation: task {succ} started at "
                        f"{start} before task {pred} finished at "
                        f"{finish_times[pred]}"
                    )
        return problems


def build_task_graph(trace: TaskTrace) -> TaskGraph:
    """Run the golden dependence analysis over a trace in program order.

    Emits predecessor CSR directly: each task's predecessors are gathered
    with their strongest hazard, then appended in ascending id order.
    """
    n = len(trace)
    offsets = array("q", [0])
    ids = array("i")
    kinds = bytearray()

    param_offsets, param_addr = trace.param_offsets, trace.param_addr
    param_mode = trace.param_mode
    last_writer: Dict[int, int] = {}
    readers_since_write: Dict[int, List[int]] = defaultdict(list)

    for tid in range(n):
        # De-duplicate addresses within one task: a repeated address acts
        # with its strongest combined mode (reads if any param reads, writes
        # if any writes) — matches the hardware, which processes parameters
        # sequentially against the table.
        seen: Dict[int, Tuple[bool, bool]] = {}
        for k in range(param_offsets[tid], param_offsets[tid + 1]):
            addr, mode = param_addr[k], param_mode[k]
            r, w = seen.get(addr, (False, False))
            seen[addr] = (r or mode != _OUT, w or mode != _IN)
        found: Dict[int, int] = {}  # predecessor -> strongest kind
        for addr, (reads, writes) in seen.items():
            w = last_writer.get(addr)
            if reads and w is not None:
                found[w] = _RAW
            if writes:
                if w is not None and found.get(w, -1) < _WAW:
                    found[w] = _WAW
                for r in readers_since_write[addr]:
                    if r not in found:
                        found[r] = _WAR
                last_writer[addr] = tid
                readers_since_write[addr] = []
            if reads and not writes:
                readers_since_write[addr].append(tid)
        found.pop(tid, None)
        for pred in sorted(found):
            ids.append(pred)
            kinds.append(found[pred])
        offsets.append(len(ids))

    return TaskGraph(trace, offsets, ids, bytes(kinds))
