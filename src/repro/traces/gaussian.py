"""Gaussian elimination with partial pivoting workload (Fig. 5, Table II).

Task graph for an ``n x n`` matrix, after Veldhorst [16] as used by the
paper:

* For every elimination step ``i`` (column, 1-based, ``i = 1..n-1``):

  - a **pivot task** ``T(i,i)``: searches column ``i`` (rows ``i..n``) for
    the pivot, swaps, scales row ``i``.  Weight ``n + 1 - i`` FLOPs.
    Parameters: ``inout row_i``, ``input row_j`` for ``j = i+1..n``.
  - **update tasks** ``T(j,i)`` for ``j = i+1..n``: eliminate column ``i``
    of row ``j``.  Weight ``n - i`` FLOPs.
    Parameters: ``input row_i``, ``inout row_j``.

* Task count: ``(n^2 + n - 2) / 2`` (Table II: 31374 for n=250, ... ,
  12502499 for n=5000).

This parameterisation reproduces exactly the Fig. 5 phase structure — after
``T(1,1)`` the ``n-1`` updates run in parallel; the next pivot ``T(2,2)``
reads every row the updates wrote, so only one task is ready; and so on —
while also exercising every Nexus++ spill mechanism:

* pivot tasks have up to ``n - i + 1`` parameters  -> **dummy tasks**;
* up to ``n - i`` update tasks wait on ``row_i``    -> **dummy entries**;
* updates *write* rows the previous pivot *read*    -> **WAR hazards** via
  the writer-waits flag.

Task durations follow §V: each worker core sustains 2 GFLOPS, and a task of
weight W reads W floating-point numbers from memory and writes the same
number back (4-byte floats, whole 128-byte chunks).
"""

from __future__ import annotations

from array import array
from typing import Optional

from .timing import CORE_GFLOPS, exec_time_for_flops, memory_time_for_bytes
from .trace import AccessMode, TaskTrace

__all__ = [
    "gaussian_task_count",
    "gaussian_mean_weight",
    "gaussian_trace",
    "TABLE_II_SIZES",
]

#: Matrix sizes in the paper's Table II.
TABLE_II_SIZES = (250, 500, 1000, 3000, 5000)

_PIVOT_FUNC = 0x6E01
_UPDATE_FUNC = 0x6E02
_FLOAT_BYTES = 4


def gaussian_task_count(n: int) -> int:
    """Total task count for an ``n x n`` matrix: ``(n^2 + n - 2) / 2``."""
    if n < 2:
        raise ValueError(f"matrix dimension must be >= 2, got {n}")
    return (n * n + n - 2) // 2


def gaussian_mean_weight(n: int) -> float:
    """Average task weight in FLOPs over the whole task graph.

    Table II quotes 167 / 334 / 667 / 2012 / 3523 FLOPs for
    n = 250 / 500 / 1000 / 3000 / 5000.
    """
    total = 0
    for i in range(1, n):
        total += (n + 1 - i) + (n - i) * (n - i)
    return total / gaussian_task_count(n)


def _row_addr(j: int, n: int) -> int:
    """Base address of matrix row ``j`` (1-based)."""
    row_bytes = n * _FLOAT_BYTES
    return 0x1000000 + (j - 1) * row_bytes


def gaussian_trace(n: int, name: Optional[str] = None) -> TaskTrace:
    """Build the Gaussian-elimination trace for an ``n x n`` matrix."""
    count = gaussian_task_count(n)
    row_bytes = n * _FLOAT_BYTES
    inout, in_ = AccessMode.INOUT, AccessMode.IN
    # A task of weight w takes exec_of[w] ps and mem_of[w] ps per phase.
    exec_of = [exec_time_for_flops(w) for w in range(n + 1)]
    mem_of = [memory_time_for_bytes(w * _FLOAT_BYTES) for w in range(n + 1)]
    func, exec_time, memory_time = array("q"), array("q"), array("q")
    offsets, addrs, modes = array("q", [0]), array("Q"), array("b")
    end = _row_addr(n + 1, n)
    for i in range(1, n):
        # Step i: the pivot task T(i,i) of weight m + 1 (inout row i, input
        # rows i+1..n), then the m = n - i update tasks T(j,i) of weight m
        # (input row i, inout row j).
        m = n - i
        func += array("q", [_PIVOT_FUNC]) + array("q", [_UPDATE_FUNC]) * m
        exec_time += array("q", [exec_of[m + 1]]) + array("q", [exec_of[m]]) * m
        memory_time += array("q", [mem_of[m + 1]]) + array("q", [mem_of[m]]) * m
        rows = array("Q", range(_row_addr(i, n), end, row_bytes))
        updates = rows[:1] * (2 * m)
        updates[1::2] = rows[1:]
        addrs += rows + updates
        modes += array("b", [inout] + [in_] * m) + array("b", [in_, inout]) * m
        pivot_end = offsets[-1] + m + 1
        offsets.extend(range(pivot_end, pivot_end + 2 * m + 1, 2))
    return TaskTrace.from_columns(
        name or f"gaussian-{n}",
        {"pattern": "gaussian", "n": n, "task_count": count,
         "mean_weight_flops": gaussian_mean_weight(n), "core_gflops": CORE_GFLOPS},
        func=func,
        exec_time=exec_time,
        read_time=memory_time,
        write_time=array("q", memory_time),
        param_offsets=offsets,
        param_addr=addrs,
        param_size=array("q", [row_bytes]) * len(addrs),
        param_mode=modes,
    )
