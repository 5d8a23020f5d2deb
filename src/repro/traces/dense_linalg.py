"""Blocked dense linear algebra workloads (extension beyond the paper).

The StarSs literature's flagship benchmarks are blocked Cholesky and
blocked LU factorisations (e.g. the Task Superscalar paper the evaluation
compares table sizes against).  The paper's own future work asks for
"more versatile" workloads; these generators provide them in the same
trace format, so the reproduction can evaluate Nexus++ on the task graphs
the follow-on papers (Picos) used.

Blocked Cholesky of an N x N matrix in B x B tiles (T = N/B tiles/side),
right-looking variant, per step k:

* ``potrf(A[k][k])``                      — 1/3 B^3 flops
* ``trsm(A[k][k], A[i][k])``  i > k       — B^3 flops
* ``syrk(A[i][k], A[i][i])``  i > k       — B^3 flops (herk)
* ``gemm(A[i][k], A[j][k], A[i][j])``  i > j > k — 2 B^3 flops

Blocked LU (no pivoting) is analogous with getrf/trsm-row/trsm-col/gemm.
"""

from __future__ import annotations

from typing import List, Optional

from .timing import exec_time_for_flops, memory_time_for_bytes
from .trace import AccessMode, Param, TaskTrace, TraceTask

__all__ = ["cholesky_trace", "blocked_lu_trace", "cholesky_task_count"]

_POTRF, _TRSM, _SYRK, _GEMM = 0xC401, 0xC402, 0xC403, 0xC404
_GETRF, _TRSM_R, _TRSM_C = 0xC405, 0xC406, 0xC407
_FLOAT = 8


def cholesky_task_count(tiles: int) -> int:
    """potrf + trsm + syrk + gemm counts for a ``tiles x tiles`` grid."""
    t = tiles
    potrf = t
    trsm = t * (t - 1) // 2
    syrk = trsm
    gemm = t * (t - 1) * (t - 2) // 6
    return potrf + trsm + syrk + gemm


class _TileSpace:
    """Base addresses for a triangular/square tile grid."""

    def __init__(self, tiles: int, tile_bytes: int, base: int = 0x40_000_000):
        self.tiles = tiles
        self.tile_bytes = tile_bytes
        self.base = base

    def addr(self, i: int, j: int) -> int:
        return self.base + (i * self.tiles + j) * self.tile_bytes


def _times(flops: float, read_tiles: int, write_tiles: int, tile_bytes: int):
    return (
        exec_time_for_flops(flops),
        memory_time_for_bytes(read_tiles * tile_bytes),
        memory_time_for_bytes(write_tiles * tile_bytes),
    )


def cholesky_trace(
    tiles: int,
    tile_size: int = 64,
    name: Optional[str] = None,
) -> TaskTrace:
    """Blocked right-looking Cholesky factorisation task graph."""
    if tiles < 1:
        raise ValueError("need at least one tile")
    if tile_size < 1:
        raise ValueError("tile_size must be positive")
    b3 = float(tile_size) ** 3
    tile_bytes = tile_size * tile_size * _FLOAT
    space = _TileSpace(tiles, tile_bytes)
    tasks: List[TraceTask] = []

    def emit(func, flops, reads, writes):
        params = [Param(space.addr(i, j), tile_bytes, AccessMode.IN) for i, j in reads]
        params += [
            Param(space.addr(i, j), tile_bytes, AccessMode.INOUT) for i, j in writes
        ]
        e, r, w = _times(flops, len(reads) + len(writes), len(writes), tile_bytes)
        tasks.append(TraceTask(len(tasks), func, tuple(params), e, r, w))

    for k in range(tiles):
        emit(_POTRF, b3 / 3.0, [], [(k, k)])
        for i in range(k + 1, tiles):
            emit(_TRSM, b3, [(k, k)], [(i, k)])
        for i in range(k + 1, tiles):
            emit(_SYRK, b3, [(i, k)], [(i, i)])
            for j in range(k + 1, i):
                emit(_GEMM, 2.0 * b3, [(i, k), (j, k)], [(i, j)])

    assert len(tasks) == cholesky_task_count(tiles)
    return TaskTrace(
        name or f"cholesky-{tiles}x{tiles}",
        tasks,
        meta={
            "pattern": "cholesky",
            "tiles": tiles,
            "tile_size": tile_size,
            "task_count": len(tasks),
        },
    )


def blocked_lu_trace(
    tiles: int,
    tile_size: int = 64,
    name: Optional[str] = None,
) -> TaskTrace:
    """Blocked LU factorisation (no pivoting) task graph."""
    if tiles < 1:
        raise ValueError("need at least one tile")
    if tile_size < 1:
        raise ValueError("tile_size must be positive")
    b3 = float(tile_size) ** 3
    tile_bytes = tile_size * tile_size * _FLOAT
    space = _TileSpace(tiles, tile_bytes, base=0x60_000_000)
    tasks: List[TraceTask] = []

    def emit(func, flops, reads, writes):
        params = [Param(space.addr(i, j), tile_bytes, AccessMode.IN) for i, j in reads]
        params += [
            Param(space.addr(i, j), tile_bytes, AccessMode.INOUT) for i, j in writes
        ]
        e, r, w = _times(flops, len(reads) + len(writes), len(writes), tile_bytes)
        tasks.append(TraceTask(len(tasks), func, tuple(params), e, r, w))

    for k in range(tiles):
        emit(_GETRF, 2.0 * b3 / 3.0, [], [(k, k)])
        for j in range(k + 1, tiles):
            emit(_TRSM_R, b3, [(k, k)], [(k, j)])  # update row panel
        for i in range(k + 1, tiles):
            emit(_TRSM_C, b3, [(k, k)], [(i, k)])  # update column panel
        for i in range(k + 1, tiles):
            for j in range(k + 1, tiles):
                emit(_GEMM, 2.0 * b3, [(i, k), (k, j)], [(i, j)])

    return TaskTrace(
        name or f"blocked-lu-{tiles}x{tiles}",
        tasks,
        meta={
            "pattern": "blocked-lu",
            "tiles": tiles,
            "tile_size": tile_size,
            "task_count": len(tasks),
        },
    )
