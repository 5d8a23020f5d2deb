"""Additional task-graph kernels (extension beyond the paper).

Structured patterns common in StarSs applications, used by the extension
benches and the versatility tests:

* :func:`jacobi_stencil_trace` — iterative 2D 5-point stencil with
  double-buffered grids: wide fan-in per task, iteration barriers emerge
  purely from data flow.
* :func:`reduction_tree_trace` — binary combining tree: log-depth graph
  whose parallelism *halves* every level (the mirror image of Gaussian
  elimination's widening fan-out).
* :func:`pipeline_trace` — S-stage streaming pipeline over N items:
  constant parallelism S with a wavefront fill/drain, the pattern of
  video/DSP pipelines.
"""

from __future__ import annotations

from typing import List, Optional

from .timing import TimeModel, memory_time_for_bytes
from .trace import AccessMode, Param, TaskTrace, TraceTask

__all__ = ["jacobi_stencil_trace", "reduction_tree_trace", "pipeline_trace"]

_JACOBI, _REDUCE, _STAGE = 0xD001, 0xD002, 0xD003


def jacobi_stencil_trace(
    grid: int,
    iterations: int,
    block_bytes: int = 4096,
    exec_time: int = 2_000_000,
    name: Optional[str] = None,
) -> TaskTrace:
    """5-point Jacobi over a ``grid x grid`` block array, double buffered.

    Iteration t reads blocks of buffer ``t % 2`` (self + 4 neighbours) and
    writes buffer ``(t+1) % 2`` — so consecutive iterations interleave as
    a software-pipelined wavefront instead of a global barrier.
    """
    if grid < 1 or iterations < 1:
        raise ValueError("grid and iterations must be >= 1")

    def addr(buf: int, i: int, j: int) -> int:
        return 0x70_000_000 + ((buf * grid + i) * grid + j) * block_bytes

    read_time = memory_time_for_bytes(5 * block_bytes)
    write_time = memory_time_for_bytes(block_bytes)
    tasks: List[TraceTask] = []
    for t in range(iterations):
        src, dst = t % 2, (t + 1) % 2
        for i in range(grid):
            for j in range(grid):
                params = [Param(addr(src, i, j), block_bytes, AccessMode.IN)]
                for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                    ni, nj = i + di, j + dj
                    if 0 <= ni < grid and 0 <= nj < grid:
                        params.append(
                            Param(addr(src, ni, nj), block_bytes, AccessMode.IN)
                        )
                params.append(Param(addr(dst, i, j), block_bytes, AccessMode.OUT))
                tasks.append(
                    TraceTask(
                        len(tasks), _JACOBI, tuple(params), exec_time, read_time, write_time
                    )
                )
    return TaskTrace(
        name or f"jacobi-{grid}x{grid}x{iterations}",
        tasks,
        meta={"pattern": "jacobi", "grid": grid, "iterations": iterations},
    )


def reduction_tree_trace(
    leaves: int,
    chunk_bytes: int = 8192,
    exec_time: int = 3_000_000,
    name: Optional[str] = None,
) -> TaskTrace:
    """Binary combining tree over ``leaves`` input chunks (power of two)."""
    if leaves < 2 or leaves & (leaves - 1):
        raise ValueError("leaves must be a power of two >= 2")

    def addr(level: int, index: int) -> int:
        return 0x78_000_000 + (level * leaves + index) * chunk_bytes

    read_time = memory_time_for_bytes(2 * chunk_bytes)
    write_time = memory_time_for_bytes(chunk_bytes)
    tasks: List[TraceTask] = []
    level, width = 0, leaves
    while width > 1:
        for k in range(width // 2):
            params = (
                Param(addr(level, 2 * k), chunk_bytes, AccessMode.IN),
                Param(addr(level, 2 * k + 1), chunk_bytes, AccessMode.IN),
                Param(addr(level + 1, k), chunk_bytes, AccessMode.OUT),
            )
            tasks.append(
                TraceTask(len(tasks), _REDUCE, params, exec_time, read_time, write_time)
            )
        level += 1
        width //= 2
    return TaskTrace(
        name or f"reduction-{leaves}",
        tasks,
        meta={"pattern": "reduction", "leaves": leaves, "levels": level},
    )


def pipeline_trace(
    items: int,
    stages: int,
    item_bytes: int = 16384,
    time_model: Optional[TimeModel] = None,
    seed: int = 7,
    name: Optional[str] = None,
) -> TaskTrace:
    """S-stage streaming pipeline: stage s of item n reads stage s-1's
    output for item n and writes its own buffer (which the next item's
    same stage overwrites -> WAW unless renamed, making this the showcase
    workload for :func:`repro.runtime.renaming.rename_trace`)."""
    if items < 1 or stages < 1:
        raise ValueError("items and stages must be >= 1")
    model = time_model or TimeModel(mean_exec=4_000_000, mean_memory=1_000_000, cv=0.2)
    exec_t, read_t, write_t = model.sample(items * stages, seed)

    def stage_buffer(s: int) -> int:
        return 0x7C_000_000 + s * item_bytes

    def item_buffer(n: int, s: int) -> int:
        return 0x7D_000_000 + (n * stages + s) * item_bytes

    tasks: List[TraceTask] = []
    for n in range(items):
        for s in range(stages):
            params = []
            if s > 0:
                params.append(Param(item_buffer(n, s - 1), item_bytes, AccessMode.IN))
            # Each stage overwrites private scratch per item: a *false*
            # WAW chain across items (the renaming ablation target; an
            # inout here would be a true carried dependency instead).
            params.append(Param(stage_buffer(s), item_bytes, AccessMode.OUT))
            params.append(Param(item_buffer(n, s), item_bytes, AccessMode.OUT))
            tid = len(tasks)
            tasks.append(
                TraceTask(
                    tid,
                    _STAGE,
                    tuple(params),
                    int(exec_t[tid]),
                    int(read_t[tid]),
                    int(write_t[tid]),
                )
            )
    return TaskTrace(
        name or f"pipeline-{items}x{stages}",
        tasks,
        meta={"pattern": "pipeline", "items": items, "stages": stages},
    )
