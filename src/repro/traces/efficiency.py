"""Granularity-probe workloads: wait-chains and spatial decomposition.

The paper's value proposition is an efficiency-vs-granularity curve:
hardware dependency resolution keeps *fine-grained* tasks profitable where
a software runtime's per-task overhead collapses the speedup.  These two
generators state that claim directly:

* :func:`wait_chain_trace` — the canonical TaskTorrent-style overhead
  probe: ``rows`` parallel chains of ``cols`` tasks, each task spinning
  for ``spin_ns`` and depending on ``k_deps`` tasks of the previous
  column.  Sweeping ``spin_ns`` sweeps task granularity while the graph
  shape (and hence the per-task management work) stays fixed.
* :func:`spatial_decomposition_trace` — the molecular-dynamics halo
  exchange (arXiv:1401.4441): a ``grid**dims`` cell array stepped in
  time, every cell reading its full Moore neighbourhood from the previous
  step's buffer (double buffered, like the Jacobi kernel but with corner
  neighbours and an optional third dimension).
"""

from __future__ import annotations

import itertools
from typing import List, Optional

from ..config import SystemConfig
from .trace import AccessMode, Param, TaskTrace, TraceWriter, TraceTask

__all__ = ["wait_chain_trace", "spatial_decomposition_trace"]

_WAIT, _CELL = 0xE001, 0xE002

_NS = 1_000  # picoseconds per nanosecond

_WAIT_CHAIN_BASE = 0x80_000_000
_SPATIAL_BASE = 0x84_000_000


def wait_chain_trace(
    rows: int,
    cols: int,
    k_deps: int = 1,
    spin_ns: int = 1_000,
    cv: float = 0.0,
    seed: int = 11,
    block_bytes: int = 64,
    name: Optional[str] = None,
) -> TaskTrace:
    """``rows`` wait-chains of ``cols`` tasks with ``k_deps`` cross links.

    Task ``(r, c)`` spins for ``spin_ns`` nanoseconds, writes its own cell
    buffer, and (for ``c > 0``) reads the cells written by tasks
    ``((r + d) % rows, c - 1)`` for ``d in range(k_deps)`` — so every task
    has exactly ``min(k_deps, rows)`` true dependences on the previous
    column and the steady-state parallelism is ``rows``.  Tasks are
    emitted column-major, hence every dependence points at an earlier tid.

    ``cv > 0`` adds lognormal jitter around the spin time (seeded, so the
    trace stays deterministic per ``seed``).  Memory time is zero: the
    workload is a pure task-management overhead probe.
    """
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    if k_deps < 1:
        raise ValueError("k_deps must be >= 1")
    if spin_ns < 1:
        raise ValueError("spin_ns must be >= 1")
    k = min(k_deps, rows)
    n = rows * cols
    spin_ps = spin_ns * _NS
    if cv > 0:
        import numpy as np

        sigma = float(np.sqrt(np.log1p(cv * cv)))
        mu = float(np.log(spin_ps)) - sigma * sigma / 2
        rng = np.random.default_rng(seed)
        exec_times = np.maximum(1, rng.lognormal(mu, sigma, n).astype(np.int64)).tolist()
    else:
        exec_times = [spin_ps] * n

    def addr(r: int, c: int) -> int:
        return _WAIT_CHAIN_BASE + (c * rows + r) * block_bytes

    writer = TraceWriter()
    for c in range(cols):
        for r in range(rows):
            params = [
                (addr((r + d) % rows, c - 1), block_bytes, AccessMode.IN)
                for d in range(k)
                if c > 0
            ]
            params.append((addr(r, c), block_bytes, AccessMode.OUT))
            writer.add(_WAIT, exec_times[c * rows + r], 0, 0, params)
    return writer.build(
        name or f"wait-chain-{rows}x{cols}-k{k}-{spin_ns}ns",
        meta={
            "pattern": "wait-chain",
            "rows": rows,
            "cols": cols,
            "k_deps": k,
            "spin_ns": spin_ns,
            "cv": cv,
            "seed": seed,
        },
    )


def spatial_decomposition_trace(
    grid: int,
    steps: int,
    dims: int = 2,
    block_bytes: int = 2048,
    exec_time: int = 2_000_000,
    config: Optional[SystemConfig] = None,
    name: Optional[str] = None,
) -> TaskTrace:
    """Halo-exchange over a ``grid**dims`` cell array, double buffered.

    Step ``t`` reads every cell's own block plus its full Moore
    neighbourhood (up to ``3**dims - 1`` neighbours, clamped at the
    boundary) from buffer ``t % 2`` and writes buffer ``(t+1) % 2`` — the
    per-timestep force/update pattern of a molecular-dynamics spatial
    decomposition.  Interior 3D cells carry 28 parameters, well past the
    hardware's per-descriptor limit, so this workload also exercises the
    dummy-task parameter spill path.
    """
    if dims not in (2, 3):
        raise ValueError("dims must be 2 or 3")
    if grid < 1 or steps < 1:
        raise ValueError("grid and steps must be >= 1")
    cfg = config or SystemConfig()
    cells = grid**dims
    offsets = [
        off
        for off in itertools.product((-1, 0, 1), repeat=dims)
        if any(off)
    ]

    def flat(coord: tuple) -> int:
        idx = 0
        for x in coord:
            idx = idx * grid + x
        return idx

    def addr(buf: int, idx: int) -> int:
        return _SPATIAL_BASE + (buf * cells + idx) * block_bytes

    write_time = cfg.memory_time_for_bytes(block_bytes)
    tasks: List[TraceTask] = []
    for t in range(steps):
        src, dst = t % 2, (t + 1) % 2
        for coord in itertools.product(range(grid), repeat=dims):
            params = [Param(addr(src, flat(coord)), block_bytes, AccessMode.IN)]
            for off in offsets:
                ncoord = tuple(x + o for x, o in zip(coord, off))
                if all(0 <= x < grid for x in ncoord):
                    params.append(
                        Param(addr(src, flat(ncoord)), block_bytes, AccessMode.IN)
                    )
            read_time = cfg.memory_time_for_bytes(len(params) * block_bytes)
            params.append(Param(addr(dst, flat(coord)), block_bytes, AccessMode.OUT))
            tasks.append(
                TraceTask(
                    len(tasks),
                    _CELL,
                    tuple(params),
                    exec_time,
                    read_time,
                    write_time,
                )
            )
    return TaskTrace(
        name or f"spatial-{dims}d-{grid}^{dims}x{steps}",
        tasks,
        meta={"pattern": "spatial", "grid": grid, "steps": steps, "dims": dims},
    )
