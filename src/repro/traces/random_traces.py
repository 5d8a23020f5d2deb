"""Randomized traces for property-based and stress testing.

These never appear in the paper; they exist to differentially test the
hardware Dependence Table against the golden software task graph across the
whole hazard space (RAW / WAR / WAW, shared addresses, wide fan-out,
parameter-count spills) — and, since the timing-wheel kernel, to stress the
simulator itself with 100k+-task traces.
"""

from __future__ import annotations

import numpy as np

from .trace import AccessMode, Param, TaskTrace, TraceTask

__all__ = ["random_trace"]

_ADDR_BASE = 0x2000000
_SEG_BYTES = 256

#: Tasks per vectorized generation chunk.  Traces up to this size use the
#: original per-task RNG path (bit-identical streams — the pinned golden
#: digests replay traces of <= 3000 tasks); larger traces switch to the
#: chunked vectorized path, whose per-chunk arrays are ``O(chunk x
#: max_params)`` regardless of the trace length and the pool width.
_CHUNK_TASKS = 8192

#: Float64 sampling keys drawn per row block (1 MiB).  A chunk's
#: ``chunk x n_addresses`` keys are drawn through one reusable buffer of
#: this many keys (at least one row), so the pool width never sizes an
#: allocation beyond it.
_KEY_BLOCK = 1 << 17


def random_trace(
    n_tasks: int,
    n_addresses: int = 16,
    max_params: int = 6,
    seed: int = 0,
    mean_exec: int = 1000,
    mean_memory: int = 500,
    name: str = "random",
) -> TaskTrace:
    """A trace with random parameter lists over a small shared address pool.

    A small pool forces dense RAW/WAR/WAW interactions; ``max_params`` above
    the hardware TD limit exercises dummy tasks.  Deterministic per seed.

    Traces larger than ~8k tasks are built by the streaming chunked
    generator (vectorized draws; working memory bounded by one chunk's
    per-task arrays plus a fixed key block), which produces a
    different — equally deterministic — stream for the same seed; the
    small-trace path is byte-identical to the original generator so pinned
    golden schedules stay valid.
    """
    if n_tasks < 1:
        raise ValueError("need at least one task")
    if n_addresses < 1:
        raise ValueError("need at least one address")
    if max_params < 1:
        raise ValueError("need at least one parameter")
    rng = np.random.default_rng(seed)
    if n_tasks <= _CHUNK_TASKS:
        tasks = _legacy_tasks(rng, n_tasks, n_addresses, max_params,
                              mean_exec, mean_memory)
    else:
        tasks = []
        for start in range(0, n_tasks, _CHUNK_TASKS):
            m = min(_CHUNK_TASKS, n_tasks - start)
            _chunk_tasks(tasks, rng, start, m, n_addresses, max_params,
                         mean_exec, mean_memory)
    return TaskTrace(
        name,
        tasks,
        meta={"pattern": "random", "seed": seed, "n_addresses": n_addresses},
    )


def _legacy_tasks(rng, n_tasks, n_addresses, max_params, mean_exec,
                  mean_memory) -> list[TraceTask]:
    """The original per-task generator (RNG stream pinned by goldens)."""
    tasks = []
    for tid in range(n_tasks):
        k = int(rng.integers(1, max_params + 1))
        k = min(k, n_addresses)
        addr_ids = rng.choice(n_addresses, size=k, replace=False)
        params = []
        for a in addr_ids:
            mode = AccessMode(int(rng.integers(0, 3)))
            params.append(Param(_ADDR_BASE + int(a) * _SEG_BYTES, _SEG_BYTES, mode))
        exec_time = int(rng.integers(1, 2 * mean_exec + 1))
        read_time = int(rng.integers(0, 2 * mean_memory + 1))
        write_time = int(rng.integers(0, 2 * mean_memory + 1))
        tasks.append(
            TraceTask(tid, 0xF00D, tuple(params), exec_time, read_time, write_time)
        )
    return tasks


def _chunk_tasks(tasks, rng, start, m, n_addresses, max_params, mean_exec,
                 mean_memory) -> None:
    """Append ``m`` tasks built from whole-chunk vectorized draws.

    All randomness for the chunk is drawn in array operations; the
    remaining Python loop only assembles the (immutable) descriptor
    objects.  Sampling without replacement is the argsort-of-random-keys
    trick: each row's address ids are the indices of its ``k`` smallest
    keys, uniform over all k-subsets.
    """
    max_k = min(max_params, n_addresses)
    ks = rng.integers(1, max_params + 1, size=m)
    np.minimum(ks, n_addresses, out=ks)
    # The chunk's (m, n_addresses) float64 keys, drawn row-major in row
    # blocks through one reusable buffer: this consumes the stream exactly
    # as one (m, n_addresses) draw would, so traces do not depend on the
    # block size.  Only each row's max_k smallest are kept (argpartition
    # is O(n_addresses) per row).
    block_rows = max(1, _KEY_BLOCK // n_addresses)
    buf = np.empty((min(block_rows, m), n_addresses), dtype=np.float64)
    addr_rows = np.empty((m, max_k), dtype=np.int64)
    for lo in range(0, m, block_rows):
        rows = min(block_rows, m - lo)
        block = rng.random(out=buf[:rows])
        addr_rows[lo:lo + rows] = np.argpartition(
            block, max_k - 1, axis=1)[:, :max_k]
    modes = rng.integers(0, 3, size=(m, max_k))
    exec_times = rng.integers(1, 2 * mean_exec + 1, size=m)
    read_times = rng.integers(0, 2 * mean_memory + 1, size=m)
    write_times = rng.integers(0, 2 * mean_memory + 1, size=m)

    addr_rows = (_ADDR_BASE + addr_rows * _SEG_BYTES).tolist()
    modes = modes.tolist()
    ks = ks.tolist()
    exec_times = exec_times.tolist()
    read_times = read_times.tolist()
    write_times = write_times.tolist()
    append = tasks.append
    in_, out, inout = AccessMode.IN, AccessMode.OUT, AccessMode.INOUT
    mode_of = (in_, out, inout)
    for i in range(m):
        k = ks[i]
        addrs = addr_rows[i]
        mrow = modes[i]
        params = tuple(
            Param(addrs[j], _SEG_BYTES, mode_of[mrow[j]]) for j in range(k)
        )
        append(
            TraceTask(start + i, 0xF00D, params, exec_times[i],
                      read_times[i], write_times[i])
        )
