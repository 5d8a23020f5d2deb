"""Randomized traces for property-based and stress testing.

These never appear in the paper; they exist to differentially test the
hardware Dependence Table against the golden software task graph across the
whole hazard space (RAW / WAR / WAW, shared addresses, wide fan-out,
parameter-count spills) — and, since the timing-wheel kernel, to stress the
simulator itself with 100k+-task traces.

They draw from NumPy's RNG, so NumPy is imported when one is built, not
when the package is.
"""

from __future__ import annotations

from .trace import TaskTrace, TraceWriter

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
    import numpy as np

    rng = np.random.default_rng(seed)
    writer = TraceWriter()
    if n_tasks <= _CHUNK_TASKS:
        _legacy_tasks(writer, rng, n_tasks, n_addresses, max_params,
                      mean_exec, mean_memory)
    else:
        for start in range(0, n_tasks, _CHUNK_TASKS):
            m = min(_CHUNK_TASKS, n_tasks - start)
            _chunk_tasks(writer, rng, m, n_addresses, max_params,
                         mean_exec, mean_memory)
    return writer.build(
        name,
        meta={"pattern": "random", "seed": seed, "n_addresses": n_addresses},
    )


def _legacy_tasks(writer, rng, n_tasks, n_addresses, max_params, mean_exec,
                  mean_memory) -> None:
    """The original per-task generator (RNG stream pinned by goldens)."""
    for _ in range(n_tasks):
        k = int(rng.integers(1, max_params + 1))
        k = min(k, n_addresses)
        addr_ids = rng.choice(n_addresses, size=k, replace=False)
        params = [
            (_ADDR_BASE + int(a) * _SEG_BYTES, _SEG_BYTES, int(rng.integers(0, 3)))
            for a in addr_ids
        ]
        exec_time = int(rng.integers(1, 2 * mean_exec + 1))
        read_time = int(rng.integers(0, 2 * mean_memory + 1))
        write_time = int(rng.integers(0, 2 * mean_memory + 1))
        writer.add(0xF00D, exec_time, read_time, write_time, params)


def _chunk_tasks(writer, rng, m, n_addresses, max_params, mean_exec,
                 mean_memory) -> None:
    """Append ``m`` tasks built from whole-chunk vectorized draws.

    All randomness for the chunk is drawn in array operations, and the
    chunk goes into the trace columns as whole arrays.  Sampling without
    replacement is the argsort-of-random-keys trick: each row's address
    ids are the indices of its ``k`` smallest keys, uniform over all
    k-subsets.
    """
    import numpy as np

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

    # Row i keeps its first ks[i] draws, in draw order.
    keep = np.arange(max_k) < ks[:, None]
    writer.extend(
        func=np.full(m, 0xF00D),
        exec_time=exec_times,
        read_time=read_times,
        write_time=write_times,
        n_params=ks,
        param_addr=_ADDR_BASE + addr_rows[keep] * _SEG_BYTES,
        param_size=np.full(int(ks.sum()), _SEG_BYTES),
        param_mode=modes[keep],
    )
