"""The per-task ``random_trace`` generator on NumPy's RNG: the oracle for
the stdlib PCG64 that ``repro.traces.random_traces`` draws from.

This is the generator the pinned random goldens were recorded with:
``numpy.random.default_rng(seed)`` and scalar ``integers`` / ``choice``
draws, task by task.  The tests build a trace both ways and require the
same rows and the same stream position afterwards.
"""

from __future__ import annotations

import numpy as np

from repro.traces.random_traces import _ADDR_BASE, _SEG_BYTES
from repro.traces.trace import TaskTrace, TraceWriter

__all__ = ["legacy_tasks", "oracle_trace"]


def legacy_tasks(writer, rng, n_tasks, n_addresses, max_params, mean_exec,
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


def oracle_trace(n_tasks, n_addresses=16, max_params=6, seed=0,
                 mean_exec=1000, mean_memory=500):
    """``random_trace``'s per-task path on NumPy: ``(trace, generator)``,
    the generator left where the trace's last draw put it."""
    rng = np.random.default_rng(seed)
    writer = TraceWriter()
    legacy_tasks(writer, rng, n_tasks, n_addresses, max_params, mean_exec,
                 mean_memory)
    return TaskTrace.from_columns("random", **writer.columns), rng
