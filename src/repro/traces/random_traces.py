"""Randomized traces for property-based and stress testing.

These never appear in the paper; they exist to differentially test the
hardware Dependence Table against the golden software task graph across the
whole hazard space (RAW / WAR / WAW, shared addresses, wide fan-out,
parameter-count spills) — and, since the timing-wheel kernel, to stress the
simulator itself with 100k+-task traces.

Every trace, whatever its length, draws task by task from
:class:`~repro.traces._pcg64.PCG64`, the standard-library replay of
``numpy.random.default_rng(seed)``'s stream, so building one never imports
NumPy and a longer trace starts with the rows of a shorter one.
"""

from __future__ import annotations

import operator
from array import array

from ._pcg64 import PCG64, span
from .trace import TaskTrace

__all__ = ["random_trace"]

_ADDR_BASE = 0x2000000
_SEG_BYTES = 256


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
    the hardware TD limit exercises dummy tasks.  Deterministic per seed:
    the rows are those of NumPy's per-task generator
    (``tests/traces/numpy_trace_oracle.py``) on ``default_rng(seed)``.
    """
    if n_tasks < 1:
        raise ValueError("need at least one task")
    if n_addresses < 1:
        raise ValueError("need at least one address")
    if max_params < 1:
        raise ValueError("need at least one parameter")
    if mean_exec < 1 or mean_memory < 0:
        raise ValueError("need mean_exec >= 1 and mean_memory >= 0")
    return TaskTrace.from_columns(
        name,
        {"pattern": "random", "seed": seed, "n_addresses": n_addresses},
        **_columns(PCG64(seed), n_tasks, n_addresses, max_params, mean_exec,
                   mean_memory),
    )


def _columns(rng, n_tasks, n_addresses, max_params, mean_exec, mean_memory):
    """The trace columns of ``n_tasks`` rows drawn from ``rng`` in the
    per-task generator's order: the parameter count, the addresses, one
    mode per address, then the execute, read and write times."""
    # Each ``integers(low, high)`` range as NumPy reads it (int() of each
    # bound, so float bounds truncate), checked once: a draw is then
    # ``low + bounded(span)``, and a zero-width range draws nothing.
    n_addresses = operator.index(n_addresses)
    k_span = span(1, int(max_params + 1))
    mode_span = span(0, 3)
    exec_span = span(1, int(2 * mean_exec + 1))
    memory_span = span(0, int(2 * mean_memory + 1))
    bounded, choice = rng.bounded, rng.choice
    addresses = range(_ADDR_BASE, _ADDR_BASE + n_addresses * _SEG_BYTES, _SEG_BYTES)
    exec_time, read_time, write_time = array("q"), array("q"), array("q")
    offsets, addrs, modes = array("q", [0]), array("Q"), array("b")
    for _ in range(n_tasks):
        k = 1 + bounded(k_span) if k_span else 1
        for a in choice(n_addresses, k if k < n_addresses else n_addresses):
            addrs.append(addresses[a])
            modes.append(bounded(mode_span))
        exec_time.append(1 + bounded(exec_span))
        if memory_span:
            read_time.append(bounded(memory_span))
            write_time.append(bounded(memory_span))
        offsets.append(len(addrs))
    if not memory_span:
        read_time = array("q", [0]) * n_tasks
        write_time = array("q", [0]) * n_tasks
    return dict(
        func=array("q", [0xF00D]) * n_tasks, exec_time=exec_time,
        read_time=read_time, write_time=write_time, param_offsets=offsets,
        param_addr=addrs, param_size=array("q", [_SEG_BYTES]) * len(addrs),
        param_mode=modes,
    )
