"""Task traces: the workload format consumed by the Task Machine.

The paper's evaluation is trace-driven: each task carries its input/output
parameter list (base address, size, access mode — the same triple a StarSs
``#pragma css task input(...) inout(...)`` produces) plus the time it spends
executing and reading/writing its operands from/to off-chip memory.
"""

from __future__ import annotations


import json
from dataclasses import dataclass
from enum import IntEnum
from typing import Any, Iterable, Iterator, Optional

import numpy as np

__all__ = ["AccessMode", "Param", "TraceTask", "TaskTrace"]


class AccessMode(IntEnum):
    """StarSs parameter direction."""

    IN = 0
    OUT = 1
    INOUT = 2

    @property
    def reads(self) -> bool:
        return self in (AccessMode.IN, AccessMode.INOUT)

    @property
    def writes(self) -> bool:
        return self in (AccessMode.OUT, AccessMode.INOUT)

    @classmethod
    def parse(cls, text: str) -> "AccessMode":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown access mode {text!r}") from None


@dataclass(frozen=True)
class Param:
    """One task parameter: ``(base memory address, size, access mode)``.

    Dependencies are decided by comparing base addresses only, exactly as in
    the paper ("dependencies between tasks are decided by comparing the base
    addresses of the inputs/outputs").
    """

    addr: int
    size: int
    mode: AccessMode

    def __post_init__(self) -> None:
        if self.addr < 0:
            raise ValueError(f"negative address {self.addr:#x}")
        if self.size <= 0:
            raise ValueError(f"parameter size must be positive, got {self.size}")

    def __str__(self) -> str:
        return f"{self.addr:#x}/{self.size}/{self.mode.name.lower()}"


@dataclass(frozen=True)
class TraceTask:
    """A task instance in serial program order.

    ``exec_time``/``read_time``/``write_time`` are uncontended durations in
    picoseconds; the machine model adds queueing/contention on top.
    """

    tid: int
    func: int
    params: tuple[Param, ...]
    exec_time: int
    read_time: int = 0
    write_time: int = 0

    def __post_init__(self) -> None:
        if self.tid < 0:
            raise ValueError(f"negative task id {self.tid}")
        if not self.params:
            raise ValueError(f"task {self.tid}: needs at least one parameter")
        if self.exec_time < 0 or self.read_time < 0 or self.write_time < 0:
            raise ValueError(f"task {self.tid}: negative duration")

    @property
    def n_params(self) -> int:
        return len(self.params)

    @property
    def memory_time(self) -> int:
        """Total uncontended off-chip time (read + write phases)."""
        return self.read_time + self.write_time

    def reads(self) -> Iterator[Param]:
        return (p for p in self.params if p.mode.reads)

    def writes(self) -> Iterator[Param]:
        return (p for p in self.params if p.mode.writes)


class TaskTrace:
    """An ordered collection of tasks plus provenance metadata.

    Iteration order is serial program order — the order the master core
    generates and submits Task Descriptors.
    """

    def __init__(self, name: str, tasks: Iterable[TraceTask], meta: Optional[dict] = None):
        self.name = name
        self.tasks: list[TraceTask] = list(tasks)
        self.meta: dict[str, Any] = dict(meta or {})
        self._validate()

    def _validate(self) -> None:
        if not self.tasks:
            raise ValueError(f"trace {self.name!r} is empty")
        for i, task in enumerate(self.tasks):
            if task.tid != i:
                raise ValueError(
                    f"trace {self.name!r}: task #{i} has tid {task.tid}; "
                    "tids must equal serial position"
                )

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self) -> Iterator[TraceTask]:
        return iter(self.tasks)

    def __getitem__(self, tid: int) -> TraceTask:
        return self.tasks[tid]

    # ---- summary statistics ---------------------------------------------------

    @property
    def total_exec_time(self) -> int:
        return sum(t.exec_time for t in self.tasks)

    @property
    def total_memory_time(self) -> int:
        return sum(t.memory_time for t in self.tasks)

    @property
    def mean_exec_time(self) -> float:
        return self.total_exec_time / len(self.tasks)

    @property
    def mean_memory_time(self) -> float:
        return self.total_memory_time / len(self.tasks)

    @property
    def max_params(self) -> int:
        return max(t.n_params for t in self.tasks)

    def address_set(self) -> set[int]:
        return {p.addr for t in self.tasks for p in t.params}

    def describe(self) -> str:
        return (
            f"trace {self.name!r}: {len(self.tasks)} tasks, "
            f"mean exec {self.mean_exec_time / 1e6:.3g}us, "
            f"mean mem {self.mean_memory_time / 1e6:.3g}us, "
            f"max params {self.max_params}, "
            f"{len(self.address_set())} distinct addresses"
        )

    # ---- serialization -----------------------------------------------------------

    def save(self, path: str) -> None:
        """Persist to a compact ``.npz`` file (variable-length params flattened)."""
        n = len(self.tasks)
        counts = np.fromiter((t.n_params for t in self.tasks), dtype=np.int64, count=n)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        total = int(offsets[-1])
        addr = np.zeros(total, dtype=np.uint64)
        size = np.zeros(total, dtype=np.int64)
        mode = np.zeros(total, dtype=np.int8)
        pos = 0
        for t in self.tasks:
            for p in t.params:
                addr[pos] = p.addr
                size[pos] = p.size
                mode[pos] = int(p.mode)
                pos += 1
        np.savez_compressed(
            path,
            name=np.array(self.name),
            meta=np.array(json.dumps(self.meta)),
            func=np.fromiter((t.func for t in self.tasks), dtype=np.int64, count=n),
            exec_time=np.fromiter((t.exec_time for t in self.tasks), dtype=np.int64, count=n),
            read_time=np.fromiter((t.read_time for t in self.tasks), dtype=np.int64, count=n),
            write_time=np.fromiter((t.write_time for t in self.tasks), dtype=np.int64, count=n),
            param_offsets=offsets,
            param_addr=addr,
            param_size=size,
            param_mode=mode,
        )

    @classmethod
    def load(cls, path: str) -> "TaskTrace":
        """Load a trace produced by :meth:`save`.

        Each stored array is read once: ``NpzFile`` decompresses a member
        on every item access, so indexing it per task is quadratic.
        """
        with np.load(path, allow_pickle=False) as data:
            name = str(data["name"])
            meta = json.loads(str(data["meta"]))
            offsets = data["param_offsets"].tolist()
            addr = data["param_addr"].tolist()
            size = data["param_size"].tolist()
            mode = data["param_mode"].tolist()
            func = data["func"].tolist()
            exec_time = data["exec_time"].tolist()
            read_time = data["read_time"].tolist()
            write_time = data["write_time"].tolist()
        tasks = []
        for tid in range(len(func)):
            params = tuple(
                Param(addr[k], size[k], AccessMode(mode[k]))
                for k in range(offsets[tid], offsets[tid + 1])
            )
            tasks.append(
                TraceTask(
                    tid=tid,
                    func=func[tid],
                    params=params,
                    exec_time=exec_time[tid],
                    read_time=read_time[tid],
                    write_time=write_time[tid],
                )
            )
        return cls(name, tasks, meta)
