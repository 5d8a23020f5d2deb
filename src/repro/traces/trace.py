"""Task traces: the workload format consumed by the Task Machine.

The paper's evaluation is trace-driven: each task carries its input/output
parameter list (base address, size, access mode — the same triple a StarSs
``#pragma css task input(...) inout(...)`` produces) plus the time it spends
executing and reading/writing its operands from/to off-chip memory.

A :class:`TaskTrace` stores no object per task.  It keeps one column per
task field (``func``, ``exec_time``, ``read_time``, ``write_time``) and
the parameters in CSR form (``param_offsets`` plus ``param_addr``,
``param_size`` and ``param_mode``), all as :mod:`array` columns, so an
element read is a plain Python int.  :class:`TraceTask` and
:class:`Param` are immutable rows: ``trace[tid]`` builds one from the
columns on access, and a hand-built list of them is copied into columns
by ``TaskTrace(name, tasks)``.

The columns are checked with builtins, so building and reading a trace
needs no NumPy; only the ``.npz`` I/O (:meth:`TaskTrace.save`/
:meth:`TaskTrace.load`) imports it.
"""

from __future__ import annotations

import json
import sys
from array import array
from enum import IntEnum
from itertools import islice
from operator import lt, sub
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional

__all__ = ["AccessMode", "Param", "TraceTask", "TaskTrace", "TraceWriter"]


class AccessMode(IntEnum):
    """StarSs parameter direction."""

    IN = 0
    OUT = 1
    INOUT = 2

    # Identity tests against module globals (bound below the class): the
    # hardware blocks read both flags once per probe and once per update,
    # and tuple membership or a member lookup on the enum class costs more.
    @property
    def reads(self) -> bool:
        return self is not _OUT

    @property
    def writes(self) -> bool:
        return self is not _IN

    @classmethod
    def parse(cls, text: str) -> "AccessMode":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown access mode {text!r}") from None


#: Access modes by their stored byte.
_MODES = tuple(AccessMode)
_IN, _OUT = _MODES[:2]


class _ParamFields(NamedTuple):
    addr: int
    size: int
    mode: AccessMode


class Param(_ParamFields):
    """One task parameter: ``(base memory address, size, access mode)``.

    Dependencies are decided by comparing base addresses only, exactly as in
    the paper ("dependencies between tasks are decided by comparing the base
    addresses of the inputs/outputs").
    """

    __slots__ = ()

    def __new__(cls, addr: int, size: int, mode: AccessMode) -> "Param":
        if addr < 0:
            raise ValueError(f"negative address {addr:#x}")
        if size <= 0:
            raise ValueError(f"parameter size must be positive, got {size}")
        return tuple.__new__(cls, (addr, size, mode))

    def __str__(self) -> str:
        return f"{self.addr:#x}/{self.size}/{self.mode.name.lower()}"


class _TaskFields(NamedTuple):
    tid: int
    func: int
    params: tuple
    exec_time: int
    read_time: int = 0
    write_time: int = 0


class TraceTask(_TaskFields):
    """A task instance in serial program order.

    ``exec_time``/``read_time``/``write_time`` are uncontended durations in
    picoseconds; the machine model adds queueing/contention on top.
    """

    __slots__ = ()

    def __new__(cls, tid: int, func: int, params: tuple[Param, ...],
                exec_time: int, read_time: int = 0,
                write_time: int = 0) -> "TraceTask":
        if tid < 0:
            raise ValueError(f"negative task id {tid}")
        if not params:
            raise ValueError(f"task {tid}: needs at least one parameter")
        if exec_time < 0 or read_time < 0 or write_time < 0:
            raise ValueError(f"task {tid}: negative duration")
        return tuple.__new__(
            cls, (tid, func, params, exec_time, read_time, write_time)
        )

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


#: Column name -> ``array`` type code.  Every column but the mode byte is
#: 8 bytes wide; addresses are unsigned.
_COLUMNS = {
    "func": "q",
    "exec_time": "q",
    "read_time": "q",
    "write_time": "q",
    "param_offsets": "q",
    "param_addr": "Q",
    "param_size": "q",
    "param_mode": "b",
}
_TASK_COLUMNS = ("func", "exec_time", "read_time", "write_time")


def _column(typecode: str, values: Any) -> array:
    """``values`` (a NumPy array, an ``array`` or any int iterable) as an
    ``array`` column, copied from a NumPy buffer without Python ints."""
    if isinstance(values, array) and values.typecode == typecode:
        return values
    col = array(typecode)
    np = sys.modules.get("numpy")
    if np is not None and isinstance(values, np.ndarray):
        col.frombytes(np.ascontiguousarray(values, dtype=np.dtype(typecode)).tobytes())
    else:
        col.extend(values)
    return col


#: Position of the sign byte in an 8-byte column element: a column has no
#: negative value exactly when all its sign bytes are below 0x80 (ASCII).
_SIGN_BYTE = 7 if sys.byteorder == "little" else 0
#: The bytes that store an access mode: deleting them from the mode column
#: leaves only the invalid ones.
_MODE_BYTES = bytes(range(len(_MODES)))


def _widths(offsets: array) -> Iterator[int]:
    """Row lengths of a CSR offsets column."""
    return map(sub, islice(offsets, 1, None), offsets)


def _first(values: Iterable[int], bad: Callable[[int], bool]) -> int:
    """Index of the first of ``values`` for which ``bad`` holds."""
    return next(i for i, v in enumerate(values) if bad(v))


class TraceWriter:
    """Trace columns grown in program order, a task at a time, from
    ``(addr, size, mode)`` parameter triples: how ``TaskTrace(name,
    tasks)`` copies rows into columns."""

    def __init__(self) -> None:
        self.columns = {key: array(code) for key, code in _COLUMNS.items()}
        self.columns["param_offsets"].append(0)

    def add(self, func: int, exec_time: int, read_time: int, write_time: int,
            params: Iterable[tuple[int, int, int]]) -> None:
        """Append one task; ``params`` are ``(addr, size, mode)`` triples."""
        cols = self.columns
        cols["func"].append(func)
        cols["exec_time"].append(exec_time)
        cols["read_time"].append(read_time)
        cols["write_time"].append(write_time)
        addr, size, mode = cols["param_addr"], cols["param_size"], cols["param_mode"]
        for a, sz, m in params:
            addr.append(a)
            size.append(sz)
            mode.append(m)
        cols["param_offsets"].append(len(addr))


class TaskTrace:
    """An ordered collection of tasks plus provenance metadata, stored as
    columns.

    Iteration order is serial program order — the order the master core
    generates and submits Task Descriptors.  ``trace[tid]`` and iteration
    build :class:`TraceTask` rows on access; the machine's hot path reads
    the columns by task id instead (``exec_time[tid]``,
    :meth:`n_params_of`, :meth:`params_of`).
    """

    func: array
    exec_time: array
    read_time: array
    write_time: array
    param_offsets: array
    param_addr: array
    param_size: array
    param_mode: array

    def __init__(self, name: str, tasks: Iterable[TraceTask], meta: Optional[dict] = None):
        writer = TraceWriter()
        for i, task in enumerate(tasks):
            if task.tid != i:
                raise ValueError(
                    f"trace {name!r}: task #{i} has tid {task.tid}; "
                    "tids must equal serial position"
                )
            writer.add(task.func, task.exec_time, task.read_time,
                        task.write_time, task.params)
        self._init(name, writer.columns, meta)

    @classmethod
    def from_columns(cls, name: str, meta: Optional[dict] = None,
                     **columns: Any) -> "TaskTrace":
        """A trace from its columns (NumPy arrays, ``array`` or int lists),
        named as the attributes; tids are the row positions."""
        if set(columns) != set(_COLUMNS):
            raise ValueError(f"trace columns must be exactly {sorted(_COLUMNS)}")
        trace = cls.__new__(cls)
        trace._init(
            name,
            {key: _column(code, columns[key]) for key, code in _COLUMNS.items()},
            meta,
        )
        return trace

    def _init(self, name: str, cols: dict, meta: Optional[dict]) -> None:
        self.name = name
        self.meta: dict[str, Any] = dict(meta or {})
        for key, col in cols.items():
            setattr(self, key, col)
        self._validate()

    def _validate(self) -> None:
        """Reject what a hand-built :class:`TraceTask` or :class:`Param`
        would reject, with the same messages, in whole-column operations."""
        n = len(self.func)
        if not n:
            raise ValueError(f"trace {self.name!r} is empty")
        offsets = self.param_offsets
        n_params = len(self.param_addr)
        if (
            any(len(getattr(self, key)) != n for key in _TASK_COLUMNS)
            or len(offsets) != n + 1
            or offsets[0] != 0
            or offsets[-1] != n_params
            or len(self.param_size) != n_params
            or len(self.param_mode) != n_params
        ):
            raise ValueError(f"trace {self.name!r}: column lengths disagree")
        # Each check is one whole-column pass at C speed; the index of the
        # first bad value is searched for only once the pass has failed.
        if not all(map(lt, offsets, islice(offsets, 1, None))):
            bad = _first(_widths(offsets), lambda width: width < 1)
            raise ValueError(f"task {bad}: needs at least one parameter")
        for key in _TASK_COLUMNS[1:]:
            col = getattr(self, key)
            if not col.tobytes()[_SIGN_BYTE::8].isascii():
                bad = _first(col, lambda duration: duration < 0)
                raise ValueError(f"task {bad}: negative duration")
        sizes = self.param_size
        if min(sizes) < 1:
            bad = _first(sizes, lambda size: size < 1)
            raise ValueError(f"parameter size must be positive, got {sizes[bad]}")
        modes = self.param_mode
        if modes.tobytes().translate(None, _MODE_BYTES):
            bad = _first(modes, lambda mode: not 0 <= mode < len(_MODES))
            raise ValueError(f"unknown access mode {modes[bad]}")

    # ---- rows ----------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.func)

    def __iter__(self) -> Iterator[TraceTask]:
        return map(self.__getitem__, range(len(self.func)))

    def __getitem__(self, tid: int) -> TraceTask:
        if tid < 0:
            tid += len(self.func)
        return tuple.__new__(TraceTask, (
            tid,
            self.func[tid],
            self.params_of(tid),
            self.exec_time[tid],
            self.read_time[tid],
            self.write_time[tid],
        ))

    @property
    def tasks(self) -> list[TraceTask]:
        """Every row as a list (builds one object per task and parameter:
        for tests and small traces, never the machine's hot path)."""
        return list(self)

    def n_params_of(self, tid: int) -> int:
        return self.param_offsets[tid + 1] - self.param_offsets[tid]

    def params_of(self, tid: int) -> tuple[Param, ...]:
        """Task ``tid``'s parameters as :class:`Param` rows."""
        new = tuple.__new__
        addr, size, mode = self.param_addr, self.param_size, self.param_mode
        return tuple(
            new(Param, (addr[k], size[k], _MODES[mode[k]]))
            for k in range(self.param_offsets[tid], self.param_offsets[tid + 1])
        )

    # ---- summary statistics ---------------------------------------------------

    @property
    def total_exec_time(self) -> int:
        return sum(self.exec_time)

    @property
    def total_memory_time(self) -> int:
        return sum(self.read_time) + sum(self.write_time)

    @property
    def mean_exec_time(self) -> float:
        return self.total_exec_time / len(self)

    @property
    def mean_memory_time(self) -> float:
        return self.total_memory_time / len(self)

    @property
    def max_params(self) -> int:
        return max(_widths(self.param_offsets))

    def address_set(self) -> set[int]:
        return set(self.param_addr)

    def describe(self) -> str:
        return (
            f"trace {self.name!r}: {len(self)} tasks, "
            f"mean exec {self.mean_exec_time / 1e6:.3g}us, "
            f"mean mem {self.mean_memory_time / 1e6:.3g}us, "
            f"max params {self.max_params}, "
            f"{len(self.address_set())} distinct addresses"
        )

    # ---- serialization -----------------------------------------------------------

    def save(self, path: str) -> None:
        """Persist the columns to a compact ``.npz`` file."""
        import numpy as np

        np.savez_compressed(
            path,
            name=np.array(self.name),
            meta=np.array(json.dumps(self.meta)),
            **{
                key: np.frombuffer(getattr(self, key), dtype=np.dtype(code))
                for key, code in _COLUMNS.items()
            },
        )

    @classmethod
    def load(cls, path: str) -> "TaskTrace":
        """Load a trace produced by :meth:`save`.

        Each stored array is read once: ``NpzFile`` decompresses a member
        on every item access, so indexing it per task is quadratic.
        """
        import numpy as np

        with np.load(path, allow_pickle=False) as data:
            name = str(data["name"])
            meta = json.loads(str(data["meta"]))
            columns = {key: data[key] for key in _COLUMNS}
        return cls.from_columns(name, meta, **columns)
