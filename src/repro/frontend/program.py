"""StarSs-style program recording.

The paper's Listing 1 annotates functions with ``#pragma css task
input(...) inout(...)``; a source-to-source compiler then turns each call
into a runtime-library call that creates a task.  This module is the Python
equivalent: :meth:`StarSsProgram.task` plays the role of the pragma, and
calling the decorated function *records* a task instead of executing it.

Recorded programs can be

* lowered to a :class:`~repro.traces.trace.TaskTrace` and replayed on the
  cycle-level :class:`~repro.machine.NexusMachine`, and
* executed for real by :func:`repro.frontend.execute`, in program order or
  in the order the modelled machine started their tasks.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..traces.timing import memory_time_for_bytes
from ..traces.trace import AccessMode, Param, TaskTrace, TraceTask

__all__ = ["StarSsProgram", "RecordedTask", "TaskSpec"]


@dataclass(frozen=True)
class TaskSpec:
    """Parameter directions a ``@prog.task`` decorator declared."""

    func: Callable
    inputs: Tuple[str, ...]
    outputs: Tuple[str, ...]
    inouts: Tuple[str, ...]

    def direction_of(self, arg_name: str) -> Optional[AccessMode]:
        if arg_name in self.inouts:
            return AccessMode.INOUT
        if arg_name in self.outputs:
            return AccessMode.OUT
        if arg_name in self.inputs:
            return AccessMode.IN
        return None


@dataclass
class RecordedTask:
    """One recorded task invocation."""

    tid: int
    spec: TaskSpec
    args: Tuple[Any, ...]
    kwargs: Dict[str, Any]
    #: (object, access mode) for every annotated argument that was not None.
    accesses: List[Tuple[Any, AccessMode]] = field(default_factory=list)
    #: Barrier generation this task was recorded in.
    epoch: int = 0

    @property
    def name(self) -> str:
        return f"{self.spec.func.__name__}#{self.tid}"


def _object_bytes(obj: Any) -> int:
    # An ndarray can only exist once NumPy is loaded; never import it here.
    np = sys.modules.get("numpy")
    if np is not None and isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    return max(8, sys.getsizeof(obj))


class StarSsProgram:
    """Records annotated function calls into a task graph.

    Example (the paper's Listing 1, directly)::

        prog = StarSsProgram()

        @prog.task(inputs=("left", "upright"), inouts=("block",))
        def decode(left, upright, block):
            ...

        for i in range(rows):
            for j in range(cols):
                decode(X[i][j-1] if j else None,
                       X[i-1][j+1] if i and j+1 < cols else None,
                       X[i][j])
        prog.barrier()
    """

    def __init__(self, name: str = "starss-program"):
        self.name = name
        self.tasks: List[RecordedTask] = []
        self._epoch = 0
        self._addr_registry: Dict[int, int] = {}
        self._next_addr = 0x10_000_000
        self._keepalive: List[Any] = []  # pin ids of registered objects

    # ---- the pragma --------------------------------------------------------------

    def task(
        self,
        inputs: Sequence[str] = (),
        outputs: Sequence[str] = (),
        inouts: Sequence[str] = (),
    ) -> Callable[[Callable], Callable]:
        """Decorator equivalent of ``#pragma css task input(...) ...``.

        Argument names listed in ``inputs``/``outputs``/``inouts`` must be
        positional parameters of the function.  Calling the decorated
        function records a task; passing ``None`` for an annotated argument
        skips that parameter (Listing 1 relies on this at frame borders).
        """
        names = set(inputs) | set(outputs) | set(inouts)
        if len(names) != len(inputs) + len(outputs) + len(inouts):
            raise ValueError("an argument may appear in only one direction list")

        def decorate(func: Callable) -> Callable:
            code = func.__code__
            arg_names = code.co_varnames[: code.co_argcount]
            varargs_name = None
            if code.co_flags & 0x04:  # CO_VARARGS
                varargs_name = code.co_varnames[code.co_argcount + code.co_kwonlyargcount]
            known = set(arg_names) | ({varargs_name} if varargs_name else set())
            unknown = names - known
            if unknown:
                raise ValueError(
                    f"{func.__name__}: annotated names {sorted(unknown)} are "
                    "not parameters of the function"
                )
            spec = TaskSpec(func, tuple(inputs), tuple(outputs), tuple(inouts))

            @functools.wraps(func)
            def record(*args: Any, **kwargs: Any) -> RecordedTask:
                bound = dict(zip(arg_names, args))
                bound.update(kwargs)
                accesses: List[Tuple[Any, AccessMode]] = []
                seen_ids: Dict[int, int] = {}
                # A ``*rows``-style parameter annotates every extra
                # positional argument with one direction — the idiom for
                # StarSs tasks whose parameter count varies per call (and
                # what makes pivot tasks exceed a Task Descriptor).
                items: List[Tuple[str, Any]] = [(n, bound.get(n)) for n in arg_names]
                if varargs_name is not None:
                    items.extend(
                        (varargs_name, extra) for extra in args[len(arg_names) :]
                    )
                for arg_name, obj in items:
                    mode = spec.direction_of(arg_name)
                    if mode is None:
                        continue
                    if obj is None:
                        continue
                    # Merge duplicate objects into their strongest mode, as
                    # the hardware tracks a single entry per base address.
                    key = id(obj)
                    if key in seen_ids:
                        idx = seen_ids[key]
                        old_obj, old_mode = accesses[idx]
                        reads = old_mode.reads or mode.reads
                        writes = old_mode.writes or mode.writes
                        merged = (
                            AccessMode.INOUT
                            if reads and writes
                            else AccessMode.OUT
                            if writes
                            else AccessMode.IN
                        )
                        accesses[idx] = (old_obj, merged)
                    else:
                        seen_ids[key] = len(accesses)
                        accesses.append((obj, mode))
                task = RecordedTask(
                    tid=len(self.tasks),
                    spec=spec,
                    args=args,
                    kwargs=dict(kwargs),
                    accesses=accesses,
                    epoch=self._epoch,
                )
                self.tasks.append(task)
                return task

            record.spec = spec  # type: ignore[attr-defined]
            return record

        return decorate

    def barrier(self) -> None:
        """``#pragma css barrier``: later tasks wait for all earlier ones."""
        self._epoch += 1

    def reset(self) -> None:
        """Forget all recorded tasks (keeps the address registry)."""
        self.tasks.clear()
        self._epoch = 0

    # ---- addressing ----------------------------------------------------------------

    def address_of(self, obj: Any) -> int:
        """Stable synthetic base address for a data object."""
        key = id(obj)
        addr = self._addr_registry.get(key)
        if addr is None:
            addr = self._next_addr
            size = _object_bytes(obj)
            # Keep segments disjoint and 64-byte aligned.
            self._next_addr += (size + 63) // 64 * 64 + 64
            self._addr_registry[key] = addr
            self._keepalive.append(obj)
        return addr

    # ---- lowering to a machine trace ---------------------------------------------------

    def to_trace(
        self,
        exec_time: Callable[[RecordedTask], int] | int = 1000,
        name: Optional[str] = None,
    ) -> TaskTrace:
        """Lower the recorded program to a :class:`TaskTrace`.

        ``exec_time`` is either a constant (ps) or a callable evaluated per
        task.  Read/write phase durations are derived from the annotated
        objects' byte sizes via Table IV's off-chip timing
        (:func:`repro.traces.timing.memory_time_for_bytes`), mirroring how
        the paper's traces record per-task memory times.

        Barriers stall the *master core*, which the trace format (pure data
        flow) does not express, so they are dropped during lowering — data
        dependencies already order the epochs in every program whose phases
        communicate through data.  :func:`repro.frontend.execute` rejects
        an order that crosses a barrier, so a program whose data do not
        express one fails there rather than computing a wrong result.

        Each task's ``func`` is the index of its :class:`TaskSpec` in the
        order the specs were first recorded, so two identical builds of a
        program lower to identical traces.
        """
        if not self.tasks:
            raise ValueError("no tasks recorded")
        trace_tasks: List[TraceTask] = []
        func_ids: Dict[TaskSpec, int] = {}
        for task in self.tasks:
            params = []
            read_bytes = 0
            write_bytes = 0
            for obj, mode in task.accesses:
                size = _object_bytes(obj)
                params.append(Param(self.address_of(obj), size, mode))
                if mode.reads:
                    read_bytes += size
                if mode.writes:
                    write_bytes += size
            if not params:
                raise ValueError(f"task {task.name} touches no data")
            et = exec_time(task) if callable(exec_time) else int(exec_time)
            trace_tasks.append(
                TraceTask(
                    tid=task.tid,
                    func=func_ids.setdefault(task.spec, len(func_ids)),
                    params=tuple(params),
                    exec_time=et,
                    read_time=memory_time_for_bytes(read_bytes),
                    write_time=memory_time_for_bytes(write_bytes),
                )
            )
        return TaskTrace(
            name or self.name,
            trace_tasks,
            meta={"pattern": "frontend", "recorded_tasks": len(self.tasks)},
        )
