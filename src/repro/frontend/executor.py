"""Functional execution: really runs a recorded StarSs program's task bodies.

The bodies run one by one on the calling thread, in a given order: program
order (the serial reference), or the order a modelled machine started the
lowered trace's tasks in (:meth:`repro.machine.RunResult.start_order`).
When the modelled run passes ``verify_against``, its start order is a
topological order of the golden task graph, so equal results in that order
and in program order show that the machine's schedule computes what the
program means.  The dependence rules live once, in
:func:`repro.runtime.build_task_graph`; this module does not re-derive them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from .program import StarSsProgram

__all__ = ["execute", "ExecutionReport"]


@dataclass
class ExecutionReport:
    """What a functional execution observed."""

    n_tasks: int
    order: List[int] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def execute(
    program: StarSsProgram, order: Optional[Sequence[int]] = None
) -> ExecutionReport:
    """Run every recorded task body in ``order`` (program order if ``None``).

    Raises :class:`ValueError`, before any body runs, if ``order`` is not a
    permutation of the task ids or runs a task before one of an earlier
    barrier epoch: ``to_trace`` drops barriers, so a modelled order that
    crosses one means the data do not express a barrier the program needs.
    Task exceptions are not raised but collected in the report, so callers
    assert on ``report.ok``.
    """
    tasks = program.tasks
    order = list(range(len(tasks))) if order is None else list(order)
    if sorted(order) != list(range(len(tasks))):
        raise ValueError(
            f"order is not a permutation of the {len(tasks)} task ids"
        )
    latest = None  # the task of the latest epoch run so far
    for tid in order:
        if latest is None or tasks[tid].epoch > tasks[latest].epoch:
            latest = tid
        elif tasks[tid].epoch < tasks[latest].epoch:
            raise ValueError(
                f"order runs task {latest} (epoch {tasks[latest].epoch}) "
                f"before task {tid} of the earlier epoch {tasks[tid].epoch}"
            )
    report = ExecutionReport(n_tasks=len(tasks))
    for tid in order:
        task = tasks[tid]
        try:
            task.spec.func(*task.args, **task.kwargs)
        except Exception as exc:  # collected, not raised
            report.errors.append(f"{task.name}: {exc!r}")
        report.order.append(tid)
    return report
