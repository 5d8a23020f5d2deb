"""ASCII Gantt charts of worker-core occupancy.

Renders a :class:`~repro.machine.results.RunResult` as one row per worker
core with ``#`` for execution, ``-`` for the memory phases around it and
spaces for idle time — double buffering, ramp-up and the drain tail are
all directly visible.
"""

from __future__ import annotations

from typing import List, Optional

from ..machine.results import RunResult

__all__ = ["gantt_chart", "stage_latency_table"]


def gantt_chart(
    result: RunResult,
    width: int = 100,
    max_cores: int = 32,
    until: Optional[int] = None,
) -> str:
    """Render per-core activity over time.

    ``until`` crops the time axis (default: full makespan).  At most
    ``max_cores`` rows are drawn (the first ones) to keep output readable.
    """
    if width < 10:
        raise ValueError("width must be >= 10")
    span = until or result.makespan
    if span <= 0:
        raise ValueError("empty run")
    cores = min(result.workers, max_cores)
    rows = [[" "] * width for _ in range(cores)]

    def col(t: int) -> int:
        return min(width - 1, max(0, int(t * width / span)))

    def paint(core: int, start: int, end: int, ch: str) -> None:
        if start >= span or end <= 0 or end <= start:
            return
        lo, hi = col(start), col(max(start, min(end, span)))
        row = rows[core]
        for c in range(lo, hi + 1):
            if row[c] == " " or ch == "#":
                row[c] = ch

    sb = result.scoreboard
    for core, fetch, start, end, writeback in zip(
        sb.core, sb.fetch_start, sb.exec_start, sb.exec_end, sb.writeback_end
    ):
        if core < 0 or core >= cores:
            continue
        if fetch >= 0 and start >= 0:
            paint(core, fetch, start, "-")
        if start >= 0 and end >= 0:
            paint(core, start, end, "#")
        if end >= 0 and writeback >= 0:
            paint(core, end, writeback, "-")

    lines = [
        f"worker occupancy over {span / 1e6:.4g} us "
        f"(#=execute, -=memory, blank=idle)"
    ]
    for core in range(cores):
        lines.append(f"c{core:<3}|{''.join(rows[core])}|")
    if result.workers > cores:
        lines.append(f"... {result.workers - cores} more cores not shown")
    return "\n".join(lines)


def stage_latency_table(result: RunResult) -> List[List[object]]:
    """Mean time spent in each lifecycle stage, in nanoseconds.

    Rows: stage name, mean latency.  Useful for spotting where tasks wait:
    queueing before dispatch vs. hardware processing vs. memory phases.
    """
    stages = [
        ("submit -> stored", "submitted", "stored"),
        ("stored -> ready", "stored", "ready"),
        ("ready -> dispatched", "ready", "dispatched"),
        ("dispatched -> fetch", "dispatched", "fetch_start"),
        ("fetch (inputs)", "fetch_start", "exec_start"),
        ("execute", "exec_start", "exec_end"),
        ("write-back", "exec_end", "writeback_end"),
        ("retire", "writeback_end", "completed"),
    ]
    sb = result.scoreboard
    complete = [tid for tid, t in enumerate(sb.completed) if t != -1]
    if not complete:
        raise ValueError("no completed tasks to analyse")
    rows: List[List[object]] = []
    for name, a, b in stages:
        col_a, col_b = getattr(sb, a), getattr(sb, b)
        total = sum(col_b[tid] - col_a[tid] for tid in complete)
        rows.append([name, round(total / len(complete) / 1e3, 1)])
    return rows
