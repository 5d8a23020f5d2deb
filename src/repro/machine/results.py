"""Run results: aggregate metrics derived from a finished simulation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..config import SystemConfig
from ..scoreboard import STAGES, Scoreboard, TaskRecord, stage_problems

__all__ = ["TaskRecord", "Scoreboard", "RunResult"]


@dataclass
class RunResult:
    """Everything a finished simulation reports."""

    trace_name: str
    #: Time of the last task's retirement (ps) — the figure speedups use.
    makespan: int
    #: When the last master core finished submitting its final TD (ps), or
    #: ``None`` if the run was truncated (``max_time``) before it could.
    master_done: Optional[int]
    #: Per-task lifecycle records: row views over the run's scoreboard
    #: columns (a hand-built list of records is copied into columns).
    records: Sequence[TaskRecord]
    #: Modelled measurements (Dependence Table, Task Pool, memory, queues,
    #: kernel event counts): the same on every run of one trace on one
    #: machine.  No config value is copied here; read ``config``.
    stats: Dict[str, Any] = field(default_factory=dict)
    #: The machine the run ran on (Table IV for a hand-built result).
    config: SystemConfig = SystemConfig()
    #: Host cost of the simulation itself: ``wall_seconds`` and, under
    #: ``run --profile-hotspots``, ``hotspots``.  Never a modelled number.
    host: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.records = Scoreboard.of(self.records).records

    @property
    def scoreboard(self) -> Scoreboard:
        """The run's lifecycle columns (``-1`` marks a stage never reached)."""
        return self.records.board

    @property
    def n_tasks(self) -> int:
        return len(self.records)

    @property
    def telemetry(self) -> Optional[Dict[str, Any]]:
        """The windowed telemetry time-series dict, or ``None`` when the
        run was not sampled (``telemetry_window`` left at 0)."""
        return self.stats.get("telemetry")

    def speedup_over(self, baseline: "RunResult") -> float:
        """Speedup of this run relative to ``baseline`` (usually 1 worker)."""
        if self.makespan <= 0:
            raise ValueError("makespan must be positive")
        return baseline.makespan / self.makespan

    def throughput_tasks_per_s(self) -> float:
        return self.n_tasks / (self.makespan * 1e-12)

    def worker_utilization(self) -> float:
        """Aggregate fraction of worker-core time spent executing tasks.

        Only closed execution intervals count: a ``max_time``-truncated
        run's still-running tasks have no ``exec_end`` yet.
        """
        sb = self.scoreboard
        busy = sum(
            end - start
            for start, end in zip(sb.exec_start, sb.exec_end)
            if start >= 0 and end >= 0
        )
        return busy / (self.makespan * self.config.workers) if self.makespan else 0.0

    def parallel_efficiency(self) -> float:
        """Useful work over total worker time: ``sum(exec)/(workers*makespan)``.

        The efficiency-vs-granularity metric: 1.0 means every worker
        cycle went into task bodies; the gap to 1.0 is task-management
        overhead plus dependence stalls.  Numerically identical to
        :meth:`worker_utilization` — named separately because the
        efficiency curve reads it as "fraction of ideal speedup", not as
        a core-occupancy statistic.
        """
        return self.worker_utilization()

    def start_order(self) -> List[int]:
        """Task ids in the order their bodies started: by ``(exec_start, tid)``.

        For a run that passes :meth:`verify_against` this is a topological
        order of the golden graph: a successor's ``fetch_start`` is no
        earlier than each predecessor's ``writeback_end``, which is at or
        after that predecessor's ``exec_start``; on a tie the predecessor
        has the smaller tid.  :func:`repro.frontend.execute` runs a
        recorded program's bodies in it.
        """
        exec_start = self.scoreboard.exec_start
        if -1 in exec_start:
            raise ValueError(
                f"task {exec_start.index(-1)} never started: no start order"
            )
        return sorted(range(len(exec_start)), key=exec_start.__getitem__)

    def verify_against(self, graph) -> List[str]:
        """All correctness checks against the golden task graph.

        Empty list = the run is legal: every task ran exactly once, stage
        timestamps are monotone, and no dependence edge was violated
        (successor's input fetch never precedes predecessor's write-back).
        """
        problems: List[str] = []
        sb = self.scoreboard
        if sb.n_tasks != graph.n_tasks:
            problems.append(f"{sb.n_tasks} records for {graph.n_tasks} tasks")
            return problems
        for tid, stamps in enumerate(zip(*(getattr(sb, n) for n in STAGES))):
            # Only a row with an unset or decreasing stamp can have problems.
            if -1 in stamps or list(stamps) != sorted(stamps):
                if stamps[-1] == -1:
                    problems.append(f"task {tid} never completed")
                problems.extend(stage_problems(tid, stamps))
        if problems:
            return problems
        # Data becomes visible when Put Outputs finishes; Handle Finished may
        # grant a waiter between the predecessor's write-back and its formal
        # retirement, so write-back is the correct reference point.
        problems.extend(
            graph.check_schedule(sb.fetch_start.tolist(), sb.writeback_end.tolist())
        )
        return problems

    def summary(self) -> str:
        return (
            f"{self.trace_name}: {self.n_tasks} tasks on "
            f"{self.config.workers} workers, "
            f"makespan {self.makespan / 1e9:.4g} ms, "
            f"{self.throughput_tasks_per_s() / 1e6:.3g} Mtasks/s, "
            f"worker utilization {self.worker_utilization():.1%}"
        )
