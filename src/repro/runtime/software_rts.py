"""Software-RTS baseline: the bottleneck Nexus/Nexus++ exists to remove.

The Nexus work [10] measured that a software StarSs runtime (CellSs-style)
spends on the order of microseconds of *master-core* time per task on
descriptor creation, dependence resolution and completion handling — and
that this serial per-task cost caps the scalability of the whole system.

This module models that runtime on the same Task Machine substrate: all
runtime operations (task submission + dependence resolution, completion
handling) serialize on the master core with configurable costs, while
worker cores execute tasks with the same memory model as the Nexus++
machine.  Comparing :func:`run_software_rts` against
:class:`~repro.machine.NexusMachine` on the same trace reproduces the
motivation experiment: hardware task management keeps scaling where the
software RTS flattens out.

Default costs follow the Nexus paper's CellSs measurements (microseconds
per task, dominated by graph bookkeeping on the master).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..config import SystemConfig
from ..hw.memory import MemorySystem
from ..machine.results import RunResult, Scoreboard
from ..sim import US, DeadlockError, Fifo, Resource, Simulator
from ..traces.trace import TaskTrace
from .task_graph import TaskGraph, build_task_graph

__all__ = ["SoftwareRTSConfig", "run_software_rts"]


@dataclass(frozen=True)
class SoftwareRTSConfig:
    """Per-task costs of the software runtime, in picoseconds."""

    #: Master time to create a task and resolve its dependencies.
    submit_cost: int = 2 * US
    #: Extra master time per task parameter during resolution.
    per_param_cost: int = 200_000  # 0.2 us
    #: Master time to handle one task completion (graph update, wake-ups).
    finish_cost: int = int(1.5 * US)

    def __post_init__(self) -> None:
        if min(self.submit_cost, self.per_param_cost, self.finish_cost) < 0:
            raise ValueError("costs must be >= 0")


def run_software_rts(
    trace: TaskTrace,
    config: Optional[SystemConfig] = None,
    rts: Optional[SoftwareRTSConfig] = None,
    graph: Optional[TaskGraph] = None,
) -> RunResult:
    """Simulate the trace under a software StarSs runtime.

    Uses the golden task graph for dependence semantics (the software RTS
    is assumed functionally correct; only its *cost* is modeled) and the
    same banked memory as the Nexus++ machine.
    """
    cfg = config or SystemConfig()
    rts_cfg = rts or SoftwareRTSConfig()
    g = graph or build_task_graph(trace)

    sim = Simulator()
    scoreboard = Scoreboard(len(trace))
    memory = MemorySystem(sim, cfg)
    #: All runtime bookkeeping serializes on the master core.
    master_port = Resource(sim, 1, name="master-core")
    ready: Fifo = Fifo(sim, None, "ready-tasks")
    remaining = [len(g.predecessors[t]) for t in range(len(trace))]
    done = {"master": 0}

    def master():
        for task in trace:
            yield master_port.acquire()
            cost = (
                cfg.task_prep_time
                + rts_cfg.submit_cost
                + rts_cfg.per_param_cost * task.n_params
            )
            yield sim.timeout(cost)
            master_port.release()
            scoreboard.submitted[task.tid] = sim.now
            scoreboard.stored[task.tid] = sim.now
            if remaining[task.tid] == 0:
                scoreboard.ready[task.tid] = sim.now
                yield ready.put(task.tid)
        done["master"] = sim.now

    def finish(tid: int):
        """Completion handling on the master core."""
        yield master_port.acquire()
        yield sim.timeout(rts_cfg.finish_cost)
        released = []
        for s in g.successors[tid]:
            remaining[s] -= 1
            if remaining[s] == 0 and scoreboard.submitted[s] >= 0:
                released.append(s)
        master_port.release()
        for s in released:
            scoreboard.ready[s] = sim.now
            yield ready.put(s)
        scoreboard.note_completed(tid, sim.now)

    def worker(core: int):
        while True:
            tid = yield ready.get()
            task = trace[tid]
            scoreboard.core[tid] = core
            scoreboard.dispatched[tid] = sim.now
            scoreboard.fetch_start[tid] = sim.now
            yield from memory.transfer(task.read_time)
            scoreboard.exec_start[tid] = sim.now
            yield sim.timeout(task.exec_time)
            scoreboard.exec_end[tid] = sim.now
            yield from memory.transfer(task.write_time)
            scoreboard.writeback_end[tid] = sim.now
            sim.process(finish(tid), name=f"rts-finish-{tid}")

    sim.process(master(), name="rts-master")
    for core in range(cfg.workers):
        sim.process(worker(core), name=f"rts-worker-{core}")

    try:
        sim.run()
    except DeadlockError:
        if not scoreboard.all_done:
            raise

    return RunResult(
        trace_name=f"{trace.name}+software-rts",
        workers=cfg.workers,
        makespan=scoreboard.last_completion,
        master_done=done["master"],
        records=scoreboard.records,
        stats={"memory": memory.stats()},
        config_notes={
            "rts": "software",
            "submit_cost": rts_cfg.submit_cost,
            "finish_cost": rts_cfg.finish_cost,
        },
    )
