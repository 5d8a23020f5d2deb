"""Task Controllers: the per-worker-core buffering units (§III-A).

Each worker core hosts a small TC of four pipelined blocks:

* **Get TD** — on a new entry in the core's CiRdyTasks list, requests the
  Task Descriptor from the Maestro's Send TDs block and buffers it;
* **Get Inputs** — prefetches the task's code and inputs from off-chip
  memory (the read phase, bank-arbitrated);
* **Run Task** — hands the task to the worker core for ``exec_time``;
* **Put Outputs** — writes outputs back to memory, then raises the 1-bit
  task-finished line to the Maestro.

The buffering depth (how many tasks a TC may hold in flight) is what
enables double buffering: with depth >= 2 the next task's input fetch
overlaps the current task's execution.  Depth 1 reproduces the original
Nexus behaviour of fetch-execute-writeback with no overlap.
"""

from __future__ import annotations

from ..scoreboard import Scoreboard
from ..sim import BusyTracker, Fifo
from .fabric import Fabric

__all__ = ["TaskController"]


class TaskController:
    """One worker core plus its local Task Controller."""

    def __init__(self, core_id: int, fabric: Fabric, scoreboard: Scoreboard):
        self.core_id = core_id
        self.fabric = fabric
        self.scoreboard = scoreboard
        sim = fabric.sim
        depth = fabric.config.buffering_depth
        # Stage-to-stage buffers: the fetch queue holds up to `depth` TDs
        # (that is the whole point of the TC); execution and write-back are
        # single-occupancy hardware stages.
        self._fetch_q = Fifo(sim, depth, f"c{core_id}-fetch-q")
        self._run_q = Fifo(sim, 1, f"c{core_id}-run-q")
        self._out_q = Fifo(sim, 1, f"c{core_id}-out-q")
        self.busy = BusyTracker(sim)
        self.tasks_run = 0

    def start(self) -> None:
        sim = self.fabric.sim
        c = self.core_id
        sim.process(self._get_td(), name=f"tc{c}.get-td")
        sim.process(self._get_inputs(), name=f"tc{c}.get-inputs")
        sim.process(self._run_task(), name=f"tc{c}.run-task")
        sim.process(self._put_outputs(), name=f"tc{c}.put-outputs")

    def _get_td(self):
        fab = self.fabric
        c = self.core_id
        while True:
            head = yield fab.rdy_fifo[c].get()
            # Raise the request line; Send TDs answers over the TD link.
            # (In a sharded machine the line terminates at this core's shard.)
            yield fab.td_request_fifo(c).put((c, head))
            got = yield fab.td_channel[c].get()
            if got != head:
                raise RuntimeError(
                    f"core {c}: TD link out of order ({got} != {head})"
                )
            yield self._fetch_q.put(head)

    def _get_inputs(self):
        fab = self.fabric
        while True:
            head = yield self._fetch_q.get()
            task = fab.task_of(head)
            self.scoreboard.records[task.tid].fetch_start = fab.sim.now
            yield from fab.memory.transfer(task.read_time)
            yield self._run_q.put(head)

    def _run_task(self):
        fab = self.fabric
        sim = fab.sim
        while True:
            head = yield self._run_q.get()
            task = fab.task_of(head)
            record = self.scoreboard.records[task.tid]
            record.exec_start = sim.now
            self.busy.begin()
            yield sim.timeout(task.exec_time)
            self.busy.end()
            record.exec_end = sim.now
            self.tasks_run += 1
            yield self._out_q.put(head)

    def _put_outputs(self):
        fab = self.fabric
        c = self.core_id
        while True:
            head = yield self._out_q.get()
            task = fab.task_of(head)
            yield from fab.memory.transfer(task.write_time)
            self.scoreboard.records[task.tid].writeback_end = fab.sim.now
            yield fab.notify_fifo(c).put(c)

