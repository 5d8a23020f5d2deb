"""The master front-end: executes the main program and submits Task
Descriptors.

Per task a master spends ``task_prep_time`` preparing the descriptor
(30 ns, measured in the Nexus work and compensated here for the removed
off-chip hop), then streams it to the Task Maestro over the 8-byte-wide
2 GB/s on-chip bus: a handshake word announcing the transaction, then one
word for (task id, function pointer) and one word per parameter.  If the
receiving TDs buffer is full the master stalls — exactly the backpressure
mechanism of §III-A.

Beyond the paper the front-end scales two ways (the submission path is the
machine's ceiling once the Maestro itself is sharded):

* **Batching** (``submission_batch``): a master prepares up to B
  descriptors and ships them in one DMA-style bus transaction, amortizing
  the handshake word over the batch.  B = 1 reproduces the paper's
  one-transaction-per-descriptor stream cycle for cycle.
* **Multiple masters** (``master_cores``): the trace is split round-robin
  over N master cores, each submitting its slice in its own program order
  into a per-master TDs buffer; the fabric's sequence-numbered
  :class:`~repro.hw.fabric.MergeUnit` restores global program order before
  Write TP.  N = 1 feeds the central TDs Buffer directly with no merge
  unit in the path.

:class:`MasterCluster` owns the N :class:`MasterCore` processes (plus the
merge unit when one is wired) and aggregates their statistics.
"""

from __future__ import annotations

from typing import List, Optional

from ..scoreboard import Scoreboard
from .fabric import Fabric

__all__ = ["MasterCore", "MasterCluster"]


class MasterCore:
    """One submitter: generates a round-robin slice of the trace's Task
    Descriptors in that slice's program order."""

    def __init__(self, master_id: int, fabric: Fabric, scoreboard: Scoreboard):
        self.master_id = master_id
        self.fabric = fabric
        self.scoreboard = scoreboard
        #: Simulation time when the last descriptor was handed over.
        self.done_at: int | None = None
        #: Time spent stalled on a full TDs buffer (diagnostics).
        self.stall_time = 0
        #: Descriptors handed into the TDs buffer so far.
        self.submitted = 0

    def start(self) -> None:
        self.fabric.sim.process(self._run(), name=f"master-core-{self.master_id}")

    def _run(self):
        fab = self.fabric
        sim = fab.sim
        cfg = fab.config
        # This master's round-robin slice, tagged with global sequence
        # numbers (= trace indices) for the merge unit.
        slice_ = [
            (seq, task)
            for seq, task in enumerate(fab.trace)
            if seq % fab.n_masters == self.master_id
        ]
        out = (
            fab.master_buffers[self.master_id]
            if fab.parallel_frontend
            else fab.tds_buffer
        )
        batch = cfg.submission_batch
        for start in range(0, len(slice_), batch):
            chunk = slice_[start : start + batch]
            for _, task in chunk:
                if cfg.task_prep_time:
                    yield sim.timeout(cfg.task_prep_time)
            # One bus transaction for the whole batch (a batch of one is
            # exactly the paper's per-descriptor submission timing).
            yield sim.timeout(
                cfg.batch_submission_time([task.n_params for _, task in chunk])
            )
            for seq, task in chunk:
                before = sim.now
                if fab.parallel_frontend:
                    yield out.put((seq, task))  # stalls while the buffer is full
                else:
                    yield out.put(task)
                self.stall_time += sim.now - before
                self.submitted += 1
                self.scoreboard.submitted[task.tid] = sim.now
        self.done_at = sim.now


class MasterCluster:
    """The whole submission front-end: N master cores plus, when more than
    one is configured, the program-order merge unit."""

    def __init__(self, fabric: Fabric, scoreboard: Scoreboard):
        self.fabric = fabric
        self.masters: List[MasterCore] = [
            MasterCore(m, fabric, scoreboard) for m in range(fabric.n_masters)
        ]

    def start(self) -> None:
        for master in self.masters:
            master.start()
        if self.fabric.parallel_frontend:
            self.fabric.merge.start()

    @property
    def done_at(self) -> Optional[int]:
        """When the last master finished submitting, or ``None`` while any
        master still holds unsubmitted descriptors (e.g. a truncated run)."""
        times = [m.done_at for m in self.masters]
        if any(t is None for t in times):
            return None
        return max(times) if times else None

    @property
    def stall_time(self) -> int:
        """Total time the masters spent stalled on full TDs buffers."""
        return sum(m.stall_time for m in self.masters)

    @property
    def submitted(self) -> int:
        """Descriptors handed into the TDs buffers across all masters."""
        return sum(m.submitted for m in self.masters)

    def per_master_stall(self) -> List[int]:
        return [m.stall_time for m in self.masters]
