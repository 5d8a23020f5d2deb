"""Off-chip memory with the paper's 32-bank contention model.

"The off-chip memory is assumed to have 32 banks, each having one
read/write port.  Therefore, no more than 32 tasks can access the memory at
a given time, and this is how contention accessing off-chip memory is
modeled." (§IV)

A task's read (input prefetch) or write (output write-back) phase is a
sequence of 128-byte chunk transfers of 12 ns each.  Each transfer needs a
bank; we grant banks in *batches* of ``memory_batch_chunks`` chunks so a
long phase does not monopolise a bank for its whole duration while keeping
the simulated event count tractable (batch duration stays two to three
orders of magnitude below task durations; ``memory_batch_chunks=1``
reproduces exact per-chunk interleaving for the unit tests).

In contention-free mode (the paper's 143x experiments) a phase is a single
uncontended delay.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..config import SystemConfig
from ..sim import Resource, Sampler, Simulator

__all__ = ["MemorySystem"]


class MemorySystem:
    """Bank-arbitrated off-chip memory shared by all Task Controllers."""

    def __init__(self, sim: Simulator, config: SystemConfig):
        self._sim = sim
        self._config = config
        self._quantum = config.memory_batch_chunks * config.off_chip_access_time
        self.banks: Optional[Resource] = None
        if config.memory_contention:
            self.banks = Resource(
                sim, config.memory_banks, name="memory-banks", track_occupancy=True
            )
        #: Queueing delay experienced by each completed phase (diagnostics).
        self.wait_times = Sampler()
        self.phases = 0
        self.busy_chunk_time = 0

    def transfer(self, duration: int) -> Generator:
        """Process fragment: occupy memory for ``duration`` ps of transfers.

        Usage inside a Task Controller process::

            yield from memory.transfer(trace.read_time[tid])
        """
        self.phases += 1
        if duration <= 0:
            return
        self.busy_chunk_time += duration
        if self.banks is None:
            yield self._sim.timeout(duration)
            return
        t0 = self._sim.now
        remaining = duration
        while remaining > 0:
            yield self.banks.acquire()
            slice_time = self._quantum if remaining > self._quantum else remaining
            yield self._sim.timeout(slice_time)
            self.banks.release()
            remaining -= slice_time
        self.wait_times.add((self._sim.now - t0) - duration)

    def mean_bank_occupancy(self) -> float:
        """Time-weighted mean busy banks (0 when contention is off)."""
        if self.banks is None or self.banks.stat is None:
            return 0.0
        return self.banks.stat.mean()

    def stats(self) -> dict:
        return {
            "phases": self.phases,
            "mean_wait_ps": self.wait_times.mean,
            "max_wait_ps": self.wait_times.max or 0,
            "mean_busy_banks": self.mean_bank_occupancy(),
        }
