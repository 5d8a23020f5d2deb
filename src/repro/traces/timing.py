"""Per-task times: the FLOP/byte conversions and sampling for synthetic traces.

Workloads specified in FLOPs and bytes own their timing: a worker core
sustains 2 GFLOPS (§V) and off-chip memory moves a 128-byte chunk per
12 ns (Table IV), whatever machine later replays the trace.

The paper drives its simulations with a trace from a real parallel H.264
decode on a Cell processor: "On average a task spends 7.5us for accessing
off-chip memory and 11.8us for execution".  The raw trace is not available,
so we sample per-task times from a seeded lognormal calibrated to those
means.  A lognormal matches the long-tailed distribution of macroblock
decode times reported for H.264 workloads; the coefficient of variation is
a parameter so the sensitivity can be benchmarked.  Sampling draws from
NumPy's RNG, which is imported on the first sample, not with the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..sim.time_units import NS, US

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "TimeModel",
    "H264_TIME_MODEL",
    "CORE_GFLOPS",
    "exec_time_for_flops",
    "memory_time_for_bytes",
]

#: Worker peak FLOP rate (2 GFLOPS per core, §V).
CORE_GFLOPS = 2.0
#: Off-chip transfer unit and its uncontended time (Table IV).
_CHUNK_BYTES = 128
_CHUNK_TIME = 12 * NS


def exec_time_for_flops(flops: float) -> int:
    """Execution time of a task of ``flops`` on one worker core (ps)."""
    return max(1, round(flops / CORE_GFLOPS * 1_000))  # flops/GFLOPS -> ns -> ps


def memory_time_for_bytes(n_bytes: int) -> int:
    """Uncontended off-chip transfer time for ``n_bytes`` (whole chunks)."""
    if n_bytes <= 0:
        return 0
    return -(-n_bytes // _CHUNK_BYTES) * _CHUNK_TIME


@dataclass(frozen=True)
class TimeModel:
    """Samples (exec, read, write) durations in picoseconds.

    ``mean_exec``/``mean_memory`` are in picoseconds.  ``read_fraction``
    splits the memory time between the input-fetch and output-writeback
    phases (H.264 ``decode()`` reads three macroblocks — left, up-right,
    this — and writes one, hence the 3:1 default).  ``cv`` is the
    coefficient of variation of the lognormal; 0 gives constant times.
    """

    mean_exec: int
    mean_memory: int
    read_fraction: float = 0.75
    cv: float = 0.25

    def __post_init__(self) -> None:
        if self.mean_exec < 0 or self.mean_memory < 0:
            raise ValueError("mean durations must be >= 0")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError(f"read_fraction must be in [0,1], got {self.read_fraction}")
        if self.cv < 0:
            raise ValueError(f"cv must be >= 0, got {self.cv}")

    def sample(self, n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return integer arrays (exec, read, write), each of length ``n``."""
        import numpy as np

        rng = np.random.default_rng(seed)
        exec_times = self._lognormal(rng, self.mean_exec, n)
        memory = self._lognormal(rng, self.mean_memory, n)
        read = np.round(memory * self.read_fraction).astype(np.int64)
        write = memory.astype(np.int64) - read
        return exec_times.astype(np.int64), read, write

    def _lognormal(self, rng: np.random.Generator, mean: float, n: int) -> np.ndarray:
        import numpy as np

        if mean == 0:
            return np.zeros(n)
        if self.cv == 0:
            return np.full(n, round(mean), dtype=np.float64)
        # Parametrize the lognormal so that its arithmetic mean is `mean`
        # and its coefficient of variation is `cv`.
        sigma2 = math.log(1.0 + self.cv**2)
        mu = math.log(mean) - sigma2 / 2.0
        samples = rng.lognormal(mean=mu, sigma=math.sqrt(sigma2), size=n)
        return np.maximum(np.round(samples), 1.0)


#: Calibrated to the published Cell H.264 trace means (11.8 us exec,
#: 7.5 us off-chip memory per task).
H264_TIME_MODEL = TimeModel(
    mean_exec=round(11.8 * US), mean_memory=round(7.5 * US), read_fraction=0.75
)
