"""Per-task time sampling for synthetic traces.

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

from ..sim.time_units import US

if TYPE_CHECKING:
    import numpy as np

__all__ = ["TimeModel", "H264_TIME_MODEL"]


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
