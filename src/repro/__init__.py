"""repro: a full behavioural reproduction of Nexus++.

"Hardware-Based Task Dependency Resolution for the StarSs Programming
Model", Tamer Dallou and Ben Juurlink, ICPP Workshops 2012
(DOI 10.1109/ICPPW.2012.53).

Layers, bottom-up:

* :mod:`repro.sim`      — discrete-event simulation kernel (SystemC substitute)
* :mod:`repro.config`   — Table IV system parameters and named machines
* :mod:`repro.traces`   — the paper's workloads (H.264 wavefront, synthetic
  patterns, independent tasks, Gaussian elimination) as task traces
* :mod:`repro.hw`       — the Nexus++ hardware: Task Pool, Dependence Table,
  Task Maestro blocks, Task Controllers, banked memory
* :mod:`repro.machine`  — the full-system Task Machine simulator and sweeps
* :mod:`repro.runtime`  — golden dependence semantics, software-RTS baseline
* :mod:`repro.frontend` — StarSs-style ``@task`` pragma layer: record a
  program, lower it to a trace, run its bodies in a modelled start order
* :mod:`repro.analysis` — metrics, ASCII tables/plots for the figures

Quickstart::

    from repro import NexusMachine, SystemConfig, h264_wavefront_trace

    result = NexusMachine(SystemConfig(workers=16)).run(h264_wavefront_trace())
    print(result.summary())
"""

from .config import LADDER, SystemConfig
from .machine import NexusMachine, RunResult, grid_sweep, run_trace
from .traces import (
    TaskTrace,
    gaussian_trace,
    h264_wavefront_trace,
    horizontal_chains_trace,
    independent_trace,
    vertical_chains_trace,
    workload,
)

__version__ = "1.0.0"

__all__ = [
    "SystemConfig",
    "LADDER",
    "NexusMachine",
    "run_trace",
    "grid_sweep",
    "RunResult",
    "TaskTrace",
    "h264_wavefront_trace",
    "independent_trace",
    "horizontal_chains_trace",
    "vertical_chains_trace",
    "gaussian_trace",
    "workload",
    "__version__",
]
