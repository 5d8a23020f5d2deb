"""repro: a full behavioural reproduction of Nexus++.

"Hardware-Based Task Dependency Resolution for the StarSs Programming
Model", Tamer Dallou and Ben Juurlink, ICPP Workshops 2012
(DOI 10.1109/ICPPW.2012.53).

Layers, bottom-up:

* :mod:`repro.sim`      — discrete-event simulation kernel (SystemC substitute)
* :mod:`repro.config`   — Table IV system parameters and presets
* :mod:`repro.traces`   — the paper's workloads (H.264 wavefront, synthetic
  patterns, independent tasks, Gaussian elimination) as task traces
* :mod:`repro.hw`       — the Nexus++ hardware: Task Pool, Dependence Table,
  Task Maestro blocks, Task Controllers, banked memory
* :mod:`repro.machine`  — the full-system Task Machine simulator and sweeps
* :mod:`repro.runtime`  — golden dependence semantics, functional executor,
  software-RTS baseline
* :mod:`repro.frontend` — StarSs-style ``@task`` pragma layer
* :mod:`repro.analysis` — metrics, ASCII tables/plots for the figures

Quickstart::

    from repro import NexusMachine, paper_default, h264_wavefront_trace

    result = NexusMachine(paper_default(workers=16)).run(h264_wavefront_trace())
    print(result.summary())
"""

from .config import (
    SystemConfig,
    contention_free,
    nexus_restricted,
    no_prep_delay,
    paper_default,
    sharded_maestro,
)
from .machine import NexusMachine, RunResult, grid_sweep, run_trace, speedup_curve
from .traces import (
    TaskTrace,
    gaussian_trace,
    h264_wavefront_trace,
    horizontal_chains_trace,
    independent_trace,
    vertical_chains_trace,
)

__version__ = "1.0.0"

__all__ = [
    "SystemConfig",
    "paper_default",
    "contention_free",
    "no_prep_delay",
    "nexus_restricted",
    "sharded_maestro",
    "NexusMachine",
    "run_trace",
    "speedup_curve",
    "grid_sweep",
    "RunResult",
    "TaskTrace",
    "h264_wavefront_trace",
    "independent_trace",
    "horizontal_chains_trace",
    "vertical_chains_trace",
    "gaussian_trace",
    "__version__",
]
