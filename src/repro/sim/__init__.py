"""Discrete-event simulation kernel (the SystemC substitute).

Public API::

    from repro.sim import Simulator, Fifo, Signal, Resource
    from repro.sim import NS, US, MS, fmt_time

See :mod:`repro.sim.core` for the execution model.
"""

from .core import Process, Simulator, Timeout, Waitable
from .channels import Fifo
from .errors import DeadlockError, ProcessError, SimError
from .stats import BusyTracker, LatencyBreakdown, LevelStat, OccupancyStat, Sampler
from .sync import Resource, Signal
from .time_units import MS, NS, PS, S, US, cycles, fmt_time, ns, us

__all__ = [
    "Simulator",
    "Process",
    "Timeout",
    "Waitable",
    "Fifo",
    "Signal",
    "Resource",
    "BusyTracker",
    "LatencyBreakdown",
    "LevelStat",
    "OccupancyStat",
    "Sampler",
    "SimError",
    "DeadlockError",
    "ProcessError",
    "PS",
    "NS",
    "US",
    "MS",
    "S",
    "cycles",
    "fmt_time",
    "ns",
    "us",
]
