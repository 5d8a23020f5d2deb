"""Full-system Task Machine simulator and sweep helpers."""

from .bottleneck import (
    BottleneckReport,
    BottleneckTimeline,
    analyze_bottleneck,
    bottleneck_timeline,
)
from .machine import NexusMachine, run_trace
from .results import RunResult, Scoreboard, TaskRecord
from .sweep import (
    COLUMNS,
    GridReport,
    grid_sweep,
    saturation_point,
)

__all__ = [
    "NexusMachine",
    "run_trace",
    "RunResult",
    "Scoreboard",
    "TaskRecord",
    "COLUMNS",
    "GridReport",
    "grid_sweep",
    "saturation_point",
    "BottleneckReport",
    "analyze_bottleneck",
    "BottleneckTimeline",
    "bottleneck_timeline",
]
