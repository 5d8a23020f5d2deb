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
    EfficiencyReport,
    GridReport,
    SpeedupCurve,
    efficiency_sweep,
    grid_sweep,
    speedup_curve,
)

__all__ = [
    "NexusMachine",
    "run_trace",
    "RunResult",
    "Scoreboard",
    "TaskRecord",
    "SpeedupCurve",
    "speedup_curve",
    "COLUMNS",
    "GridReport",
    "grid_sweep",
    "EfficiencyReport",
    "efficiency_sweep",
    "BottleneckReport",
    "analyze_bottleneck",
    "BottleneckTimeline",
    "bottleneck_timeline",
]
