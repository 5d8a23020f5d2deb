"""Software runtime layer: golden task graph, software-RTS timing baseline."""

from .software_rts import SoftwareRTSConfig, run_software_rts
from .task_graph import DependenceKind, TaskGraph, build_task_graph

__all__ = [
    "TaskGraph",
    "build_task_graph",
    "DependenceKind",
    "SoftwareRTSConfig",
    "run_software_rts",
]
