"""Segment renaming: eliminating WAR/WAW hazards before the hardware.

§III-B: "Although the WAR hazards and the write-after-write WAW hazards
are false dependencies and are normally resolved using renaming
techniques, Nexus++ supports them as a safe guard."  The paper leaves
renaming to the runtime; this module implements it, so the cost of *not*
renaming (serialisation on false dependencies) can be measured — see the
``renaming_ablation`` row of ``repro.experiments.CURVES``.

The transformation is the classic SSA-style one: every write to a segment
creates a fresh *version* at a fresh base address; reads bind to the
version current at their point in program order.  True (RAW) dependencies
are preserved exactly; WAR and WAW edges vanish because no two tasks ever
write the same address.

The renamed trace is what a renaming StarSs runtime would submit to
Nexus++; the hardware needs no change (it simply sees more distinct
addresses, so renaming trades Dependence Table pressure for parallelism —
also measurable).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..traces.trace import AccessMode, Param, TaskTrace, TraceTask

__all__ = ["rename_trace", "count_false_dependencies"]


def _fresh_address(base: int, version: int, version_stride: int) -> int:
    return base + version * version_stride


def rename_trace(
    trace: TaskTrace,
    version_stride: int = 1 << 32,
    name: Optional[str] = None,
) -> TaskTrace:
    """Return an equivalent trace with all WAR/WAW hazards renamed away.

    ``version_stride`` separates versions of the same segment in the
    synthetic address space; it must exceed every segment size (the
    default leaves the low 32 bits for the original addresses).
    """
    if version_stride <= 0:
        raise ValueError("version_stride must be positive")
    for task in trace:
        for p in task.params:
            if p.size > version_stride:
                raise ValueError(
                    f"segment {p.addr:#x} larger than version stride"
                )
    current_version: Dict[int, int] = {}
    renamed = []
    for task in trace:
        params = []
        # Bind reads to current versions first, then bump written segments:
        # within one task a read of an inout sees the *previous* version
        # and its write creates the next one.
        bumps: Dict[int, int] = {}
        for p in task.params:
            version = current_version.get(p.addr, 0)
            if p.mode == AccessMode.IN:
                params.append(
                    Param(_fresh_address(p.addr, version, version_stride), p.size, p.mode)
                )
            else:
                new_version = version + 1
                bumps[p.addr] = new_version
                if p.mode == AccessMode.INOUT:
                    # The read half still references the old version; the
                    # hardware tracks one address per param, so an inout
                    # splits into in(old version) + out(new version).
                    params.append(
                        Param(
                            _fresh_address(p.addr, version, version_stride),
                            p.size,
                            AccessMode.IN,
                        )
                    )
                params.append(
                    Param(
                        _fresh_address(p.addr, new_version, version_stride),
                        p.size,
                        AccessMode.OUT,
                    )
                )
        current_version.update(bumps)
        renamed.append(
            TraceTask(
                tid=task.tid,
                func=task.func,
                params=tuple(params),
                exec_time=task.exec_time,
                read_time=task.read_time,
                write_time=task.write_time,
            )
        )
    return TaskTrace(
        name or f"{trace.name}+renamed",
        renamed,
        meta={**trace.meta, "renamed": True},
    )


def count_false_dependencies(trace: TaskTrace) -> Tuple[int, int, int]:
    """Count (RAW, WAR, WAW) edges in the trace's dependence graph."""
    from .task_graph import DependenceKind, build_task_graph

    graph = build_task_graph(trace)
    counts = {DependenceKind.RAW: 0, DependenceKind.WAR: 0, DependenceKind.WAW: 0}
    for kind in graph.edge_kinds.values():
        counts[kind] += 1
    return counts[DependenceKind.RAW], counts[DependenceKind.WAR], counts[DependenceKind.WAW]
