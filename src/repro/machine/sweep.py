"""Parameter sweeps: speedup curves and design-space exploration.

All the paper's figures are sweeps of machine parameters (worker count,
Dependence Table size, Task Pool size, buffering depth) at a fixed
workload.  :func:`grid_sweep` runs any Cartesian grid of
:class:`SystemConfig` knobs over one trace.  A speedup-vs-cores curve is
its ``workers`` axis with 1 first, so every speedup is over the 1-worker
run, as in the paper: "the speedup is measured against the single core
experiment of Nexus++ (double buffering enabled)".
:func:`saturation_point` reads where such a curve flattens.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..config import SystemConfig
from ..traces.trace import TaskTrace
from .machine import NexusMachine
from .results import RunResult

__all__ = [
    "saturation_point",
    "COLUMNS",
    "GridReport",
    "grid_sweep",
]


def saturation_point(
    core_counts: Sequence[int], speedups: Sequence[float], tolerance: float = 0.05
) -> int:
    """Smallest core count at or beyond which the curve *stays* within
    ``tolerance`` of the peak speedup.

    A point that merely touches the tolerance band before the curve dips
    again (non-monotone curves do this) is not saturation — the whole
    tail from the returned count onward must sit in the band.
    """
    threshold = max(speedups) * (1.0 - tolerance)
    for i, cores in enumerate(core_counts):
        if all(s >= threshold for s in speedups[i:]):
            return cores
    return core_counts[-1]


def _stat(*path: str, default: Any = 0, digits: Optional[int] = None):
    """Extractor for the nested ``run.stats[path[0]][path[1]]...`` value
    (``default`` when absent), rounded to ``digits`` places when given."""

    def extract(run: RunResult) -> Any:
        value = run.stats
        for key in path[:-1]:
            value = value.get(key, {})
        value = value.get(path[-1], default)
        return value if digits is None else round(value, digits)

    return extract


def _util(run: RunResult) -> Dict[str, float]:
    return run.stats.get("maestro_utilization", {})


def _busiest(
    util: Dict[str, float], match: Callable[[str], bool] = lambda name: True
) -> Optional[float]:
    """Highest occupancy among the Maestro blocks whose name ``match``es."""
    busy = [v for k, v in util.items() if match(k)]
    return round(max(busy), 4) if busy else None


def _retire(run: RunResult, key: str, empty: Any) -> List[Any]:
    """Per-shard retire-pipeline series ``key`` (``[empty]`` if absent)."""
    return run.stats.get("shards", {}).get("retire", {}).get(key) or [empty]


def _retire_inflight_mean(run: RunResult) -> float:
    inflight = _retire(run, "inflight_mean", 0.0)
    return round(sum(inflight) / len(inflight), 4)


def _td_cache_hit_rate(run: RunResult) -> Optional[float]:
    cache = run.stats.get("dispatch", {}).get("fast_dispatch", {}).get("td_cache")
    return round(cache["hit_rate"], 4) if cache else None


def _master_bound_fraction(run: RunResult) -> Optional[float]:
    if run.master_done is None or not run.makespan:
        return None
    return round(run.master_done / run.makespan, 4)


#: Named report columns, ``name -> extractor(RunResult)``.  Every
#: :meth:`GridReport.rows` row carries all of them, whatever the axes, so
#: one grid answers the shard, submission, retire, dispatch, resolve and
#: check questions alike.  Resolve- and check-side counters that share a
#: name carry their block as a prefix.
COLUMNS: Dict[str, Callable[[RunResult], Any]] = {
    "busiest_maestro_block": lambda r: (
        max(u, key=u.get) if (u := _util(r)) else None
    ),
    "busiest_block_utilization": lambda r: _busiest(_util(r)),
    # Submission front-end.
    "master_done_ps": lambda r: r.master_done,
    "master_bound_fraction": _master_bound_fraction,
    "master_stall_ps": _stat("master_stall_ps"),
    # Sharded Maestro: interconnect, stealing, retire pipeline.
    "interconnect_messages": _stat("shards", "interconnect", "messages"),
    "cross_shard_messages": _stat("shards", "interconnect", "cross_shard_messages"),
    "steals": _stat("shards", "steals"),
    "steals_after_forward": _stat("shards", "steals_after_forward"),
    "retire_inflight_mean": _retire_inflight_mean,
    "retire_inflight_max": lambda r: max(_retire(r, "inflight_max", 0)),
    "retire_full_fraction": lambda r: round(
        max(_retire(r, "full_fraction", 0.0)), 4
    ),
    # Critical dependence chain and the fast-dispatch subsystem.
    "chain_depth": _stat("dispatch", "chain_depth"),
    "chain_fraction": _stat("dispatch", "chain_fraction", default=0.0),
    "chain_hop_ns": _stat("dispatch", "chain_hop_ns", default={}),
    "dominant_chain_component": _stat(
        "dispatch", "dominant_chain_component", default=None
    ),
    "td_cache_hit_rate": _td_cache_hit_rate,
    "fast_dispatches": _stat("dispatch", "fast_dispatch", "fast_dispatches"),
    # Staged resolve pipeline.
    "resolve_mean_batch": _stat("resolve", "mean_batch", default=0.0, digits=4),
    "resolve_coalesce_rate": _stat(
        "resolve", "coalesce_rate", default=0.0, digits=4
    ),
    "resolve_row_merges": _stat("resolve", "row_merges"),
    "speculative_kicks": _stat("resolve", "speculative_kicks"),
    # Check path: the scatter block is the central sequencer when it
    # runs, else the busiest per-master slice engine.
    "scatter_busy": lambda r: _busiest(
        _util(r), lambda k: k == "scatter" or k.endswith(".scatter")
    ),
    "check_engine_busy": lambda r: _busiest(
        _util(r), lambda k: k.endswith(".check")
    ),
    "check_mean_batch": _stat("check", "mean_batch", default=0.0, digits=4),
    "check_coalesce_rate": _stat("check", "coalesce_rate", default=0.0, digits=4),
    "check_row_merges": _stat("check", "row_merges"),
    "reseq_max_held": lambda r: max(
        r.stats.get("check", {}).get("reseq_max_held") or [0]
    ),
}


@dataclass
class GridReport:
    """One trace run over a Cartesian grid of :class:`SystemConfig` knobs.

    ``points[i]`` holds the knob values of grid point ``i`` and ``runs[i]``
    its result, which carries the machine it ran on.  The baseline every
    speedup is measured against is the first point, so list the "off" or
    smallest value first on every axis.
    """

    trace_name: str
    axes: Dict[str, List[Any]]
    points: List[Dict[str, Any]]
    runs: List[RunResult]

    @property
    def speedups(self) -> List[float]:
        base = self.runs[0].makespan
        return [base / r.makespan for r in self.runs]

    def at(self, **point: Any) -> RunResult:
        """The run at the grid point with exactly these knob values."""
        return self.runs[self.points.index(point)]

    def rows(self) -> List[dict]:
        """One row per grid point: its knob values, makespan, speedup vs
        the first point and every :data:`COLUMNS` entry."""
        out = []
        for point, run, speedup in zip(self.points, self.runs, self.speedups):
            row = dict(point)
            row["makespan_ps"] = run.makespan
            row["speedup_vs_baseline"] = round(speedup, 4)
            for name, extract in COLUMNS.items():
                row[name] = extract(run)
            out.append(row)
        return out

    def to_json_dict(self, profile: bool = False) -> dict:
        """The report as JSON: the axes, the baseline point, the knobs the
        whole grid holds away from their defaults, and the rows (each
        with its kernel counts ``stats["sim"]`` and wall time ``host``
        when ``profile``)."""
        rows = self.rows()
        if profile:
            for row, run in zip(rows, self.runs):
                row["sim"] = run.stats["sim"]
                row["host"] = run.host
        first, default = self.runs[0].config, SystemConfig()
        fixed = {
            f.name: getattr(first, f.name)
            for f in fields(SystemConfig)
            if f.name not in self.axes
            and getattr(first, f.name) != getattr(default, f.name)
        }
        return {
            "trace": self.trace_name,
            "axes": self.axes,
            "baseline": self.points[0],
            "fixed": fixed,
            "rows": rows,
        }


def grid_sweep(
    trace: TaskTrace,
    base: SystemConfig,
    axes: Dict[str, Sequence[Any]],
    run: Optional[Callable[[SystemConfig], RunResult]] = None,
) -> GridReport:
    """Run ``trace`` once per point of the Cartesian product of ``axes``.

    ``axes`` maps :class:`SystemConfig` field names to the values to sweep;
    the first axis is outermost (``itertools.product`` order).  Every
    point's config is built with ``base.with_(**point)`` before any run
    starts, so an invalid point fails fast with the config's own error.
    ``run(config)`` runs one point, by default ``trace`` on a
    :class:`NexusMachine`; pass another to sweep the software-RTS
    baseline, or to reuse runs a caller already holds.
    """
    axes = {name: list(values) for name, values in axes.items()}
    if not axes:
        raise ValueError("grid_sweep needs at least one axis")
    knobs = {f.name for f in fields(SystemConfig)}
    for name, values in axes.items():
        if name not in knobs:
            raise ValueError(f"unknown SystemConfig knob {name!r} on a sweep axis")
        if not values:
            raise ValueError(f"sweep axis {name!r} has no values")
    points = [dict(zip(axes, combo)) for combo in itertools.product(*axes.values())]
    configs = [base.with_(**point) for point in points]
    runs = [run(cfg) if run else NexusMachine(cfg).run(trace) for cfg in configs]
    return GridReport(trace.name, axes, points, runs)
