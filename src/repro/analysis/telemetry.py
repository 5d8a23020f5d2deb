"""Windowed telemetry: time series sampled over a run, plus the versioned
machine-readable metrics document built from them.

Every stats block the machine emits is a single end-of-run aggregate; a
run that is master-bound for its first third and retire-bound after looks
like neither.  This module adds the missing time dimension:

* :class:`TelemetrySampler` — an observe-only sampler the machine drives
  at every ``telemetry_window`` boundary.  Each registered *signal* is a
  read-only closure over a statistic the hardware already keeps
  (:class:`~repro.sim.stats.BusyTracker` busy time,
  :class:`~repro.sim.stats.OccupancyStat` level integrals, plain
  counters); sampling reads window *deltas* of those cumulative values,
  so per-window busy fractions and mean queue depths come out exact with
  zero events injected into the simulation.
* :class:`TimeSeries` — the sampled values keyed by stable dotted signal
  names (``s0.check.busy``, ``dep_table.kickoff_waiters``, ...), carried
  in ``RunResult.stats["telemetry"]`` as a plain JSON-shaped dict.
* the **versioned metrics document** (``schema_version`` 1):
  :func:`build_metrics_document` consolidates the aggregate stats blocks
  plus the time series; :func:`validate_metrics` checks a document
  against :func:`telemetry_schema` (hand-rolled — no external schema
  dependency); :func:`render_metrics` pretty-prints one document and
  :func:`diff_metrics` diffs two (makespan, per-signal mean/max deltas)
  — the comparison primitive regression gating needs.

Signals flagged ``host=True`` (wall-clock-derived rates such as
``host.events_per_sec``) are carried in the metrics document but excluded
from the byte-stable Chrome-trace counter lanes, which must not depend on
host timing.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..machine.results import RunResult
    from ..sim.core import Simulator
    from ..sim.stats import BusyTracker, LevelStat, OccupancyStat

__all__ = [
    "TimeSeries",
    "TelemetrySampler",
    "METRICS_SCHEMA_VERSION",
    "telemetry_schema",
    "validate_metrics",
    "build_metrics_document",
    "write_metrics",
    "render_metrics",
    "diff_metrics",
]

#: Version stamp of the metrics document layout.  Bump on any breaking
#: change to the document shape so downstream consumers can gate on it.
METRICS_SCHEMA_VERSION = 1

#: A signal read: ``fn(t0, t1) -> float`` for the window ``[t0, t1)``.
SignalRead = Callable[[int, int], float]


class TimeSeries:
    """Sampled signal values over consecutive windows of one run.

    ``times_ps[i]`` is the *end* of window ``i`` (the sample instant);
    windows are normally ``window_ps`` long, except the final partial
    window of a run that ends between boundaries.  ``signals`` maps each
    dotted signal name to one value per window.
    """

    def __init__(self, window_ps: int):
        if window_ps <= 0:
            raise ValueError(f"window_ps must be positive, got {window_ps}")
        self.window_ps = window_ps
        self.times_ps: List[int] = []
        self.signals: Dict[str, List[float]] = {}
        self.host_signals: List[str] = []

    @property
    def n_samples(self) -> int:
        return len(self.times_ps)

    def mean(self, name: str) -> float:
        values = self.signals[name]
        return sum(values) / len(values) if values else 0.0

    def max(self, name: str) -> float:
        values = self.signals[name]
        return max(values) if values else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-shaped telemetry block stored in ``stats["telemetry"]``."""
        return {
            "window_ps": self.window_ps,
            "times_ps": list(self.times_ps),
            "signals": {k: list(v) for k, v in sorted(self.signals.items())},
            "host_signals": sorted(self.host_signals),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TimeSeries":
        out = cls(int(data["window_ps"]))
        out.times_ps = [int(t) for t in data.get("times_ps", [])]
        out.signals = {
            str(k): [float(x) for x in v]
            for k, v in (data.get("signals") or {}).items()
        }
        out.host_signals = [str(s) for s in data.get("host_signals", [])]
        return out


class TelemetrySampler:
    """Observe-only windowed sampler over registered signals.

    The machine drives it from the *host* loop: it steps
    ``sim.run(until=k * window)`` and calls :meth:`sample` at each
    boundary, so the sampler never schedules a simulation event and a
    sampled run replays cycle-identically to an unsampled one.  Signal
    closures must only *read* statistics (the helpers on this class build
    exactly such reads).
    """

    def __init__(self, sim: "Simulator", window_ps: int):
        self.sim = sim
        self.series = TimeSeries(window_ps)
        self._reads: List[tuple[str, SignalRead]] = []
        self._last_sample = 0

    # ---- signal registration ---------------------------------------------------

    def add_signal(self, name: str, read: SignalRead, host: bool = False) -> None:
        """Register ``read(t0, t1)`` under the dotted signal ``name``.

        ``host=True`` marks a wall-clock-derived (nondeterministic) signal
        carried in the metrics document but excluded from the byte-stable
        trace-export counter lanes.
        """
        if name in self.series.signals:
            raise ValueError(f"duplicate telemetry signal {name!r}")
        self.series.signals[name] = []
        if host:
            self.series.host_signals.append(name)
        self._reads.append((name, read))

    def add_busy(self, name: str, tracker: "BusyTracker") -> None:
        """Busy fraction of one unit over each window (delta read)."""
        state = [0]

        def read(t0: int, t1: int) -> float:
            cur = tracker.busy_through(t1)
            delta, state[0] = cur - state[0], cur
            return delta / (t1 - t0)

        self.add_signal(name, read)

    def add_busy_group(self, name: str, trackers: Sequence["BusyTracker"]) -> None:
        """Mean busy fraction of a pool of units (e.g. the worker cores)."""
        trackers = list(trackers)
        state = [0]

        def read(t0: int, t1: int) -> float:
            cur = sum(t.busy_through(t1) for t in trackers)
            delta, state[0] = cur - state[0], cur
            return delta / ((t1 - t0) * max(1, len(trackers)))

        self.add_signal(name, read)

    def add_mean_level(
        self, name: str, stats: Sequence[Optional["OccupancyStat"]]
    ) -> None:
        """Summed time-weighted mean level of one or more occupancy stats
        over each window (area-delta read).  ``None`` entries (untracked
        queues) contribute nothing."""
        stats = [s for s in stats if s is not None]
        state = [0]

        def read(t0: int, t1: int) -> float:
            cur = sum(s.area(t1) for s in stats)
            delta, state[0] = cur - state[0], cur
            return delta / (t1 - t0)

        self.add_signal(name, read)

    def add_full_fraction(
        self, name: str, stats: Sequence["LevelStat"], depth: int
    ) -> None:
        """Worst (max over ``stats``) fraction of each window spent at
        level >= ``depth`` — the windowed retire pipeline-full signal."""
        stats = list(stats)
        state = [[0] * len(stats)]

        def read(t0: int, t1: int) -> float:
            cur = [s.time_at_or_above(depth, t1) for s in stats]
            deltas = [c - p for c, p in zip(cur, state[0])]
            state[0] = cur
            return max(deltas, default=0) / (t1 - t0)

        self.add_signal(name, read)

    def add_counter(
        self, name: str, current: Callable[[], float], host: bool = False
    ) -> None:
        """Per-window delta of a monotone cumulative counter."""
        state = [0.0]

        def read(t0: int, t1: int) -> float:
            cur = float(current())
            delta, state[0] = cur - state[0], cur
            return delta

        self.add_signal(name, read, host=host)

    def add_rate(
        self,
        name: str,
        numerator: Callable[[], int],
        denominator: Callable[[], int],
    ) -> None:
        """Windowed ratio of two cumulative counters (e.g. TD-cache hits
        over lookups); 0.0 for windows with no denominator events."""
        state = [(0, 0)]

        def read(t0: int, t1: int) -> float:
            num, den = numerator(), denominator()
            d_num, d_den = num - state[0][0], den - state[0][1]
            state[0] = (num, den)
            return d_num / d_den if d_den > 0 else 0.0

        self.add_signal(name, read)

    def add_gauge(self, name: str, current: Callable[[], float]) -> None:
        """Instantaneous value read at each window boundary."""
        self.add_signal(name, lambda t0, t1: float(current()))

    def add_events_per_sec(self, sim: "Simulator") -> None:
        """Host-side events/sec over each window (wall-clock derived, so
        flagged ``host`` and excluded from the byte-stable trace lanes)."""
        state = [(0, time.perf_counter())]

        def read(t0: int, t1: int) -> float:
            events, wall = sim.events_processed, time.perf_counter()
            d_events = events - state[0][0]
            d_wall = wall - state[0][1]
            state[0] = (events, wall)
            return d_events / d_wall if d_wall > 0 else 0.0

        self.add_signal("host.events_per_sec", read, host=True)

    # ---- sampling ----------------------------------------------------------------

    def sample(self) -> None:
        """Record one row at the current simulation time.

        A no-op when no time has elapsed since the previous sample (e.g.
        the run ended exactly on the last sampled boundary)."""
        now = self.sim.now
        if now <= self._last_sample:
            return
        t0, self._last_sample = self._last_sample, now
        self.series.times_ps.append(now)
        for name, read in self._reads:
            self.series.signals[name].append(round(read(t0, now), 6))

    def to_dict(self) -> Dict[str, Any]:
        return self.series.to_dict()


# ---- versioned metrics document ---------------------------------------------------


def telemetry_schema() -> Dict[str, Any]:
    """The metrics-document schema, as a plain (hand-rolled) spec.

    Top-level keys map to required JSON types; the ``telemetry`` block is
    nullable (telemetry off) and, when present, must carry equal-length
    ``times_ps``/signal series.  :func:`validate_metrics` enforces this
    spec; it is returned as data so tests and docs can introspect it.
    """
    return {
        "schema_version": METRICS_SCHEMA_VERSION,
        "required": {
            "schema_version": "int",
            "kind": "str",
            "trace": "str",
            "workers": "int",
            "n_tasks": "int",
            "makespan_ps": "int",
            "master_done_ps": "int|null",
            "worker_utilization": "number",
            "config_notes": "object",
            "aggregates": "object",
            "telemetry": "object|null",
        },
        "telemetry": {
            "window_ps": "int>0",
            "times_ps": "ascending list[int]",
            "signals": "dict[str, list[number]] (lengths == len(times_ps))",
            "host_signals": "list[str] (subset of signals)",
        },
        # Host-performance block carried in aggregates["sim"]: wall-clock
        # facts about the simulation run itself (never the modelled
        # machine — the schedule is identical whatever these read).
        "aggregates.sim": {
            "wall_seconds": "number",
            "events_processed": "int",
            "events_per_sec": "int",
            "tasks_per_sec": "int",
            "peak_pending_events": "int",
            "hotspots": "optional list[object] (run --profile-hotspots)",
        },
        "kind": "repro-metrics",
    }


_TYPE_CHECKS: Dict[str, Callable[[Any], bool]] = {
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "int|null": lambda v: v is None
    or (isinstance(v, int) and not isinstance(v, bool)),
    "object": lambda v: isinstance(v, dict),
    "object|null": lambda v: v is None or isinstance(v, dict),
}


def validate_metrics(doc: Any) -> List[str]:
    """Validate ``doc`` against :func:`telemetry_schema`.

    Returns a list of problems; an empty list means the document is a
    well-formed version-1 metrics document.
    """
    problems: List[str] = []
    if not isinstance(doc, dict):
        return [f"document must be a JSON object, got {type(doc).__name__}"]
    schema = telemetry_schema()
    for key, kind in schema["required"].items():
        if key not in doc:
            problems.append(f"missing required key {key!r}")
            continue
        if not _TYPE_CHECKS[kind](doc[key]):
            problems.append(
                f"{key!r} must be {kind}, got {type(doc[key]).__name__}"
            )
    if problems:
        return problems
    if doc["schema_version"] != METRICS_SCHEMA_VERSION:
        problems.append(
            f"unsupported schema_version {doc['schema_version']!r} "
            f"(this reader understands {METRICS_SCHEMA_VERSION})"
        )
    if doc["kind"] != schema["kind"]:
        problems.append(f"kind must be {schema['kind']!r}, got {doc['kind']!r}")
    tel = doc["telemetry"]
    if tel is not None:
        problems.extend(_validate_telemetry_block(tel))
    return problems


def _validate_telemetry_block(tel: Dict[str, Any]) -> List[str]:
    problems: List[str] = []
    window = tel.get("window_ps")
    if not isinstance(window, int) or window <= 0:
        problems.append(f"telemetry.window_ps must be a positive int, got {window!r}")
    times = tel.get("times_ps")
    if not isinstance(times, list) or not all(
        isinstance(t, int) and not isinstance(t, bool) for t in times
    ):
        problems.append("telemetry.times_ps must be a list of ints")
        times = []
    if any(b <= a for a, b in zip(times, times[1:])):
        problems.append("telemetry.times_ps must be strictly ascending")
    signals = tel.get("signals")
    if not isinstance(signals, dict):
        problems.append("telemetry.signals must be an object")
        signals = {}
    for name, values in signals.items():
        if not isinstance(values, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
        ):
            problems.append(f"telemetry signal {name!r} must be a list of numbers")
        elif len(values) != len(times):
            problems.append(
                f"telemetry signal {name!r} has {len(values)} samples for "
                f"{len(times)} windows"
            )
    host = tel.get("host_signals", [])
    if not isinstance(host, list):
        problems.append("telemetry.host_signals must be a list")
    else:
        unknown = [h for h in host if h not in signals]
        if unknown:
            problems.append(f"host_signals name unknown signals: {unknown}")
    return problems


def build_metrics_document(result: "RunResult") -> Dict[str, Any]:
    """Consolidate one finished run into the version-1 metrics document.

    The document is round-tripped through JSON so it is exactly what a
    reader of the written file sees (integer histogram keys become
    strings, tuples become lists) — validation and diffing operate on the
    on-disk shape.
    """
    aggregates = {k: v for k, v in result.stats.items() if k != "telemetry"}
    doc = {
        "schema_version": METRICS_SCHEMA_VERSION,
        "kind": "repro-metrics",
        "trace": result.trace_name,
        "workers": result.workers,
        "n_tasks": result.n_tasks,
        "makespan_ps": result.makespan,
        "master_done_ps": result.master_done,
        "worker_utilization": round(result.worker_utilization(), 6),
        "config_notes": result.config_notes,
        "aggregates": aggregates,
        "telemetry": result.stats.get("telemetry"),
    }
    return json.loads(json.dumps(doc))


def write_metrics(result: "RunResult", path: str) -> Dict[str, Any]:
    """Build, validate and write the metrics document; returns it.

    Refuses to write an invalid document — a schema violation here is a
    bug in the producer, not something to push onto every reader.
    """
    doc = build_metrics_document(result)
    problems = validate_metrics(doc)
    if problems:
        raise ValueError(
            "refusing to write an invalid metrics document: "
            + "; ".join(problems)
        )
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return doc


def render_metrics(doc: Dict[str, Any]) -> str:
    """Human-readable rendering of one metrics document."""
    lines = [
        f"{doc['trace']}: {doc['n_tasks']} tasks on {doc['workers']} workers",
        f"makespan {doc['makespan_ps'] / 1e9:.4g} ms, "
        f"worker utilization {doc['worker_utilization']:.1%}",
    ]
    sim = doc.get("aggregates", {}).get("sim")
    if sim:
        lines.append(
            f"host: {sim['events_per_sec']:,} events/s, "
            f"{sim.get('tasks_per_sec', 0):,} tasks/s "
            f"({sim['wall_seconds']:.3f}s wall)"
        )
    if doc["master_done_ps"] is None:
        lines.append("run truncated before the masters finished")
    tel = doc.get("telemetry")
    if not tel:
        lines.append("telemetry: off (set telemetry_window to sample)")
        return "\n".join(lines)
    series = TimeSeries.from_dict(tel)
    lines.append(
        f"telemetry: {series.n_samples} windows of "
        f"{series.window_ps / 1e3:g} ns, {len(series.signals)} signals"
    )
    width = max((len(n) for n in series.signals), default=0)
    lines.append(f"  {'signal'.ljust(width)}      mean       max")
    for name in sorted(series.signals):
        lines.append(
            f"  {name.ljust(width)}  {series.mean(name):>8.4g}  "
            f"{series.max(name):>8.4g}"
        )
    return "\n".join(lines)


def diff_metrics(doc: Dict[str, Any], baseline: Dict[str, Any]) -> str:
    """Diff two metrics documents: makespan plus per-signal mean/max deltas.

    Deltas read ``doc - baseline``; signals present in only one document
    are listed separately rather than silently dropped.
    """
    lines = [
        f"{doc['trace']} vs baseline {baseline['trace']} "
        f"({doc['workers']} vs {baseline['workers']} workers)"
    ]
    d_mk, b_mk = doc["makespan_ps"], baseline["makespan_ps"]
    rel = (d_mk - b_mk) / b_mk if b_mk else 0.0
    lines.append(
        f"makespan {d_mk / 1e9:.4g} ms vs {b_mk / 1e9:.4g} ms "
        f"({rel:+.2%})"
    )
    d_ut = doc["worker_utilization"] - baseline["worker_utilization"]
    lines.append(
        f"worker utilization {doc['worker_utilization']:.1%} vs "
        f"{baseline['worker_utilization']:.1%} ({d_ut:+.1%})"
    )
    ours = TimeSeries.from_dict(doc["telemetry"]) if doc.get("telemetry") else None
    theirs = (
        TimeSeries.from_dict(baseline["telemetry"])
        if baseline.get("telemetry")
        else None
    )
    if ours is None or theirs is None:
        lines.append(
            "telemetry: "
            + ("off in both documents" if ours is theirs else "only in one document")
        )
        return "\n".join(lines)
    shared = sorted(set(ours.signals) & set(theirs.signals))
    width = max((len(n) for n in shared), default=0)
    lines.append(f"  {'signal'.ljust(width)}     Δmean      Δmax")
    for name in shared:
        lines.append(
            f"  {name.ljust(width)}  {ours.mean(name) - theirs.mean(name):>+8.4g}"
            f"  {ours.max(name) - theirs.max(name):>+8.4g}"
        )
    only_ours = sorted(set(ours.signals) - set(theirs.signals))
    only_theirs = sorted(set(theirs.signals) - set(ours.signals))
    if only_ours:
        lines.append(f"  signals only in this run: {', '.join(only_ours)}")
    if only_theirs:
        lines.append(f"  signals only in baseline: {', '.join(only_theirs)}")
    return "\n".join(lines)
