"""Measurement helpers: time-weighted occupancy, busy time, plain samples.

Every statistic is cheap to record (a few arithmetic ops) so they can stay
enabled in benchmark runs; the expensive aggregations happen only when a
summary is requested.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .core import Simulator

__all__ = ["OccupancyStat", "LevelStat", "BusyTracker", "Sampler", "LatencyBreakdown"]


class OccupancyStat:
    """Time-weighted statistics of an integer level (queue length, banks busy).

    Records ``level`` transitions; :meth:`mean` integrates level over time.
    """

    __slots__ = ("_sim", "_level", "_last_change", "_area", "max_level", "_t0")

    def __init__(self, sim: "Simulator"):
        self._sim = sim
        self._level = 0
        self._t0 = sim.now
        self._last_change = sim.now
        self._area = 0  # integral of level dt
        self.max_level = 0

    def record(self, level: int) -> None:
        now = self._sim.now
        self._area += self._level * (now - self._last_change)
        self._last_change = now
        self._level = level
        if level > self.max_level:
            self.max_level = level

    @property
    def level(self) -> int:
        """The current (instantaneous) level."""
        return self._level

    def mean(self, until: Optional[int] = None) -> float:
        """Time-weighted mean level from creation to ``until`` (default: now).

        A zero-duration span (a truncated or 0-task run sampled at its
        creation instant) yields 0.0 rather than raising or reporting a
        phantom instantaneous level — there was no time to integrate over.
        """
        end = self._sim.now if until is None else until
        span = end - self._t0
        if span <= 0:
            return 0.0
        area = self._area + self._level * (end - self._last_change)
        return area / span

    def area(self, until: Optional[int] = None) -> int:
        """Cumulative level-time integral (level x ps) from creation to
        ``until`` (default: now), including the open tail at the current
        level.  The telemetry sampler's window-delta read: the mean level
        over a window is the area delta divided by the window length."""
        end = self._sim.now if until is None else until
        return self._area + self._level * max(0, end - self._last_change)


class LevelStat(OccupancyStat):
    """An :class:`OccupancyStat` that also keeps a time-weighted histogram.

    :meth:`histogram` answers "what fraction of the elapsed time was the
    level exactly N?" — e.g. how long a retire front-end had 0, 1, ... k
    finishes in flight — which the plain time-weighted mean cannot.
    """

    __slots__ = ("_time_at",)

    def __init__(self, sim: "Simulator"):
        super().__init__(sim)
        self._time_at: dict[int, int] = {}

    def record(self, level: int) -> None:
        # Fully inlined (no super() call): this runs once per FIFO
        # operation on every tracked hardware list, so it is one of the
        # hottest non-kernel functions in a run.  The math is identical to
        # OccupancyStat.record plus the histogram bucket.
        now = self._sim.now
        prev = self._level
        dt = now - self._last_change
        if dt:
            time_at = self._time_at
            time_at[prev] = time_at.get(prev, 0) + dt
            self._area += prev * dt
            self._last_change = now
        self._level = level
        if level > self.max_level:
            self.max_level = level

    def histogram(self, until: Optional[int] = None) -> dict[int, float]:
        """``{level: fraction of time spent at that level}`` from creation
        to ``until`` (default: now).  Zero-time levels are omitted; the
        fractions sum to 1.  Fractions are normalized over the recorded
        time, so an ``until`` earlier than the last transition (a truncated
        run) yields a coarse but well-formed distribution — never negative
        or >1 entries."""
        end = self._sim.now if until is None else until
        times = dict(self._time_at)
        tail = max(0, end - self._last_change)
        if tail:
            times[self._level] = times.get(self._level, 0) + tail
        total = sum(times.values())
        if total <= 0:
            return {}
        return {lvl: t / total for lvl, t in sorted(times.items()) if t}

    def fraction_at_or_above(self, level: int, until: Optional[int] = None) -> float:
        """Fraction of the span the level was ``>= level`` (pipeline-full
        time when called with the pipeline's depth)."""
        return sum(f for lvl, f in self.histogram(until).items() if lvl >= level)

    def time_at_or_above(self, level: int, until: Optional[int] = None) -> int:
        """Cumulative picoseconds the level was ``>= level`` from creation
        to ``until`` (default: now), including the open tail.  The
        telemetry sampler's window-delta read behind the windowed
        pipeline-full fraction."""
        end = self._sim.now if until is None else until
        total = sum(t for lvl, t in self._time_at.items() if lvl >= level)
        if self._level >= level:
            total += max(0, end - self._last_change)
        return total


class BusyTracker:
    """Accumulates busy time of a unit (a worker core, a Maestro block).

    Usage: ``tracker.begin()`` when work starts, ``tracker.end()`` when it
    stops; :meth:`utilization` divides accumulated busy time by elapsed time.
    """

    __slots__ = ("_sim", "_busy_since", "busy_time", "intervals")

    def __init__(self, sim: "Simulator"):
        self._sim = sim
        self._busy_since: Optional[int] = None
        self.busy_time = 0
        self.intervals = 0

    def begin(self) -> None:
        if self._busy_since is not None:
            raise RuntimeError("BusyTracker.begin() while already busy")
        self._busy_since = self._sim.now

    def end(self) -> None:
        if self._busy_since is None:
            raise RuntimeError("BusyTracker.end() while not busy")
        self.busy_time += self._sim.now - self._busy_since
        self.intervals += 1
        self._busy_since = None

    def utilization(self, span: int) -> float:
        """Fraction of ``span`` spent busy (counts an open interval to now).

        A non-positive ``span`` (a truncated or 0-task run) yields 0.0
        rather than raising."""
        return self.busy_through() / span if span > 0 else 0.0

    def busy_through(self, until: Optional[int] = None) -> int:
        """Cumulative busy picoseconds from creation to ``until`` (default:
        now), counting an open interval up to that instant.  The telemetry
        sampler's window-delta read: busy fraction over a window is the
        delta of this divided by the window length."""
        end = self._sim.now if until is None else until
        busy = self.busy_time
        if self._busy_since is not None:
            busy += max(0, end - self._busy_since)
        return busy


class LatencyBreakdown:
    """Named latency components aggregated over many observations.

    Feed it one observation per *hop* (e.g. a dependence-chain edge), as
    named picosecond components via :meth:`add`; it keeps one
    :class:`Sampler` per component plus an implicit ``total``.  The
    consumers (the machine's dispatch-latency attribution, the bottleneck
    report) read the time-weighted answer "where does a hop's latency
    go?" through :meth:`means_ns` and :meth:`dominant`.
    """

    __slots__ = ("components", "_samplers", "_total")

    def __init__(self, components: tuple[str, ...]):
        if not components:
            raise ValueError("LatencyBreakdown needs at least one component")
        if "total" in components:
            raise ValueError("'total' is implicit; do not pass it as a component")
        self.components = tuple(components)
        self._samplers = {name: Sampler() for name in self.components}
        self._total = Sampler()

    def add(self, **component_ps: int) -> None:
        """Record one observation; every declared component is required."""
        if set(component_ps) != set(self.components):
            raise ValueError(
                f"expected components {self.components}, got {tuple(component_ps)}"
            )
        for name, ps in component_ps.items():
            self._samplers[name].add(ps)
        self._total.add(sum(component_ps.values()))

    @property
    def count(self) -> int:
        return self._total.count

    @property
    def total_ps(self) -> float:
        """Sum of every observation's total (the span the hops cover)."""
        return self._total.total

    def means_ns(self) -> dict[str, float]:
        """Mean of each component (and ``total``) in nanoseconds."""
        out = {name: s.mean / 1000.0 for name, s in self._samplers.items()}
        out["total"] = self._total.mean / 1000.0
        return out

    def dominant(self) -> tuple[str, float]:
        """The component with the largest mean, as ``(name, mean_ns)``."""
        means = self.means_ns()
        means.pop("total")
        name = max(means, key=means.get)
        return name, means[name]

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v:.1f}ns" for k, v in self.means_ns().items())
        return f"<LatencyBreakdown n={self.count} {parts}>"


class Sampler:
    """Plain running statistics over recorded samples (Welford's algorithm)."""

    __slots__ = ("count", "_mean", "_m2", "min", "max", "total")

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.total = 0.0

    def add(self, x: float) -> None:
        self.count += 1
        self.total += x
        delta = x - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (x - self._mean)
        if self.min is None or x < self.min:
            self.min = x
        if self.max is None or x > self.max:
            self.max = x

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    def __repr__(self) -> str:
        return (
            f"<Sampler n={self.count} mean={self.mean:.4g} "
            f"min={self.min} max={self.max}>"
        )
