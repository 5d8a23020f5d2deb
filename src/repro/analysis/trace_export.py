"""Chrome trace-event export: render any run in chrome://tracing / Perfetto.

Converts a finished :class:`~repro.machine.results.RunResult` into the
Chrome trace-event JSON format (the ``traceEvents`` array consumed by
``chrome://tracing``, `Perfetto <https://ui.perfetto.dev>`_ and
``speedscope``), giving the simulator Temanejo-style task-graph
observability:

* one **duration event** (``ph: "X"``) per retired task on its worker
  core's lane, with nested ``fetch``/``exec``/``writeback`` phase slices
  — the Task Controller pipeline made visible;
* one **async span** (``ph: "b"``/``"e"``) per task on its home Maestro
  shard's lane covering Task Pool residency from ``stored`` to ``ready``
  — where dependence resolution time goes;
* one **flow event pair** (``ph: "s"``/``"f"``) per dependence-release
  edge recorded in the scoreboard's ``released_by`` links, drawn from the
  releasing task's write-back to the released task's input fetch;
* one **counter lane** (``ph: "C"``) per deterministic telemetry signal
  when the run was sampled (``telemetry_window`` set) — Perfetto renders
  these as stacked area strips under the task lanes, so queue depths and
  per-block busy fractions line up with the schedule above them.
  Host-derived signals (wall-clock rates) are excluded to keep the
  export byte-stable for a given run.

Timestamps are microseconds (the trace-event unit) converted exactly from
the simulator's integer picoseconds, so exports are byte-stable for a
given run.  The export only *reads* the run result — it can never
perturb a schedule.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from ..machine.results import RunResult

__all__ = ["chrome_trace", "write_chrome_trace"]

_PID_WORKERS = 1
_PID_MAESTRO = 2
_PID_COUNTERS = 3

_UNSET = -1


def _us(t_ps: int) -> float:
    """Picoseconds to the trace-event microsecond unit (exact to 1 ps)."""
    return round(t_ps / 1e6, 6)


def chrome_trace(result: RunResult) -> Dict[str, Any]:
    """Build the trace-event JSON document for one finished run.

    Incomplete records (truncated ``max_time`` runs) are skipped; flow
    events are emitted for every record whose ``released_by`` link names
    a completed task, so the exported flow set *is* the scoreboard's
    release-edge set.
    """
    # A run without shard stats (one Maestro, or the software runtime,
    # which has none) draws one resolve lane.
    shards = result.config.maestro_shards if "shards" in result.stats else 1
    sb = result.scoreboard
    done = [tid for tid, t in enumerate(sb.completed) if t != _UNSET]

    events: List[Dict[str, Any]] = []
    events.append(
        {
            "ph": "M",
            "name": "process_name",
            "pid": _PID_WORKERS,
            "tid": 0,
            "args": {"name": "worker cores"},
        }
    )
    events.append(
        {
            "ph": "M",
            "name": "process_name",
            "pid": _PID_MAESTRO,
            "tid": 0,
            "args": {"name": "task maestro"},
        }
    )
    for core in sorted({sb.core[t] for t in done if sb.core[t] != _UNSET}):
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": _PID_WORKERS,
                "tid": core,
                "args": {"name": f"worker {core}"},
            }
        )
    for shard in range(shards):
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": _PID_MAESTRO,
                "tid": shard,
                "args": {"name": f"shard {shard}" if shards > 1 else "maestro"},
            }
        )

    n_flows = 0
    for tid in done:
        core = sb.core[tid]
        released_by = sb.released_by[tid]
        fetch_start = sb.fetch_start[tid]
        exec_start = sb.exec_start[tid]
        exec_end = sb.exec_end[tid]
        writeback_end = sb.writeback_end[tid]
        # Task Pool residency on the home shard's lane (async: shard
        # lanes hold many overlapping tasks, which "X" slices can't).
        shard = tid % shards
        events.append(
            {
                "ph": "b",
                "cat": "maestro",
                "name": f"resolve {tid}",
                "id": tid,
                "pid": _PID_MAESTRO,
                "tid": shard,
                "ts": _us(sb.stored[tid]),
                "args": {"released_by": released_by},
            }
        )
        events.append(
            {
                "ph": "e",
                "cat": "maestro",
                "name": f"resolve {tid}",
                "id": tid,
                "pid": _PID_MAESTRO,
                "tid": shard,
                "ts": _us(sb.ready[tid]),
            }
        )
        # The worker-side occupancy: one outer slice per task with the
        # Task Controller's fetch/exec/writeback phases nested inside.
        events.append(
            {
                "ph": "X",
                "cat": "task",
                "name": f"task {tid}",
                "pid": _PID_WORKERS,
                "tid": core,
                "ts": _us(fetch_start),
                "dur": _us(writeback_end - fetch_start),
                "args": {"tid": tid, "released_by": released_by},
            }
        )
        if exec_start > fetch_start:
            events.append(
                {
                    "ph": "X",
                    "cat": "phase",
                    "name": "fetch",
                    "pid": _PID_WORKERS,
                    "tid": core,
                    "ts": _us(fetch_start),
                    "dur": _us(exec_start - fetch_start),
                }
            )
        events.append(
            {
                "ph": "X",
                "cat": "phase",
                "name": "exec",
                "pid": _PID_WORKERS,
                "tid": core,
                "ts": _us(exec_start),
                "dur": _us(exec_end - exec_start),
            }
        )
        if writeback_end > exec_end:
            events.append(
                {
                    "ph": "X",
                    "cat": "phase",
                    "name": "writeback",
                    "pid": _PID_WORKERS,
                    "tid": core,
                    "ts": _us(exec_end),
                    "dur": _us(writeback_end - exec_end),
                }
            )
        # Dependence-release edge: predecessor write-back -> this fetch.
        if released_by >= 0 and sb.completed[released_by] != _UNSET:
            events.append(
                {
                    "ph": "s",
                    "cat": "dep",
                    "name": "release",
                    "id": tid,
                    "pid": _PID_WORKERS,
                    "tid": sb.core[released_by],
                    "ts": _us(sb.writeback_end[released_by]),
                }
            )
            events.append(
                {
                    "ph": "f",
                    "cat": "dep",
                    "name": "release",
                    "id": tid,
                    "bp": "e",
                    "pid": _PID_WORKERS,
                    "tid": core,
                    "ts": _us(fetch_start),
                }
            )
            n_flows += 1

    telemetry = result.stats.get("telemetry")
    n_counter_lanes = 0
    if telemetry and telemetry.get("times_ps"):
        n_counter_lanes = _append_counter_lanes(events, telemetry)

    other: Dict[str, Any] = {
        "trace": result.trace_name,
        "workers": result.config.workers,
        "maestro_shards": shards,
        "makespan_ps": result.makespan,
        "n_tasks": len(done),
        "n_dependence_flows": n_flows,
    }
    if n_counter_lanes:
        other["telemetry_window_ps"] = telemetry["window_ps"]
        other["n_counter_lanes"] = n_counter_lanes

    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": other,
    }


def _append_counter_lanes(
    events: List[Dict[str, Any]], telemetry: Dict[str, Any]
) -> int:
    """Emit one ``ph: "C"`` lane per telemetry signal.

    Counter samples carry the value over the window *ending* at the
    sample timestamp.  Every signal is modelled, so the exported document
    is byte-identical across reruns of the same simulation.  Returns the
    number of lanes emitted.
    """
    times = telemetry["times_ps"]
    lanes = sorted(telemetry["signals"])
    if lanes:
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": _PID_COUNTERS,
                "tid": 0,
                "args": {"name": "telemetry"},
            }
        )
    for name in lanes:
        values = telemetry["signals"][name]
        for t_ps, value in zip(times, values):
            events.append(
                {
                    "ph": "C",
                    "cat": "telemetry",
                    "name": name,
                    "pid": _PID_COUNTERS,
                    "tid": 0,
                    "ts": _us(t_ps),
                    "args": {"value": value},
                }
            )
    return len(lanes)


def write_chrome_trace(result: RunResult, path: str) -> Dict[str, Any]:
    """Serialize :func:`chrome_trace` to ``path``; returns a summary dict.

    The JSON is written compact with sorted keys, so the same run always
    produces byte-identical output (the export goldens rely on this).
    """
    doc = chrome_trace(result)
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return {
        "path": path,
        "n_events": len(doc["traceEvents"]),
        "n_dependence_flows": doc["otherData"]["n_dependence_flows"],
    }
