#!/usr/bin/env python3
"""One performance ledger for the Nexus++ simulator.

Five closed-batch workloads, each a fixed input replayed to completion, run
one at a time, each in its own single-threaded child process so that peak
RSS is per workload.  Every run is checked against the golden task graph,
every metric is printed by name with its unit, and the whole ledger is
written as JSON under ``perf_ledger/results/``.  Run from the repository
root::

    python3 perf_ledger/ledger.py [--seed 7] [--workload NAME ...]
        [--trace [0|1]] [--seconds S] [--scale F] [--out FILE]
    python3 perf_ledger/ledger.py --compare A.json [A2.json ...] -- B.json [B2.json ...]

Layers are measured from outside, by timing calls into public functions:
the ``repro.traces`` generators, ``NexusMachine(cfg).run``,
``run_software_rts`` and ``Simulator.run``.  Host timings come from the
timed repetitions (at least three, after one small warm-up run, and as
many more as ``--seconds`` asks for): throughput is their upper quartile,
every other timing their median.  Modelled numbers repeat exactly
for a given ``--seed``.  ``--trace`` adds one repetition under a SIGPROF
sampler that charges each sample to the ``repro`` module of the innermost
Python frame, and writes the repetition's spans as a Chrome trace.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics untraced, the per-layer metrics traced.  The exit status is
non-zero when any task failed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(SRC))

# The simulator under test, always from this checkout's src/.
import repro  # noqa: E402
from repro.config import BUS_MODEL_FITTED, SystemConfig  # noqa: E402
from repro.machine import NexusMachine, RunResult  # noqa: E402
from repro.runtime import build_task_graph, run_software_rts  # noqa: E402
from repro.sim import Fifo, Simulator  # noqa: E402
from repro.traces import gaussian_trace, random_trace, wait_chain_trace  # noqa: E402

#: Timed repetitions per workload, at least; ``--seconds`` may add more.
MIN_REPS = 3
#: Size of the untimed warm-up run, as a share of the workload's size.
WARMUP_SCALE = 0.02
#: SIGPROF sampling interval of the traced repetition (CPU seconds).
SAMPLE_INTERVAL = 0.001
#: Wall-clock limit of one workload's child process.
CHILD_TIMEOUT_S = 170
#: Fig. 8 of the paper: Gaussian elimination, n=250, 4 cores.
PAPER_SPEEDUP_4C = 2.3


# ---------------------------------------------------------------------------
# Metric catalogue
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Metric:
    """One ledger metric.

    ``bound`` is the share of the baseline median by which an end-to-end
    metric may worsen before it counts as a regression; ``None`` marks a
    per-layer metric, which has no bound.  ``host`` metrics are wall-clock
    or memory measurements and carry the host's noise; every other metric
    is modelled or counted and repeats exactly for a given seed.  ``only``
    names the workloads the metric exists on (empty: all of them).
    """

    name: str
    unit: str
    better: str
    bound: Optional[float] = None
    host: bool = False
    only: Tuple[str, ...] = ()
    #: Produced only by the traced repetition.
    traced: bool = False

    @property
    def end_to_end(self) -> bool:
        return self.bound is not None


#: Per-module host-cost layers of the traced repetition.  A sample lands on
#: the ``repro`` module of the innermost Python frame; a module that is not
#: listed here folds into its package (``traces``, ``machine``, ...), and
#: anything else, including modules added later, into ``other``.
SELF_LAYERS = (
    "sim.core",
    "sim.channels",
    "sim.sync",
    "sim.stats",
    "hw.sharded_maestro",
    "hw.resolve",
    "hw.fabric",
    "hw.dispatch",
    "hw.maestro",
    "hw.dependence_table",
    "hw.task_pool",
    "hw.memory",
    "hw.task_controller",
    "hw.master",
    "hw.fast_blocks",
    "traces",
    "machine",
    "runtime",
    "config",
    "other",
)
_PACKAGE_LAYERS = {
    "traces": "traces",
    "machine": "machine",
    "scoreboard": "machine",
    "runtime": "runtime",
    "config": "config",
}

_GAUSS = ("paper-gaussian",)
_CHAIN = ("wait-chain",)

CATALOGUE: Tuple[Metric, ...] = (
    # -- end to end -----------------------------------------------------------
    Metric("tasks_per_s", "1/s", "higher", 0.25, host=True),
    Metric("setup_s", "s", "lower", 0.25, host=True),
    Metric("peak_rss_mb", "MB", "lower", 0.10, host=True),
    Metric("makespan_us", "sim_us", "lower", 0.05),
    Metric("failed_frac", "fraction", "lower", 0.0),
    Metric("paper_error_pct", "%", "lower", 0.0, only=_GAUSS),
    Metric("hw_over_sw_efficiency", "ratio", "higher", 0.0, only=_CHAIN),
    # -- benchmark spans (untraced repetitions) --------------------------------
    Metric("traces.generate_s", "s", "lower", host=True),
    Metric("machine.run_s", "s", "lower", host=True),
    Metric("runtime.software_rts_s", "s", "lower", host=True, only=_CHAIN),
    Metric("bench.verify_s", "s", "lower", host=True),
    # -- kernel ---------------------------------------------------------------
    Metric("sim.events", "count", "lower"),
    Metric("sim.events_per_task", "events/task", "lower"),
    Metric("sim.events_per_s", "1/s", "higher", host=True),
    Metric("sim.peak_pending", "count", "lower"),
    # -- traced self time, one share per module --------------------------------
    *(
        Metric(f"{layer}.self_pct", "%", "lower", host=True, traced=True)
        for layer in SELF_LAYERS
    ),
    Metric("trace.wall_s", "s", "lower", host=True, traced=True),
    Metric("trace.overhead_pct", "%", "lower", host=True, traced=True),
    Metric("trace.samples", "count", "higher", host=True, traced=True),
    # -- modelled counters from RunResult.stats --------------------------------
    Metric("hw.dispatch.td_cache_hit_rate", "fraction", "higher"),
    Metric("hw.dispatch.prefetch_drop_rate", "fraction", "lower"),
    Metric("hw.resolve.coalesce_rate", "fraction", "higher"),
    Metric("hw.check.coalesce_rate", "fraction", "higher"),
    Metric("hw.shards.steals", "count", "lower"),
    Metric("hw.shards.steals_after_forward", "count", "lower"),
    Metric("hw.retire.full_fraction_max", "fraction", "lower"),
    Metric("hw.dep_table.kickoff_waiters_mean", "count", "lower"),
    Metric("hw.task_pool.dummy_tasks", "count", "lower"),
    Metric("hw.dep_table.dummy_entries", "count", "lower"),
    Metric("hw.memory.mean_wait_ns", "sim_ns", "lower"),
    Metric("hw.dispatch.chain_hop_ns", "sim_ns", "lower"),
    Metric("hw.master_stall_us", "sim_us", "lower"),
    Metric("hw.block_busy_max", "fraction", "lower"),
    Metric("hw.workers_busy_mean", "fraction", "higher"),
    Metric("machine.speedup_4c", "ratio", "higher", only=_GAUSS),
    Metric("runtime.sw_makespan_us", "sim_us", "lower", only=_CHAIN),
)
METRICS: Dict[str, Metric] = {m.name: m for m in CATALOGUE}


def line_metrics(traced: bool) -> List[Metric]:
    """The metrics of the one-line result: every end-to-end metric that
    exists on all workloads (untraced), or every such per-layer metric
    (traced).  ``failed_frac`` rides in the line's own ``failed`` and
    ``attempted`` fields instead."""
    return [
        m
        for m in CATALOGUE
        if not m.only
        and m.name != "failed_frac"
        and m.end_to_end != traced
    ]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

#: Fully wired sharded stack: every resolve, check and dispatch mechanism
#: on, written as explicit fields so that no preset is needed.
HAZARD_DENSE_CONFIG = SystemConfig(
    workers=8,
    maestro_shards=4,
    master_cores=8,
    submission_batch=8,
    retire_pipeline_depth=4,
    td_cache_entries=64,
    td_prefetch_depth=2,
    kickoff_fast_path=True,
    finish_coalesce_limit=8,
    speculative_kickoff=True,
    decentralized_check_scatter=True,
    check_coalesce_limit=8,
    memory_contention=False,
    bus_model=BUS_MODEL_FITTED,
)
STREAM_CONFIG = SystemConfig(
    workers=32,
    maestro_shards=4,
    master_cores=8,
    submission_batch=8,
    finish_coalesce_limit=8,
    decentralized_check_scatter=True,
    check_coalesce_limit=8,
    memory_contention=False,
)
WAIT_CHAIN_CONFIG = SystemConfig(workers=16, memory_contention=False)


def _scaled(n: int, scale: float, floor: int) -> int:
    return max(floor, round(n * scale))


@contextmanager
def _span(spans: Dict[str, Tuple[float, float]], name: str):
    """Record the wall-clock interval of a ``with`` block under ``name``."""
    start = time.perf_counter()
    yield
    spans[name] = (start, time.perf_counter())


_TASK_ID = re.compile(r"task (\d+)")


def count_failed(result: RunResult, graph) -> Tuple[int, List[str]]:
    """Tasks of ``result`` not retired, or retired illegally, per
    ``RunResult.verify_against``.  Each problem names its offending task
    first; a problem naming no task (a record-count mismatch) fails the
    whole run."""
    problems = result.verify_against(graph)
    tids = set()
    for problem in problems:
        match = _TASK_ID.search(problem)
        if match is None:
            return graph.n_tasks, problems
        tids.add(int(match.group(1)))
    return len(tids), problems


def _hw_counters(stats: Dict[str, Any]) -> Dict[str, float]:
    """Modelled per-block counters; 0 where the mechanism is not wired."""
    fast = stats["dispatch"].get("fast_dispatch", {})
    shards = stats.get("shards", {})
    return {
        "hw.dispatch.td_cache_hit_rate": fast.get("td_cache", {}).get("hit_rate", 0.0),
        "hw.dispatch.prefetch_drop_rate": (
            fast.get("prefetch_dropped", 0) / max(1, fast.get("prefetch_requests", 0))
        ),
        "hw.resolve.coalesce_rate": stats["resolve"]["coalesce_rate"],
        "hw.check.coalesce_rate": stats["check"]["coalesce_rate"],
        "hw.shards.steals": shards.get("steals", 0),
        "hw.shards.steals_after_forward": shards.get("steals_after_forward", 0),
        "hw.retire.full_fraction_max": max(
            shards.get("retire", {}).get("full_fraction", [0.0])
        ),
        "hw.dep_table.kickoff_waiters_mean": stats["dep_table"]["kickoff_waiters"][
            "mean_total"
        ],
        "hw.task_pool.dummy_tasks": stats["task_pool"]["dummy_tasks_created"],
        "hw.dep_table.dummy_entries": stats["dep_table"]["dummy_entries_created"],
        "hw.memory.mean_wait_ns": stats["memory"]["mean_wait_ps"] / 1e3,
        "hw.dispatch.chain_hop_ns": stats["dispatch"]
        .get("chain_hop_ns", {})
        .get("total", 0.0),
        "hw.master_stall_us": stats["master_stall_ps"] / 1e6,
        "hw.block_busy_max": max(stats["maestro_utilization"].values()),
        "hw.workers_busy_mean": statistics.fmean(stats["worker_busy_fraction"]),
    }


class MachineWorkload:
    """A fixed trace replayed to completion on one machine configuration."""

    def __init__(self, name: str, why: str, config: SystemConfig, generate):
        self.name = name
        self.why = why
        self.config = config
        self._generate = generate

    def build(self, seed: int, scale: float):
        return self._generate(seed, scale)

    def tasks(self, trace) -> int:
        """Tasks the timed calls of one repetition retire."""
        return len(trace)

    def run(self, trace):
        spans: Dict[str, Tuple[float, float]] = {}
        with _span(spans, "simulate"):
            result = NexusMachine(self.config).run(trace)
        return spans, [result]

    def verify(self, trace, results) -> Tuple[int, List[str]]:
        graph = build_task_graph(trace)
        failed, problems = 0, []
        for result in results:
            n, found = count_failed(result, graph)
            failed += n
            problems += found
        return failed, problems

    def model(self, trace, results) -> Dict[str, float]:
        result = results[0]
        sim = result.stats["sim"]
        return {
            "makespan_us": result.makespan / 1e6,
            "sim.events": sim["events_processed"],
            "sim.events_per_task": sim["events_processed"] / len(trace),
            "sim.peak_pending": sim["peak_pending_events"],
            **_hw_counters(result.stats),
        }

    def finish(self, seed: int, scale: float, tally: "Tally") -> Dict[str, float]:
        """Untimed runs made once per workload, after the repetitions."""
        return {}


class GaussianWorkload(MachineWorkload):
    """Times a Gaussian elimination small enough to repeat; the paper's own
    point, n=250 on 4 workers against 1, runs once untimed for Fig. 8."""

    def finish(self, seed, scale, tally):
        trace = gaussian_trace(_scaled(250, scale**0.5, 4))
        four = tally.checked(len(trace), NexusMachine(self.config).run, trace)
        one = tally.checked(
            len(trace), NexusMachine(self.config.with_(workers=1)).run, trace
        )
        tally.fail(*self.verify(trace, [four, one]))
        speedup = one.makespan / four.makespan
        return {
            "machine.speedup_4c": speedup,
            "paper_error_pct": abs(speedup - PAPER_SPEEDUP_4C) / PAPER_SPEEDUP_4C * 100,
        }


class WaitChainWorkload(MachineWorkload):
    """Times the HW machine and the software runtime on the same trace."""

    def tasks(self, trace):
        return 2 * len(trace)

    def run(self, trace):
        spans: Dict[str, Tuple[float, float]] = {}
        with _span(spans, "simulate"):
            hw = NexusMachine(self.config).run(trace)
        with _span(spans, "software_rts"):
            sw = run_software_rts(trace, self.config)
        return spans, [hw, sw]

    def model(self, trace, results):
        hw, sw = results
        return {
            **super().model(trace, [hw]),
            "hw_over_sw_efficiency": hw.parallel_efficiency() / sw.parallel_efficiency(),
            "runtime.sw_makespan_us": sw.makespan / 1e6,
        }


class Mesh:
    """Producer/consumer pairs on capacity-4 FIFOs, built from generator
    processes: all kernel, no modelled hardware."""

    SLEEP_PS = 2

    def __init__(self, payloads: List[List[int]]):
        self.sim = Simulator()
        self.payloads = payloads
        #: Messages each consumer received in order, set when it finishes.
        self.in_order = [0] * len(payloads)
        for pair, items in enumerate(payloads):
            fifo = Fifo(self.sim, capacity=4)
            self.sim.process(self._producer(fifo, items), name="producer")
            self.sim.process(self._consumer(fifo, items, pair), name="consumer")

    @staticmethod
    def _producer(fifo, items):
        for item in items:
            yield fifo.put(item)

    def _consumer(self, fifo, items, pair):
        # Counts arrivals rather than storing them, so that the timed run
        # allocates nothing per message and measures only the kernel.
        in_order = 0
        for expected in items:
            if (yield fifo.get()) == expected:
                in_order += 1
            yield self.sim.timeout(self.SLEEP_PS)
        self.in_order[pair] = in_order


class MeshWorkload:
    """The kernel in isolation: ``Simulator.run`` over a generator mesh."""

    PAIRS = 16

    def __init__(self, name: str, why: str, messages: int):
        self.name = name
        self.why = why
        self.messages = messages

    def build(self, seed: int, scale: float) -> Mesh:
        per = _scaled(self.messages, scale, 2 * self.PAIRS) // self.PAIRS
        rng = random.Random(seed)
        return Mesh([[rng.getrandbits(32) for _ in range(per)] for _ in range(self.PAIRS)])

    def tasks(self, mesh: Mesh) -> int:
        return sum(map(len, mesh.payloads))

    def run(self, mesh: Mesh):
        spans: Dict[str, Tuple[float, float]] = {}
        with _span(spans, "simulate"):
            mesh.sim.run()
        return spans, [mesh]

    def verify(self, mesh: Mesh, results) -> Tuple[int, List[str]]:
        """Every message arrives, in order, and the last consumer wakes
        exactly when its sleeps add up to."""
        failed, problems = 0, []
        for pair, (sent, in_order) in enumerate(zip(mesh.payloads, mesh.in_order)):
            bad = len(sent) - in_order
            if bad:
                failed += bad
                problems.append(f"pair {pair}: {bad} messages lost or out of order")
        expected = len(mesh.payloads[0]) * Mesh.SLEEP_PS
        if mesh.sim.now != expected:
            problems.append(f"mesh ended at {mesh.sim.now} ps, expected {expected} ps")
            failed = self.tasks(mesh)
        return failed, problems

    def model(self, mesh: Mesh, results) -> Dict[str, float]:
        events = mesh.sim.events_processed
        return {
            "makespan_us": mesh.sim.now / 1e6,
            "sim.events": events,
            "sim.events_per_task": events / self.tasks(mesh),
            "sim.peak_pending": mesh.sim.peak_pending,
            **{
                m.name: 0
                for m in CATALOGUE
                if m.name.startswith("hw.") and not m.traced
            },
        }

    def finish(self, seed, scale, tally) -> Dict[str, float]:
        return {}


WORKLOADS: Dict[str, Any] = {
    w.name: w
    for w in (
        MeshWorkload(
            "kernel-mesh",
            "16 producer/consumer generator pairs on capacity-4 FIFOs: the event "
            "kernel does all the work and no modelled hardware runs",
            messages=300_000,
        ),
        GaussianWorkload(
            "paper-gaussian",
            "Gaussian elimination on Table IV defaults, 4 workers: the paper's "
            "single Maestro with memory contention, dummy tasks and WAR hazards",
            SystemConfig(workers=4),
            lambda seed, scale: gaussian_trace(_scaled(100, scale**0.5, 4)),
        ),
        MachineWorkload(
            "hazard-dense",
            "random 6-param trace on 96 addresses on the full sharded stack: "
            "the only workload with the TD cache on",
            HAZARD_DENSE_CONFIG,
            lambda seed, scale: random_trace(
                _scaled(5_000, scale, 50),
                n_addresses=96,
                max_params=6,
                mean_exec=4000,
                mean_memory=0,
                seed=seed,
                name="hazard-dense",
            ),
        ),
        WaitChainWorkload(
            "wait-chain",
            "32 chains of 250 ns tasks on 16 workers: fine-grain tasks where "
            "per-task management cost dominates, and the only run of the "
            "software runtime",
            WAIT_CHAIN_CONFIG,
            lambda seed, scale: wait_chain_trace(32, _scaled(250, scale, 2), spin_ns=250),
        ),
        MachineWorkload(
            "stream-1p",
            "1-param trace on 1024 addresses on 32 workers: almost no hazards, "
            "so per-task host cost, the chunked generator and memory dominate",
            STREAM_CONFIG,
            lambda seed, scale: random_trace(
                _scaled(10_000, scale, 50),
                n_addresses=1024,
                max_params=1,
                mean_exec=2000,
                mean_memory=0,
                seed=seed,
                name="stream-1p",
            ),
        ),
    )
}


# ---------------------------------------------------------------------------
# Measurement (runs in the workload's child process)
# ---------------------------------------------------------------------------


class Tally:
    """Tasks attempted and failed across every simulated run of a workload."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, n: int, problems: Sequence[str]) -> None:
        self.failed += n
        self.problems += problems[: max(0, 10 - len(self.problems))]

    def checked(self, n: int, fn, *args):
        """Call ``fn`` as a run of ``n`` tasks; a raise fails all ``n``."""
        self.attempted += n
        try:
            return fn(*args)
        except Exception as exc:
            self.fail(n, [f"{type(exc).__name__}: {exc}"])
            raise


@dataclass
class Rep:
    """One repetition: build the input, run the timed calls, verify."""

    spans: Dict[str, Tuple[float, float]]
    tasks: int
    model: Dict[str, float]

    def seconds(self, span: str) -> float:
        start, end = self.spans[span]
        return end - start

    @property
    def timed(self) -> float:
        """Host seconds of the timed calls (the tasks_per_s denominator)."""
        return sum(self.seconds(s) for s in ("simulate", "software_rts") if s in self.spans)


def _repetition(wl, seed: int, scale: float, tally: Tally, sampler=None):
    spans: Dict[str, Tuple[float, float]] = {}
    with _span(spans, "generate"):
        inputs = wl.build(seed, scale)
    n = wl.tasks(inputs)
    with sampler or nullcontext():
        run_spans, results = tally.checked(n, wl.run, inputs)
    spans.update(run_spans)
    with _span(spans, "verify"):
        tally.fail(*wl.verify(inputs, results))
    return Rep(spans, n, wl.model(inputs, results))


class ModuleSampler:
    """SIGPROF sampler: every ``interval`` CPU seconds, charge one sample to
    the module of the innermost Python frame.  Costs one dictionary update
    per sample, so it barely shifts the shares it measures."""

    def __init__(self, interval: float = SAMPLE_INTERVAL):
        self.interval = interval
        self.modules: Counter = Counter()
        self._previous = None

    def _tick(self, signum, frame) -> None:
        name = frame.f_globals.get("__name__", "") if frame is not None else ""
        self.modules[name] += 1

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    @property
    def samples(self) -> int:
        return sum(self.modules.values())

    def layers(self) -> Counter:
        """Samples per entry of :data:`SELF_LAYERS`."""
        counts: Counter = Counter({layer: 0 for layer in SELF_LAYERS})
        for module, n in self.modules.items():
            counts[layer_of(module)] += n
        return counts


def layer_of(module: str) -> str:
    """The :data:`SELF_LAYERS` entry a Python module's samples go to."""
    if not module.startswith("repro."):
        return "other"
    name = module[len("repro.") :]
    if name in SELF_LAYERS:
        return name
    package = name.split(".")[0]
    return _PACKAGE_LAYERS.get(package, "other")


def _write_span_trace(path: Path, spans: Dict[str, Tuple[float, float]]) -> None:
    """The traced repetition's spans as Chrome trace-event JSON."""
    origin = min(start for start, _ in spans.values())
    events = [
        {
            "name": name,
            "cat": "ledger",
            "ph": "X",
            "pid": 1,
            "tid": 1,
            "ts": (start - origin) * 1e6,
            "dur": (end - start) * 1e6,
        }
        for name, (start, end) in sorted(spans.items(), key=lambda kv: kv[1])
    ]
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


def _measure(wl, seed: int, seconds: float, scale: float, traced: bool, tally: Tally):
    metrics: Dict[str, float] = {}
    _repetition(wl, seed, scale * WARMUP_SCALE, tally)
    reps: List[Rep] = []
    while len(reps) < MIN_REPS or sum(r.timed for r in reps) < seconds:
        rep = _repetition(wl, seed, scale, tally)
        reps.append(rep)
        if rep.model != reps[0].model:
            tally.fail(rep.tasks, [f"repetition {len(reps)} modelled differently from the first"])

    median = statistics.median
    run_s = median(r.seconds("simulate") for r in reps)
    setup_s = median(r.seconds("generate") for r in reps)
    metrics.update(reps[0].model)
    metrics.update(wl.finish(seed, scale, tally))
    metrics.update(
        {
            # The upper quartile, not the median: a shared host slows down in
            # one-sided phases of several seconds, which drag the median
            # of a run and leave its fastest quarter alone.
            "tasks_per_s": statistics.quantiles([r.tasks / r.timed for r in reps], n=4)[2],
            "setup_s": setup_s,
            "traces.generate_s": setup_s,
            "machine.run_s": run_s,
            "bench.verify_s": median(r.seconds("verify") for r in reps),
            "sim.events_per_s": reps[0].model["sim.events"] / run_s,
        }
    )
    if "software_rts" in reps[0].spans:
        metrics["runtime.software_rts_s"] = median(r.seconds("software_rts") for r in reps)
    if traced:
        sampler = ModuleSampler()
        rep = _repetition(wl, seed, scale, tally, sampler)
        wall = rep.timed
        samples = max(1, sampler.samples)
        for layer, n in sampler.layers().items():
            metrics[f"{layer}.self_pct"] = 100 * n / samples
        metrics["trace.wall_s"] = wall
        metrics["trace.samples"] = sampler.samples
        metrics["trace.overhead_pct"] = 100 * (wall / median(r.timed for r in reps) - 1)
        RESULTS.mkdir(exist_ok=True)
        _write_span_trace(RESULTS / f"spans-{wl.name}-seed{seed}.json", rep.spans)
    return metrics, len(reps)


def measure(name: str, seed: int, seconds: float, scale: float, traced: bool) -> Dict[str, Any]:
    """Measure one workload in this process; returns its ledger record."""
    wl = WORKLOADS[name]
    tally = Tally()
    metrics: Dict[str, float] = {}
    reps = 0
    try:
        metrics, reps = _measure(wl, seed, seconds, scale, traced, tally)
    except Exception:
        # A run that raises fails all of its tasks; the record still goes
        # out so that the other workloads' numbers survive.
        traceback.print_exc()
        tally.attempted = max(tally.attempted, 1)
        tally.failed = max(tally.failed, 1)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["failed_frac"] = tally.failed / max(1, tally.attempted)
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "repetitions": reps,
        "metrics": {k: {"value": v, "unit": METRICS[k].unit} for k, v in metrics.items()},
    }


# ---------------------------------------------------------------------------
# The ledger (parent process)
# ---------------------------------------------------------------------------


def _child(name: str, args) -> Dict[str, Any]:
    """Measure one workload in its own single-threaded child process."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--child",
        name,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--scale",
        str(args.scale),
        "--trace",
        str(args.trace),
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, env=env, timeout=CHILD_TIMEOUT_S
        )
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (subprocess.TimeoutExpired, IndexError, json.JSONDecodeError) as exc:
        return {
            "attempted": 1,
            "failed": 1,
            "problems": [f"child process failed: {type(exc).__name__}"],
            "repetitions": 0,
            "metrics": {},
        }


def _fmt(value: float) -> str:
    return f"{value:,.0f}" if float(value).is_integer() else f"{value:,.6g}"


def print_record(name: str, record: Dict[str, Any]) -> None:
    print(
        f"== {name}: {record['repetitions']} timed repetitions, "
        f"{record['failed']}/{record['attempted']} tasks failed"
    )
    metrics = record["metrics"]
    wall = metrics.get("trace.wall_s", {}).get("value", 0.0)
    for metric in CATALOGUE:
        if metric.name not in metrics:
            continue
        value = metrics[metric.name]["value"]
        note = ""
        if metric.name.endswith(".self_pct"):
            note = f"  ({_fmt(value / 100 * wall)} s self)"
        print(f"  {metric.name:36s} {_fmt(value):>16s} {metric.unit}{note}")
    for problem in record["problems"]:
        print(f"  ! {problem}")


def result_line(records: Dict[str, Dict[str, Any]], traced: bool) -> Dict[str, Any]:
    """The one-line result; names carry a ``<workload>.`` prefix when more
    than one workload ran."""
    attempted = sum(r["attempted"] for r in records.values())
    failed = sum(r["failed"] for r in records.values())
    metrics = {}
    for name, record in records.items():
        prefix = f"{name}." if len(records) > 1 else ""
        for metric in line_metrics(traced):
            if metric.name in record["metrics"]:
                metrics[prefix + metric.name] = record["metrics"][metric.name]
    return {
        "correct": failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": metrics,
    }


def run_ledger(args) -> int:
    # A terminated ledger raises SystemExit inside subprocess.run, which
    # then kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    records = {}
    for name in args.workload:
        print(f"running {name} ...", file=sys.stderr, flush=True)
        records[name] = _child(name, args)
        print_record(name, records[name])
    out = Path(args.out) if args.out else RESULTS / (
        f"ledger-seed{args.seed}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(
            {
                "ledger": 1,
                "seed": args.seed,
                "scale": args.scale,
                "seconds": args.seconds,
                "trace": args.trace,
                "python": sys.version.split()[0],
                "cpus": os.cpu_count(),
                "workloads": records,
            },
            indent=1,
        )
        + "\n"
    )
    print(f"ledger written to {out}")
    line = result_line(records, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


# ---------------------------------------------------------------------------
# Comparator
# ---------------------------------------------------------------------------


def _load(paths: Sequence[str]) -> Dict[Tuple[str, str], List[float]]:
    values: Dict[Tuple[str, str], List[float]] = {}
    for path in paths:
        for workload, record in json.loads(Path(path).read_text())["workloads"].items():
            for name, metric in record["metrics"].items():
                values.setdefault((workload, name), []).append(metric["value"])
    return values


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(metric: Optional[Metric], a: List[float], b: List[float]) -> str:
    """``same``/``better``/``worse`` for B against A, or ``unresolved`` when
    a host metric's spread (quartile distance over median) exceeds its
    bound.  Modelled metrics must match exactly; a per-layer host metric
    has no bound and gets ``-``."""
    (a1, am, a3), (b1, bm, b3) = _quartiles(a), _quartiles(b)
    if metric is None or (metric.host and metric.bound is None):
        return "-"
    sign = 1 if metric.better == "higher" else -1
    if not metric.host:
        if am == bm:
            return "same"
        return "better" if sign * (bm - am) > 0 else "worse"
    for lo, mid, hi in ((a1, am, a3), (b1, bm, b3)):
        if mid and (hi - lo) / abs(mid) > metric.bound:
            return "unresolved"
    change = sign * (bm - am) / abs(am) if am else 0.0
    if change < -metric.bound:
        return "worse"
    return "better" if change > metric.bound else "same"


def compare(a_paths: Sequence[str], b_paths: Sequence[str]) -> int:
    a, b = _load(a_paths), _load(b_paths)
    order = {m.name: i for i, m in enumerate(CATALOGUE)}
    keys = sorted(set(a) | set(b), key=lambda k: (k[0], order.get(k[1], len(order)), k[1]))
    worse = 0
    print(f"A: {len(a_paths)} runs  B: {len(b_paths)} runs")
    print(f"{'workload':15s} {'metric':36s} {'A median [q1, q3] (N)':>36s} "
          f"{'B median [q1, q3] (N)':>36s} {'change':>8s}  verdict")

    def side(values):
        if not values:
            return "missing"
        lo, mid, hi = _quartiles(values)
        return f"{_fmt(mid)} [{_fmt(lo)}, {_fmt(hi)}] ({len(values)})"

    for key in keys:
        va, vb = a.get(key, []), b.get(key, [])
        metric = METRICS.get(key[1])
        if va and vb:
            am, bm = statistics.median(va), statistics.median(vb)
            change = f"{(bm - am) / abs(am):+.1%}" if am else "-"
            mark = verdict(metric, va, vb)
        else:
            change, mark = "-", "missing"
        worse += mark == "worse"
        print(f"{key[0]:15s} {key[1]:36s} {side(va):>36s} {side(vb):>36s} {change:>8s}  {mark}")
    return 1 if worse else 0


# ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--workload", nargs="+", choices=list(WORKLOADS), default=list(WORKLOADS)
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="add one sampled repetition per workload (per-layer metrics)",
    )
    parser.add_argument(
        "--seconds", type=float, default=0.0,
        help="keep repeating until the timed calls have run this long",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0, help="multiply every workload's size"
    )
    parser.add_argument("--out", help="ledger JSON path (default: under results/)")
    parser.add_argument("--compare", nargs="+", metavar="A.json")
    parser.add_argument("b_files", nargs="*", metavar="B.json")
    parser.add_argument("--child", choices=list(WORKLOADS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"repro imported from {repro.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.compare:
        if not args.b_files:
            parser.error("--compare A.json [...] -- B.json [...]")
        return compare(args.compare, args.b_files)
    if args.scale <= 0 or args.seconds < 0:
        parser.error("--scale must be > 0 and --seconds >= 0")
    if args.child:
        print(json.dumps(measure(args.child, args.seed, args.seconds, args.scale, bool(args.trace))))
        return 0
    return run_ledger(args)


if __name__ == "__main__":
    sys.exit(main())
