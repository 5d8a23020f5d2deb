"""The pinned scaling curves: one :data:`CURVES` row per ``BENCH_*.json``.

Each row names a curve, runs its sweep, writes the report to
``BENCH_<name>.json`` at the repository root, emits a table through
:func:`conftest.report` and asserts the curve's shape.  The sweeps are
deterministic, so CI re-runs the table and then fails on
``git diff --exit-code -- 'BENCH_*.json'`` if a modelled number moved::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_curves.py
    PYTHONPATH=src python -m pytest -q benchmarks/bench_curves.py -k retire
    REPRO_FULL=1 PYTHONPATH=src python -m pytest -q benchmarks/bench_curves.py

The six grid curves climb ``repro.config.LADDER``, each one
``grid_sweep(trace, base, axes)`` call.  Each starts from a rung, the
machine the previous curve left bottlenecked, and sweeps the knobs of the
rung above it, the feature that lifts that bottleneck: Maestro shards,
then parallel masters and submission batching, the retire pipeline, fast
dispatch, the staged resolve and the decentralized check.  The check curve moves
to a param-dense workload, on which the central Check Scatter is the
limit.  The efficiency curve is one ``efficiency_sweep`` call: HW
Maestro against the software RTS as tasks shrink.  The README's
"Reproduce the paper & the scaling curves" section gives the CLI command
for each curve.
"""

import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Sequence, Tuple

import pytest
from conftest import FULL, report

from repro.analysis import render_table
from repro.config import LADDER, SystemConfig
from repro.machine import analyze_bottleneck, efficiency_sweep, grid_sweep
from repro.traces import random_trace

REPO = Path(__file__).parent.parent
N_TASKS = 3000 if FULL else 1200
WORKERS = LADDER["fitted"].workers

SHARDS = [1, 2, 4, 8] if FULL else [1, 2, 4]
MASTERS = [1, 2, 4, 8] if FULL else [1, 2, 4]
BATCHES = [1, 4, 8]
DEPTHS = [1, 2, 4, 8, 16] if FULL else [1, 2, 4, 8]
SPINS_NS = [250, 1000, 4000, 16000, 64000]
if FULL:
    SPINS_NS = [100] + SPINS_NS + [256000]

#: ~4 ns tasks on a 96-address pool and no memory phases: deep dependence
#: chains, so dependence resolution is the work.
hazard_dense = partial(
    random_trace,
    N_TASKS,
    n_addresses=96,
    max_params=6,
    seed=7,
    mean_exec=4000,
    mean_memory=0,
    name="random-hazard-dense",
)
#: Short tasks on 1024 addresses: shallow chains, so throughput (every
#: param probed through the Check Scatter) is the limit, not latency.
param_dense = partial(
    hazard_dense, n_addresses=1024, mean_exec=500, name="random-param-dense"
)


At = Callable[..., dict]


@dataclass(frozen=True)
class Curve:
    """One pinned curve: its sweep, its table and its shape predicate."""

    #: Test id, report name and the ``BENCH_<name>.json`` it pins.
    name: str
    #: Table title; ``{trace}`` is the report's trace name, ``{workers}``
    #: :data:`WORKERS`.
    title: str
    #: Runs the sweep; returns a ``GridReport`` or ``EfficiencyReport``.
    sweep: Callable[[], Any]
    #: ``(header, cell(row))`` per table column.
    columns: Sequence[Tuple[str, Callable[[dict], Any]]]
    #: Asserts the shape, given the report and ``at(**point) -> row``.
    check: Callable[[Any, At], None]
    #: Append the report's ASCII plot to the table.
    plot: bool = False

    @property
    def json_path(self) -> Path:
        return REPO / f"BENCH_{self.name}.json"


def _on(key: str) -> Callable[[dict], str]:
    return lambda r: "on" if r[key] else "off"


def _pct(key: str, fmt: str = ".0%") -> Callable[[dict], str]:
    return lambda r: format(r[key], fmt)


def _limit(key: str) -> Callable[[dict], Any]:
    return lambda r: r[key] if r[key] > 1 else "off"


MAKESPAN = ("makespan (us)", lambda r: round(r["makespan_ps"] / 1e6, 2))
SPEEDUP = ("speedup", lambda r: round(r["speedup_vs_baseline"], 2))
BUSIEST = ("busiest block", lambda r: r["busiest_maestro_block"])
HOPS = (
    "resolve/fwd/TD/start",
    lambda r: "/".join(
        f"{r['chain_hop_ns'].get(c, 0.0):.0f}"
        for c in ("resolve", "forward", "td_transfer", "start")
    ),
)
NS_PER_HOP = ("ns/hop", lambda r: round(r["chain_hop_ns"].get("total", 0.0), 1))


def check_shards(rep, at: At) -> None:
    one = at(maestro_shards=1)
    # The 1-shard machine must be dependency-resolution bound, otherwise
    # this curve would measure something else entirely.
    assert one["busiest_maestro_block"] in ("check_deps", "handle_finished", "send_tds")
    assert one["busiest_block_utilization"] > 0.90
    # Sharding must pay: >= 1.15x at 2 shards, monotone non-decreasing
    # through 1-2-4 (2% tolerance for the interconnect latency noise).
    assert at(maestro_shards=2)["speedup_vs_baseline"] >= 1.15
    for prev, cur in zip(SHARDS[:3], SHARDS[1:3]):
        assert (
            at(maestro_shards=cur)["speedup_vs_baseline"]
            >= 0.98 * at(maestro_shards=prev)["speedup_vs_baseline"]
        )


def check_submission(rep, at: At) -> None:
    def point(masters, batch):
        return at(master_cores=masters, submission_batch=batch)

    # The baseline is what sharding left behind: a master-bound machine.
    assert point(1, 1)["master_bound_fraction"] > 0.95
    # Two masters lift the ceiling, and batching stacks on top.
    assert point(2, 1)["speedup_vs_baseline"] >= 1.5
    assert point(2, 8)["speedup_vs_baseline"] > point(2, 1)["speedup_vs_baseline"]
    # At 4 masters submission is no longer the ceiling.
    assert point(4, 8)["master_bound_fraction"] < 0.5
    assert point(4, 8)["speedup_vs_baseline"] >= 1.5


def check_retire(rep, at: At) -> None:
    one = at(retire_pipeline_depth=1)
    # The baseline is retire-bound: the worst shard's single ticket is
    # charged most of the run, and a retire block is the busiest.
    assert one["retire_full_fraction"] > 0.5
    assert ".retire" in one["busiest_maestro_block"]
    # Pipelining breaks the ~31 us ceiling: >= 1.5x at depth 4 ...
    depth4 = at(retire_pipeline_depth=4)["speedup_vs_baseline"]
    assert depth4 >= 1.5
    # ... and the curve saturates rather than regresses.
    assert at(retire_pipeline_depth=8)["speedup_vs_baseline"] >= depth4 - 0.05
    # Depth 1 never has more than one finish in flight per shard.
    assert one["retire_inflight_max"] <= 1


def check_dispatch(rep, at: At) -> None:
    def point(cache, fast):
        return at(td_cache_entries=cache, kickoff_fast_path=fast)

    off, both = point(0, False), point(64, True)
    cache_only, fast_only = point(64, False), point(0, True)
    # The baseline is latency-bound: nothing saturated, the critical
    # chain covering most of the run, the TD transfer its dominant hop.
    verdict = analyze_bottleneck(rep.runs[0], rep.configs[0])
    assert verdict.verdict == "latency", verdict.describe()
    assert off["chain_fraction"] > 0.5
    assert off["chain_hop_ns"]["td_transfer"] > 25.0
    # Both features cut the per-hop chain latency >= 1.25x, with the TD
    # transfer overlapped to < 10 ns mean along the critical chain.
    assert both["speedup_vs_baseline"] >= 1.25
    assert both["chain_hop_ns"]["td_transfer"] < 10.0
    # Each feature removes its own component.
    assert cache_only["chain_hop_ns"]["td_transfer"] < 10.0
    assert fast_only["chain_hop_ns"]["forward"] < off["chain_hop_ns"]["forward"]
    assert both["chain_hop_ns"]["forward"] < 10.0
    assert both["fast_dispatches"] > 0
    assert both["chain_hop_ns"]["total"] < off["chain_hop_ns"]["total"]


def check_resolve(rep, at: At) -> None:
    def point(coalesce, spec):
        return at(finish_coalesce_limit=coalesce, speculative_kickoff=spec)

    off, both = point(1, False), point(8, True)
    spec_only, coal_only = point(1, True), point(8, False)
    # With 8 masters the baseline is latency-bound on the resolve hop,
    # and the verdict names the resolve knobs as the lever.
    verdict = analyze_bottleneck(rep.runs[0], rep.configs[0])
    assert verdict.verdict == "latency", verdict.describe()
    assert "resolve" in (verdict.detail or "")
    assert off["dominant_chain_component"] == "resolve"
    assert off["chain_fraction"] > 0.5
    assert off["chain_hop_ns"]["resolve"] > 43.0
    # The pipeline cuts the resolve hop >= 1.5x and the makespan >= 1.1x.
    resolve_cut = off["chain_hop_ns"]["resolve"] / both["chain_hop_ns"]["resolve"]
    assert resolve_cut >= 1.5, f"resolve hop cut only {resolve_cut:.2f}x"
    assert both["speedup_vs_baseline"] >= 1.1
    # Each knob pulls its weight.
    assert spec_only["chain_hop_ns"]["resolve"] < off["chain_hop_ns"]["resolve"]
    assert spec_only["speculative_kicks"] > 0
    assert coal_only["resolve_mean_batch"] > 1.0
    assert coal_only["makespan_ps"] < off["makespan_ps"]
    assert both["chain_hop_ns"]["total"] < off["chain_hop_ns"]["total"]


def check_check(rep, at: At) -> None:
    def point(decentral, coalesce):
        return at(decentralized_check_scatter=decentral, check_coalesce_limit=coalesce)

    off, both = point(False, 1), point(True, 8)
    # The baseline's central scatter sequencer is saturated.  When the
    # scatter wins the verdict (it can tie with send_tds here), the
    # detail names the check knobs as the lever.
    assert off["scatter_busy"] > 0.50, off
    verdict = analyze_bottleneck(rep.runs[0], rep.configs[0])
    assert verdict.occupancy.get("maestro.scatter", 0.0) >= 0.90, verdict.describe()
    name = verdict.verdict.removeprefix("maestro.")
    if name == "scatter" or name.endswith(".check"):
        assert "check" in (verdict.detail or ""), verdict.describe()
    # Decentralization spreads the scatter work below the 50% bar ...
    assert both["scatter_busy"] < 0.50, both
    assert point(True, 1)["scatter_busy"] < off["scatter_busy"]
    # ... and the combined machine delivers the end-to-end win.
    assert both["speedup_vs_baseline"] >= 1.15, both
    # Coalescing actually batches and merges same-row probes.
    assert point(False, 8)["check_mean_batch"] > 1.0
    assert both["check_mean_batch"] > 1.0
    assert both["check_row_merges"] > 0


def check_efficiency(rep, at: At) -> None:
    finest, coarsest = at(spin_ns=min(SPINS_NS)), at(spin_ns=max(SPINS_NS))
    # At the finest grain the HW Maestro holds >= 1.5x the software RTS's
    # parallel efficiency, and the software runtime has collapsed ...
    assert finest["efficiency_ratio"] >= 1.5, finest
    assert finest["sw_efficiency"] < 0.10, finest
    # ... while at coarse grain both do fine and converge.
    assert coarsest["hw_efficiency"] >= 0.80, coarsest
    assert coarsest["sw_efficiency"] >= 0.50, coarsest
    assert coarsest["efficiency_ratio"] < finest["efficiency_ratio"]
    # Efficiency grows monotonically with granularity for both runtimes.
    for series in ("hw_efficiency", "sw_efficiency"):
        effs = [at(spin_ns=s)[series] for s in sorted(SPINS_NS)]
        assert effs == sorted(effs), (series, effs)
    # HW management overhead per task is orders of magnitude below the
    # software RTS's master cost.
    assert finest["hw_overhead_ns_per_task"] < 1000, finest
    assert finest["sw_overhead_ns_per_task"] > 10000, finest


CURVES = [
    Curve(
        "shard_scaling",
        "Maestro shard scaling ({trace}, {workers} workers)",
        lambda: grid_sweep(
            hazard_dense(),
            LADDER["fitted"].with_(task_prep_time=0),
            {"maestro_shards": SHARDS},
        ),
        [
            ("shards", lambda r: r["maestro_shards"]),
            MAKESPAN,
            SPEEDUP,
            BUSIEST,
            ("util", _pct("busiest_block_utilization")),
            ("steals", lambda r: r["steals"]),
        ],
        check_shards,
    ),
    Curve(
        "submission_scaling",
        "Submission front-end scaling ({trace}, {workers} workers, 4 shards)",
        lambda: grid_sweep(
            hazard_dense(),
            LADDER["sharded"],
            {"master_cores": MASTERS, "submission_batch": BATCHES},
        ),
        [
            ("masters", lambda r: r["master_cores"]),
            ("batch", lambda r: r["submission_batch"]),
            MAKESPAN,
            SPEEDUP,
            ("master-bound", _pct("master_bound_fraction")),
            BUSIEST,
        ],
        check_submission,
    ),
    Curve(
        "retire_scaling",
        "Retire pipeline scaling ({trace}, {workers} workers, 4 shards, "
        "4 masters x batch 8)",
        lambda: grid_sweep(
            hazard_dense(), LADDER["frontend"], {"retire_pipeline_depth": DEPTHS}
        ),
        [
            ("depth", lambda r: r["retire_pipeline_depth"]),
            ("TP ports", lambda r: r["task_pool_ports"]),
            MAKESPAN,
            SPEEDUP,
            ("mean in-flight", lambda r: round(r["retire_inflight_mean"], 2)),
            ("pipe full", _pct("retire_full_fraction")),
            BUSIEST,
        ],
        check_retire,
    ),
    Curve(
        "dispatch_latency",
        "Fast-dispatch latency grid ({trace}, {workers} workers, 4 shards, "
        "4 masters x batch 8, retire depth 4)",
        # Fast path outermost: (off, off), (cache, off), (off, fast), (both).
        lambda: grid_sweep(
            hazard_dense(),
            LADDER["retire"],
            {"kickoff_fast_path": [False, True], "td_cache_entries": [0, 64]},
        ),
        [
            ("TD cache", lambda r: r["td_cache_entries"] or "off"),
            ("fast path", _on("kickoff_fast_path")),
            MAKESPAN,
            SPEEDUP,
            ("chain depth", lambda r: r["chain_depth"]),
            NS_PER_HOP,
            HOPS,
            (
                "cache hits",
                lambda r: "-"
                if r["td_cache_hit_rate"] is None
                else f"{r['td_cache_hit_rate']:.0%}",
            ),
        ],
        check_dispatch,
    ),
    Curve(
        "resolve_latency",
        "Staged-resolve latency grid ({trace}, {workers} workers, 4 shards, "
        "8 masters x batch 8, retire depth 4, fast dispatch on)",
        # Speculation outermost: (off, off), (coalesce, off), (off, spec),
        # (both).
        lambda: grid_sweep(
            hazard_dense(),
            LADDER["dispatch"],
            {"speculative_kickoff": [False, True], "finish_coalesce_limit": [1, 8]},
        ),
        [
            ("coalesce", _limit("finish_coalesce_limit")),
            ("spec kick", _on("speculative_kickoff")),
            MAKESPAN,
            SPEEDUP,
            ("resolve ns", lambda r: round(r["chain_hop_ns"].get("resolve", 0.0), 1)),
            NS_PER_HOP,
            HOPS,
            ("mean batch", lambda r: round(r["resolve_mean_batch"], 2)),
            ("spec kicks", lambda r: r["speculative_kicks"]),
        ],
        check_resolve,
    ),
    Curve(
        "check_scaling",
        "Decentralized-check grid ({trace}, {workers} workers, 4 shards, "
        "8 masters x batch 8, retire depth 4, fast dispatch + staged resolve on)",
        # Coalescing outermost: (off, off), (decentral, off), (off,
        # coalesce), (both).
        lambda: grid_sweep(
            param_dense(),
            LADDER["resolve"],
            {
                "check_coalesce_limit": [1, 8],
                "decentralized_check_scatter": [False, True],
            },
        ),
        [
            ("decentral", _on("decentralized_check_scatter")),
            ("coalesce", _limit("check_coalesce_limit")),
            MAKESPAN,
            SPEEDUP,
            ("scatter busy", _pct("scatter_busy", ".1%")),
            ("check busy", _pct("check_engine_busy", ".1%")),
            ("mean batch", lambda r: round(r["check_mean_batch"], 2)),
            ("merge rate", _pct("check_coalesce_rate", ".1%")),
            BUSIEST,
        ],
        check_check,
    ),
    Curve(
        "efficiency",
        "Efficiency vs granularity ({trace}, {workers} workers, "
        "HW Maestro vs software RTS)",
        # A 32 x 40 wait-chain graph, one dependence per task on the
        # previous column; only the spin time changes.
        lambda: efficiency_sweep(
            SPINS_NS,
            SystemConfig(workers=WORKERS, memory_contention=False),
            rows=32,
            cols=40,
            k_deps=1,
        ),
        [
            ("spin (ns)", lambda r: r["spin_ns"]),
            ("hw makespan (ms)", lambda r: round(r["hw_makespan_ps"] / 1e9, 4)),
            ("sw makespan (ms)", lambda r: round(r["sw_makespan_ps"] / 1e9, 4)),
            ("hw eff", _pct("hw_efficiency", ".1%")),
            ("sw eff", _pct("sw_efficiency", ".1%")),
            ("hw/sw", lambda r: round(r["efficiency_ratio"], 2)),
            ("hw ovh ns/task", lambda r: round(r["hw_overhead_ns_per_task"])),
            ("sw ovh ns/task", lambda r: round(r["sw_overhead_ns_per_task"])),
        ],
        check_efficiency,
        plot=True,
    ),
]


def test_every_pinned_file_has_one_curve():
    pinned = sorted(p.name for p in REPO.glob("BENCH_*.json"))
    named = sorted(c.json_path.name for c in CURVES)
    assert named == pinned, "CURVES must name each BENCH_*.json exactly once"


@pytest.mark.parametrize("curve", CURVES, ids=lambda c: c.name)
def test_curve(benchmark, curve):
    rep = benchmark.pedantic(curve.sweep, rounds=1, iterations=1)
    rows = rep.rows()
    curve.json_path.write_text(json.dumps(rep.to_json_dict(), indent=2) + "\n")

    text = render_table(
        [header for header, _ in curve.columns],
        [[cell(r) for _, cell in curve.columns] for r in rows],
        curve.title.format(trace=rep.trace_name, workers=WORKERS),
    )
    if curve.plot:
        text += "\n\n" + rep.plot()
    report(curve.name, text + f"\nmachine-readable curve: {curve.json_path.name}")

    def at(**point) -> dict:
        (row,) = [r for r in rows if point.items() <= r.items()]
        return row

    curve.check(rep, at)
