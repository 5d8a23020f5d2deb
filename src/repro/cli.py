"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``     print the machine configuration (the paper's Table IV)
``run``      simulate one workload on one machine and report the results
``sweep``    speedup-vs-cores curve for a workload (Fig. 7/8 style); with
             ``--axis KNOB=v1,v2`` (repeatable) a grid over any
             SystemConfig knobs instead (shard, submission, retire,
             dispatch, resolve and check curves alike), or the
             efficiency-vs-granularity curve (HW Maestro vs the
             software-RTS baseline) with ``--efficiency`` on the
             wait-chain workload
``workloads``list the available workload generators
``validate`` check a saved trace file for well-formedness and graph stats
``report``   pretty-print a ``run --metrics-out`` JSON document, or diff
             two of them (makespan, worker utilization, per-signal
             mean/max deltas)

Examples::

    python -m repro info --workers 64
    python -m repro run h264 --workers 16
    python -m repro run gaussian --size 100 --workers 8 --no-contention
    python -m repro run random --tasks 1000 --shards 4 --workers 16
    python -m repro sweep independent --cores 1,4,16,64
    python -m repro sweep random --tasks 1500 --axis maestro_shards=1,2,4 \
        --no-contention
    python -m repro run random --tasks 1000 --shards 4 --masters 2 --batch 4
    python -m repro sweep random --tasks 1500 --shards 4 \
        --axis master_cores=1,2,4 --axis submission_batch=1,4,8
    python -m repro sweep random --tasks 1200 --shards 4 --masters 4 --batch 8 \
        --axis retire_pipeline_depth=1,2,4,8 --no-contention
    python -m repro run random --tasks 1200 --shards 4 --masters 4 --batch 8 \
        --retire-depth 4 --td-cache 64 --fast-path --no-contention
    python -m repro sweep random --tasks 1200 --shards 4 --masters 4 --batch 8 \
        --retire-depth 4 --axis kickoff_fast_path=off,on \
        --axis td_cache_entries=0,64 --no-contention --json dispatch.json
    python -m repro run random --tasks 1200 --shards 4 --masters 8 --batch 8 \
        --retire-depth 4 --td-cache 64 --fast-path --coalesce 8 --spec-kickoff \
        --no-contention
    python -m repro run random --tasks 1200 --addresses 1024 --shards 4 \
        --masters 8 --batch 8 --retire-depth 4 --td-cache 64 --fast-path \
        --coalesce 8 --spec-kickoff --check-scatter --check-coalesce 8 \
        --no-contention
    python -m repro run cholesky --tiles 6 --workers 8 --bottleneck
    python -m repro run wait-chain --rows 16 --cols 64 --spin-ns 500 \
        --trace-out run.trace.json
    python -m repro run spatial --grid 5 --steps 4 --dims 3 --workers 16
    python -m repro sweep wait-chain --efficiency --rows 32 --cols 40 \
        --spin-ns 250,1000,4000,16000,64000 --no-contention \
        --json BENCH_efficiency.json
    python -m repro run wait-chain --rows 8 --cols 32 --telemetry-window 50000 \
        --metrics-out run.metrics.json --trace-out run.trace.json
    python -m repro report run.metrics.json
    python -m repro report run.metrics.json baseline.metrics.json
"""

from __future__ import annotations

import argparse
import sys
import typing
from typing import Any, Callable, Dict, List, Optional

from .analysis import render_table
from .config import SystemConfig
from .hw.errors import CapacityError
from .machine import (
    analyze_bottleneck,
    efficiency_sweep,
    grid_sweep,
    run_trace,
    saturation_point,
)
from .runtime.task_graph import build_task_graph
from .traces import (
    TaskTrace,
    blocked_lu_trace,
    cholesky_trace,
    gaussian_trace,
    h264_wavefront_trace,
    horizontal_chains_trace,
    independent_trace,
    jacobi_stencil_trace,
    pipeline_trace,
    random_trace,
    reduction_tree_trace,
    spatial_decomposition_trace,
    vertical_chains_trace,
    wait_chain_trace,
)

__all__ = ["main", "build_workload", "WORKLOADS"]

#: name -> (builder, description).  Builders accept the parsed namespace.
WORKLOADS: Dict[str, tuple[Callable[[argparse.Namespace], TaskTrace], str]] = {
    "h264": (
        lambda a: h264_wavefront_trace(),
        "H.264 macroblock wavefront, 120x68 (Fig. 4a)",
    ),
    "independent": (
        lambda a: independent_trace(n_tasks=a.tasks or 8160),
        "independent tasks (headline benchmark)",
    ),
    "horizontal": (
        lambda a: horizontal_chains_trace(),
        "horizontal chains (Fig. 4b)",
    ),
    "vertical": (
        lambda a: vertical_chains_trace(),
        "vertical chains (Fig. 4c)",
    ),
    "gaussian": (
        lambda a: gaussian_trace(a.size or 100),
        "Gaussian elimination with partial pivoting (Fig. 5; --size)",
    ),
    "cholesky": (
        lambda a: cholesky_trace(a.tiles or 8),
        "blocked Cholesky factorisation (--tiles)",
    ),
    "blocked-lu": (
        lambda a: blocked_lu_trace(a.tiles or 6),
        "blocked LU factorisation (--tiles)",
    ),
    "jacobi": (
        lambda a: jacobi_stencil_trace(a.grid or 8, a.iterations or 4),
        "2D Jacobi stencil (--grid, --iterations)",
    ),
    "reduction": (
        lambda a: reduction_tree_trace(a.leaves or 64),
        "binary reduction tree (--leaves, power of two)",
    ),
    "pipeline": (
        lambda a: pipeline_trace(a.items or 64, a.stages or 4),
        "streaming pipeline (--items, --stages)",
    ),
    "wait-chain": (
        lambda a: wait_chain_trace(
            a.rows or 16,
            a.cols or 64,
            k_deps=a.deps or 1,
            spin_ns=_single_int("spin-ns", a.spin_ns, 1000),
            seed=a.seed if a.seed is not None else 11,
        ),
        "granularity probe: rows x cols wait-chains of spin_ns tasks "
        "(--rows, --cols, --deps, --spin-ns)",
    ),
    "spatial": (
        lambda a: spatial_decomposition_trace(
            a.grid or 6, a.steps or 4, dims=a.dims or 2
        ),
        "halo-exchange spatial decomposition, 2D/3D Moore neighbourhood "
        "(--grid, --steps, --dims)",
    ),
    "random": (
        lambda a: random_trace(
            n_tasks=a.tasks or 1000,
            n_addresses=a.addresses or 96,
            max_params=6,
            seed=a.seed if a.seed is not None else 7,
            mean_exec=4000,
            mean_memory=200,
        ),
        "random hazard-dense tiny tasks; dependency-resolution bound "
        "(--tasks, --addresses, --seed)",
    ),
}


def _single_int(flag: str, value, default: int) -> int:
    """A --flag that is a comma list in sweeps but a single value in run."""
    if value is None:
        return default
    text = str(value)
    if not text.isdigit() or int(text) < 1:
        raise SystemExit(
            f"--{flag} must be a single positive integer here (a comma "
            f"list is only valid in `sweep --efficiency`); got {value!r}"
        )
    return int(text)


def build_workload(name: str, args: argparse.Namespace) -> TaskTrace:
    try:
        builder, _ = WORKLOADS[name]
    except KeyError:
        raise SystemExit(
            f"unknown workload {name!r}; try: {', '.join(sorted(WORKLOADS))}"
        ) from None
    return builder(args)


def _config_from(args: argparse.Namespace, **point: Any) -> SystemConfig:
    """The machine the flags describe, with ``point``'s knob values (a
    sweep grid point) applied on top."""
    overrides = {"workers": args.workers}
    if getattr(args, "no_contention", False):
        overrides["memory_contention"] = False
    if getattr(args, "no_prep", False):
        overrides["task_prep_time"] = 0
    if getattr(args, "depth", None) is not None:
        overrides["buffering_depth"] = args.depth
    if getattr(args, "restricted", False):
        overrides["restricted"] = True
    for flag, field_name in (
        ("shards", "maestro_shards"),
        ("masters", "master_cores"),
        ("batch", "submission_batch"),
        ("retire_depth", "retire_pipeline_depth"),
    ):
        if getattr(args, flag, None) is not None:
            overrides[field_name] = getattr(args, flag)
    if getattr(args, "hop_ns", None) is not None:
        from .sim import NS

        overrides["shard_hop_time"] = args.hop_ns * NS
    if getattr(args, "td_cache", None) is not None:
        overrides["td_cache_entries"] = args.td_cache
    if getattr(args, "fast_path", False):
        overrides["kickoff_fast_path"] = True
    if getattr(args, "prefetch_depth", None) is not None:
        overrides["td_prefetch_depth"] = args.prefetch_depth
    if getattr(args, "coalesce", None) is not None:
        overrides["finish_coalesce_limit"] = args.coalesce
    if getattr(args, "coalesce_window", None) is not None:
        from .sim import NS

        overrides["finish_coalesce_window"] = args.coalesce_window * NS
    if getattr(args, "spec_kickoff", False):
        overrides["speculative_kickoff"] = True
    if getattr(args, "check_scatter", False):
        overrides["decentralized_check_scatter"] = True
    if getattr(args, "check_coalesce", None) is not None:
        overrides["check_coalesce_limit"] = args.check_coalesce
    if getattr(args, "check_coalesce_window", None) is not None:
        from .sim import NS

        overrides["check_coalesce_window"] = args.check_coalesce_window * NS
    if getattr(args, "telemetry_window", None) is not None:
        from .sim import NS

        overrides["telemetry_window"] = args.telemetry_window * NS
    overrides.update(point)
    try:
        return SystemConfig(**overrides)
    except ValueError as exc:
        # Configuration contradictions (e.g. --retire-depth 4 without a
        # sharded --shards) read as usage errors, not tracebacks.
        raise SystemExit(str(exc)) from None


def _add_workload_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("workload", choices=sorted(WORKLOADS), help="workload name")
    p.add_argument("--tasks", type=int, help="task count (independent)")
    p.add_argument("--size", type=int, help="matrix dimension (gaussian)")
    p.add_argument("--tiles", type=int, help="tile grid side (cholesky/blocked-lu)")
    p.add_argument("--grid", type=int, help="block grid side (jacobi/spatial)")
    p.add_argument("--iterations", type=int, help="iterations (jacobi)")
    p.add_argument("--leaves", type=int, help="leaves (reduction)")
    p.add_argument("--items", type=int, help="items (pipeline)")
    p.add_argument("--stages", type=int, help="stages (pipeline)")
    p.add_argument("--rows", type=int, help="parallel chains (wait-chain)")
    p.add_argument("--cols", type=int, help="tasks per chain (wait-chain)")
    p.add_argument(
        "--deps", type=int,
        help="dependences on the previous column per task (wait-chain)",
    )
    p.add_argument(
        "--spin-ns", default=None,
        help="task body length in ns (wait-chain); a comma list with "
        "`sweep --efficiency` sweeps granularity",
    )
    p.add_argument("--steps", type=int, help="timesteps (spatial)")
    p.add_argument("--dims", type=int, help="grid dimensionality 2|3 (spatial)")
    p.add_argument("--addresses", type=int, help="shared address pool (random)")
    p.add_argument("--seed", type=int, help="trace RNG seed (random)")


def _add_machine_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workers", type=int, default=16, help="worker cores")
    p.add_argument("--no-contention", action="store_true", help="contention-free memory")
    p.add_argument("--no-prep", action="store_true", help="zero master task-prep time")
    p.add_argument("--depth", type=int, help="Task Controller buffering depth")
    p.add_argument("--restricted", action="store_true", help="original-Nexus limits")
    p.add_argument(
        "--telemetry-window", type=int, default=None,
        help="windowed telemetry sampling period in ns (0/omitted = off); "
        "observe-only — the sampled schedule is cycle-identical to an "
        "unsampled run",
    )
    p.add_argument("--shards", type=int, default=None, help="Maestro shard count")
    p.add_argument("--hop-ns", type=int, default=None, help="shard hop latency (ns)")
    p.add_argument("--masters", type=int, default=None, help="master core count")
    p.add_argument(
        "--batch", type=int, default=None, help="TDs per submission bus transaction"
    )
    p.add_argument(
        "--retire-depth", type=int, default=None,
        help="finishes in flight per shard's retire front-end",
    )
    _add_dispatch_args(p)
    _add_resolve_args(p)
    _add_check_args(p)


def _add_dispatch_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--td-cache", type=int, default=None,
        help="per-shard TD prefetch cache entries (0 = off)",
    )
    p.add_argument(
        "--fast-path", action="store_true",
        help="enable the kick-off fast path (resolving shard dispatches "
        "became-ready waiters to idle local workers)",
    )
    p.add_argument(
        "--prefetch-depth", type=int, default=None,
        help="Dependence-Counter threshold that triggers a TD prefetch",
    )


def _add_resolve_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--coalesce", type=int, default=None,
        help="finish notifications drained per resolve activation "
        "(1 = the paper's one-at-a-time loop)",
    )
    p.add_argument(
        "--coalesce-window", type=int, default=None,
        help="ns the notify intake waits for stragglers before draining "
        "a batch (needs --coalesce > 1)",
    )
    p.add_argument(
        "--spec-kickoff", action="store_true",
        help="speculative kick-off: waiter kicks run in per-shard kick "
        "units, overlapping the next notification's table update",
    )


def _add_check_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--check-scatter", action="store_true",
        help="decentralize the Check Scatter: per-master scatter slices "
        "re-sequenced per destination shard (program order preserved)",
    )
    p.add_argument(
        "--check-coalesce", type=int, default=None,
        help="check probes drained per check-engine activation "
        "(1 = the paper's one-at-a-time Listing 2 loop)",
    )
    p.add_argument(
        "--check-coalesce-window", type=int, default=None,
        help="ns the check intake waits for stragglers before draining "
        "a batch (needs --check-coalesce > 1)",
    )


def _cmd_info(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    print(render_table(["parameter", "value"], cfg.table_iv(), "System configuration"))
    # Completeness listing: every SystemConfig knob with its effective
    # value, so no knob (present or future) can hide from `info` — the
    # Table IV view above stays paper-shaped and only shows the knobs
    # that shape this machine.
    import dataclasses

    rows = [
        [f.name, repr(getattr(cfg, f.name))]
        for f in dataclasses.fields(cfg)
    ]
    print()
    print(render_table(["knob", "value"], rows, "All configuration knobs"))
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    rows = [[name, desc] for name, (_, desc) in sorted(WORKLOADS.items())]
    print(render_table(["name", "description"], rows, "Available workloads"))
    return 0


def _run_with_hotspots(trace: TaskTrace, cfg: SystemConfig, top_n: int):
    """Run under cProfile; returns (result, top-N host hotspot rows).

    The profiler only observes the host interpreter — the modelled
    schedule is identical to an unprofiled run (the clock is event
    counts and virtual time, never wall time).
    """
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = run_trace(trace, cfg)
    finally:
        profiler.disable()
    st = pstats.Stats(profiler)
    st.sort_stats("tottime")
    hotspots = []
    for func in st.fcn_list[:top_n]:
        cc, nc, tt, ct, _callers = st.stats[func]
        filename, line, name = func
        if filename == "~":
            where = name  # builtins print as e.g. "<method 'send' ...>"
        else:
            import os.path

            where = f"{os.path.basename(filename)}:{line}:{name}"
        hotspots.append(
            {
                "function": where,
                "calls": nc,
                "tottime_seconds": round(tt, 4),
                "cumtime_seconds": round(ct, 4),
            }
        )
    return result, hotspots


def _cmd_run(args: argparse.Namespace) -> int:
    trace = build_workload(args.workload, args)
    cfg = _config_from(args)
    print(trace.describe())
    hotspots_n = getattr(args, "profile_hotspots", None)
    if hotspots_n:
        result, hotspots = _run_with_hotspots(trace, cfg, hotspots_n)
        result.stats["sim"]["hotspots"] = hotspots
    else:
        result = run_trace(trace, cfg)
    print(result.summary())
    if getattr(args, "profile", False) or hotspots_n:
        prof = result.stats["sim"]
        print(
            f"kernel profile: {prof['wall_seconds']:.3f}s wall, "
            f"{prof['events_processed']:,} events "
            f"({prof['events_per_sec']:,}/s), "
            f"{prof['tasks_per_sec']:,} tasks/s, "
            f"peak pending {prof['peak_pending_events']:,}"
        )
    if hotspots_n:
        rows = [
            [
                h["function"],
                f"{h['calls']:,}",
                f"{h['tottime_seconds']:.3f}",
                f"{h['cumtime_seconds']:.3f}",
            ]
            for h in result.stats["sim"]["hotspots"]
        ]
        print(
            render_table(
                ["function", "calls", "tottime (s)", "cumtime (s)"],
                rows,
                f"Host hotspots (cProfile, top {hotspots_n} by tottime)",
            )
        )
    if args.verify:
        graph = build_task_graph(trace)
        problems = result.verify_against(graph)
        if problems:
            print("DEPENDENCE VIOLATIONS:")
            for p in problems[:10]:
                print(" ", p)
            return 1
        print(f"dependence check: OK ({graph.n_edges} edges)")
    if args.bottleneck:
        print(analyze_bottleneck(result, cfg).describe())
    dep = result.stats["dep_table"]
    print(
        f"dummy tasks {result.stats['task_pool']['dummy_tasks_created']}, "
        f"dummy entries {dep['dummy_entries_created']}, "
        f"longest kick-off list {dep['max_kickoff_waiters']}"
    )
    shard_info = result.stats.get("shards")
    if shard_info:
        icn = shard_info["interconnect"]
        print(
            f"shards {shard_info['count']}: "
            f"{icn['messages']} interconnect messages "
            f"({icn['cross_shard_messages']} cross-shard, "
            f"mean {icn['mean_hops']:.2f} hops), "
            f"{shard_info['steals']} stolen dispatches"
        )
        retire = shard_info.get("retire")
        if retire and retire["pipeline_depth"] > 1:
            mean = sum(retire["inflight_mean"]) / len(retire["inflight_mean"])
            print(
                f"retire pipeline: depth {retire['pipeline_depth']}, "
                f"mean in-flight {mean:.2f}, "
                f"max {max(retire['inflight_max'])}, "
                f"pipe-full {max(retire['full_fraction']):.0%} (worst shard)"
            )
    dispatch = result.stats.get("dispatch", {})
    sub = dispatch.get("fast_dispatch")
    if sub:
        cache = sub.get("td_cache")
        bits = []
        if cache:
            bits.append(
                f"TD cache {cache['hits']}/{cache['hits'] + cache['misses']} hits "
                f"({cache['hit_rate']:.0%}), {cache['evictions']} evicted, "
                f"{cache['invalidations']} invalidated at retire"
            )
        if sub["fast_path"]:
            bits.append(
                f"{sub['fast_dispatches']} fast dispatches "
                f"({sub['fast_dispatches_remote']} skipped the home-shard hop)"
            )
        hop = dispatch.get("chain_hop_ns", {})
        print(
            f"fast dispatch: {'; '.join(bits)}; critical chain "
            f"{dispatch.get('chain_depth', 0)} hops x "
            f"{hop.get('total', 0.0):.0f} ns "
            f"(resolve {hop.get('resolve', 0.0):.0f} / forward "
            f"{hop.get('forward', 0.0):.0f} / TD {hop.get('td_transfer', 0.0):.0f} "
            f"/ start {hop.get('start', 0.0):.0f})"
        )
    resolve = result.stats.get("resolve", {})
    if resolve.get("coalesce_limit", 1) > 1 or resolve.get("speculative_kickoff"):
        bits = []
        if resolve["coalesce_limit"] > 1:
            bits.append(
                f"coalesce {resolve['coalesce_limit']}: mean batch "
                f"{resolve['mean_batch']:.2f}, {resolve['row_merges']} row "
                f"merges ({resolve['coalesce_rate']:.0%})"
            )
        if resolve["speculative_kickoff"]:
            bits.append(f"{resolve['speculative_kicks']} speculative kicks")
        print(
            f"resolve pipeline: {'; '.join(bits)}; "
            f"{resolve['batches']} batches / {resolve['updates']} table updates"
        )
    check = result.stats.get("check", {})
    if check.get("decentralized_scatter") or check.get("coalesce_limit", 1) > 1:
        bits = []
        if check["decentralized_scatter"]:
            held = check.get("reseq_max_held") or [0]
            bits.append(
                f"decentralized scatter: max {max(held)} held per "
                f"re-sequencer"
            )
        if check["coalesce_limit"] > 1:
            bits.append(
                f"coalesce {check['coalesce_limit']}: mean batch "
                f"{check['mean_batch']:.2f}, {check['row_merges']} row "
                f"merges ({check['coalesce_rate']:.0%})"
            )
        print(
            f"check pipeline: {'; '.join(bits)}; "
            f"{check['batches']} batches / {check['probes']} probes"
        )
    frontend = result.stats.get("frontend")
    if frontend:
        print(
            f"front-end: {frontend['master_cores']} masters x batch "
            f"{frontend['submission_batch']}, {frontend['merged']} descriptors "
            f"merged in program order, "
            f"stall {result.stats['master_stall_ps'] / 1e6:.3g} us total"
        )
    telemetry = result.telemetry
    if telemetry and telemetry.get("times_ps"):
        from .machine import bottleneck_timeline

        print(
            f"telemetry: {len(telemetry['times_ps'])} windows x "
            f"{telemetry['window_ps'] / 1e6:.4g} us, "
            f"{len(telemetry['signals'])} signals"
        )
        timeline = bottleneck_timeline(result, cfg)
        if timeline is not None:
            print(f"bottleneck timeline: {timeline.strip()}")
    if getattr(args, "metrics_out", None):
        from .analysis import write_metrics

        write_metrics(result, args.metrics_out)
        print(
            f"metrics written to {args.metrics_out}; pretty-print or diff "
            "against a baseline with `python -m repro report`"
        )
    if getattr(args, "trace_out", None):
        from .analysis import write_chrome_trace

        info = write_chrome_trace(result, args.trace_out)
        print(
            f"chrome trace written to {info['path']} ({info['n_events']} "
            f"events, {info['n_dependence_flows']} dependence flows); "
            "load it in chrome://tracing or https://ui.perfetto.dev"
        )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.efficiency:
        if args.axis:
            raise SystemExit(
                "--efficiency and --axis select different sweep grids; "
                "pick one (run the sweep twice for both curves)"
            )
        # Builds its own trace per swept spin time; no shared trace.
        return _efficiency_sweep(args)
    trace = build_workload(args.workload, args)
    if args.axis:
        return _grid_sweep(trace, args)
    # The 1-worker point leads the grid, so speedups are vs 1 worker.
    cores = [1] + [c for c in _int_values("cores", args.cores) if c != 1]
    rep = grid_sweep(trace, _config_from(args), {"workers": cores})
    curve = list(zip(cores, rep.speedups))
    rows = [[c, round(s, 2), f"{s / c:.2f}"] for c, s in curve]
    print(render_table(["cores", "speedup", "efficiency"], rows, trace.name))
    print(f"saturation point: ~{saturation_point(cores, rep.speedups)} cores")
    if getattr(args, "profile", False):
        _print_profile_summary(rep.runs)
    if args.json:
        rows = [{"cores": c, "speedup": round(s, 4)} for c, s in curve]
        if getattr(args, "profile", False):
            for row, run in zip(rows, rep.runs):
                row["sim"] = run.stats.get("sim")
        _write_json(args.json, {"trace": trace.name, "rows": rows})
    return 0


def _int_values(flag: str, value) -> list[int]:
    """Parse a --flag value that may be a comma list of positive integers;
    malformed input is a usage error, not a traceback."""
    try:
        out = [int(v) for v in str(value).split(",")]
    except ValueError:
        raise SystemExit(
            f"--{flag} expects an integer or comma list of integers; "
            f"got {value!r}"
        ) from None
    if any(v < 1 for v in out):
        raise SystemExit(f"--{flag} values must be positive; got {value!r}")
    return out


def _write_json(path: str, payload: dict) -> None:
    import json

    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"report written to {path}")


def _print_profile_summary(runs) -> None:
    """Compact host-kernel cost line for a sweep: total wall and events."""
    profs = [r.stats.get("sim") for r in runs if r.stats.get("sim")]
    if not profs:
        return
    wall = sum(p["wall_seconds"] for p in profs)
    events = sum(p["events_processed"] for p in profs)
    rate = f" ({int(events / wall):,}/s)" if wall > 0 else ""
    print(
        f"kernel profile: {len(profs)} runs, "
        f"{wall:.3f}s wall, {events:,} events{rate}"
    )


def _sweep_report_out(args: argparse.Namespace, report) -> None:
    """Shared sweep tail: optional --profile summary, optional --json dump."""
    profile = getattr(args, "profile", False)
    if profile:
        _print_profile_summary(report.runs)
    if args.json:
        _write_json(args.json, report.to_json_dict(profile=profile))


def _efficiency_sweep(args: argparse.Namespace) -> int:
    """Efficiency-vs-granularity curve: HW Maestro against the SW RTS."""
    if args.workload != "wait-chain":
        raise SystemExit(
            "--efficiency sweeps task granularity on the wait-chain probe; "
            "use `sweep wait-chain --efficiency` (--rows/--cols/--deps set "
            "the graph shape, --spin-ns the swept spin times)"
        )
    spins = _int_values("spin-ns", args.spin_ns or "250,1000,4000,16000,64000")
    cfg = _config_from(args)
    report = efficiency_sweep(
        spins,
        cfg,
        rows=args.rows or 32,
        cols=args.cols or 40,
        k_deps=args.deps or 1,
        seed=args.seed if args.seed is not None else 11,
    )
    rows = [
        [
            r["spin_ns"],
            f"{r['hw_makespan_ps'] / 1e9:.4g}",
            f"{r['sw_makespan_ps'] / 1e9:.4g}",
            f"{r['hw_efficiency']:.1%}",
            f"{r['sw_efficiency']:.1%}",
            round(r["efficiency_ratio"], 2),
            f"{r['hw_overhead_ns_per_task']:.0f}",
            f"{r['sw_overhead_ns_per_task']:.0f}",
        ]
        for r in report.rows()
    ]
    print(
        render_table(
            [
                "spin (ns)",
                "hw makespan (ms)",
                "sw makespan (ms)",
                "hw eff",
                "sw eff",
                "hw/sw",
                "hw ovh ns/task",
                "sw ovh ns/task",
            ],
            rows,
            f"{report.trace_name} @ {cfg.workers} workers",
        )
    )
    print()
    print(report.plot())
    _sweep_report_out(args, report)
    return 0


def _axis_value(knob: str, kind: Any, text: str) -> Any:
    """One ``--axis`` value, parsed by the knob's SystemConfig field type:
    on/off/true/false for a bool, none for an Optional knob."""
    word = text.strip().lower()
    options = typing.get_args(kind)
    if type(None) in options:  # Optional[X]
        if word == "none":
            return None
        kind = next(t for t in options if t is not type(None))
    if kind is bool:
        if word in ("on", "true", "off", "false"):
            return word in ("on", "true")
    elif kind in (int, float, str):
        try:
            return kind(text)
        except ValueError:
            pass
    raise SystemExit(
        f"--axis {knob}: cannot read {text!r} as {getattr(kind, '__name__', kind)} "
        "(bools take on/off/true/false, optional knobs none)"
    )


def _parse_axes(specs: List[str]) -> Dict[str, List[Any]]:
    """``--axis KNOB=v1,v2`` flags -> ``{knob: values}`` in flag order."""
    types = typing.get_type_hints(SystemConfig)
    axes: Dict[str, List[Any]] = {}
    for spec in specs:
        knob, _, values = spec.partition("=")
        if knob not in types:
            raise SystemExit(f"--axis {spec!r}: unknown SystemConfig knob {knob!r}")
        if knob in axes:
            raise SystemExit(f"--axis {knob} is given twice")
        if not values:
            raise SystemExit(f"--axis {spec!r}: expected {knob}=v1,v2,...")
        axes[knob] = [_axis_value(knob, types[knob], v) for v in values.split(",")]
    return axes


def _grid_sweep(trace: TaskTrace, args: argparse.Namespace) -> int:
    """Grid over the ``--axis`` knobs; speedups vs the first grid point."""
    axes = _parse_axes(args.axis)
    # Apply the first point to the base so knobs that only some machines
    # accept (e.g. --retire-depth with a swept shard count) validate.
    base = _config_from(args, **{k: v[0] for k, v in axes.items()})
    try:
        # grid_sweep builds and validates every point before the first
        # run, so an invalid later point is a usage error too.
        report = grid_sweep(trace, base, axes)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None

    def show(value: Any) -> str:
        if isinstance(value, bool):
            return "on" if value else "off"
        return "none" if value is None else str(value)

    rows = [
        [
            *(show(r[k]) for k in axes),
            f"{r['makespan_ps'] / 1e9:.4g}",
            round(r["speedup_vs_baseline"], 2),
            r["busiest_maestro_block"],
            (
                f"{r['busiest_block_utilization']:.0%}"
                if r["busiest_block_utilization"] is not None
                else "-"
            ),
        ]
        for r in report.rows()
    ]
    baseline = ", ".join(f"{k}={show(v)}" for k, v in report.points[0].items())
    print(
        render_table(
            [*axes, "makespan (ms)", "speedup", "busiest block", "utilization"],
            rows,
            f"{trace.name} @ {base.workers} workers, speedup vs {baseline}",
        )
    )
    _sweep_report_out(args, report)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Pretty-print one metrics JSON document, or diff two of them."""
    import json

    from .analysis import diff_metrics, render_metrics, validate_metrics

    docs = []
    for path in [args.metrics] + ([args.baseline] if args.baseline else []):
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise SystemExit(f"{path}: cannot read metrics JSON: {exc}") from None
        problems = validate_metrics(doc)
        if problems:
            print(f"{path}: invalid metrics document:")
            for p in problems:
                print(f"  {p}")
            return 1
        docs.append(doc)
    if len(docs) == 1:
        print(render_metrics(docs[0]))
    else:
        print(diff_metrics(docs[0], docs[1]))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .traces.validate import lint_trace

    trace = TaskTrace.load(args.path)
    print(trace.describe())
    graph = build_task_graph(trace)
    print(
        f"edges {graph.n_edges}, roots {len(graph.roots())}, "
        f"critical path {graph.critical_path() / 1e6:.3g} us, "
        f"max parallelism {graph.max_parallelism()}"
    )
    report = lint_trace(trace)
    print(report.summary())
    for err in report.errors:
        print(f"  error: {err}")
    for warn in report.warnings:
        print(f"  warning: {warn}")
    return 0 if report.ok else 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Nexus++ reproduction: simulate StarSs workloads on a "
        "hardware task manager",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="print the Table IV configuration")
    _add_machine_args(p_info)
    p_info.set_defaults(func=_cmd_info)

    p_wl = sub.add_parser("workloads", help="list workload generators")
    p_wl.set_defaults(func=_cmd_workloads)

    p_run = sub.add_parser("run", help="simulate one workload")
    _add_workload_args(p_run)
    _add_machine_args(p_run)
    p_run.add_argument("--verify", action="store_true", help="check schedule legality")
    p_run.add_argument("--bottleneck", action="store_true", help="attribute the bottleneck")
    p_run.add_argument(
        "--profile", action="store_true",
        help="report host-side kernel performance (wall-clock, events "
        "processed, events/sec, tasks/sec, peak pending events)",
    )
    p_run.add_argument(
        "--profile-hotspots", type=int, nargs="?", const=10, default=None,
        metavar="N",
        help="run under cProfile and print the top N host functions by "
        "total time (default 10); also attached to stats['sim']"
        "['hotspots'] in --metrics-out documents. Observe-only — the "
        "modelled schedule is unchanged",
    )
    p_run.add_argument(
        "--trace-out", default=None,
        help="write the run as Chrome trace-event JSON (open in "
        "chrome://tracing or Perfetto) — observe-only, never perturbs "
        "the schedule",
    )
    p_run.add_argument(
        "--metrics-out", default=None,
        help="write a versioned metrics JSON document (schema_version "
        "1); inspect or diff with `python -m repro report`",
    )
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser(
        "sweep", help="speedup curve over core counts (or a grid over any knobs)"
    )
    _add_workload_args(p_sweep)
    _add_machine_args(p_sweep)
    p_sweep.add_argument("--cores", default="1,2,4,8,16", help="comma-separated core counts")
    p_sweep.add_argument(
        "--axis", action="append", default=[], metavar="KNOB=V1,V2",
        help="sweep a SystemConfig knob over the listed values, in the "
        "knob's own units (times in ps; on/off for bools, none for "
        "optional knobs); repeat for a grid, first axis outermost. "
        "Replaces the core curve; speedups are vs the first grid point",
    )
    p_sweep.add_argument(
        "--efficiency",
        action="store_true",
        help="sweep task granularity on the wait-chain probe: parallel "
        "efficiency of the HW Maestro vs the software-RTS baseline at "
        "each --spin-ns value (workload must be wait-chain)",
    )
    p_sweep.add_argument(
        "--profile", action="store_true",
        help="print aggregate host-kernel cost and attach each grid "
        "point's kernel profile (stats['sim']) to the --json report",
    )
    p_sweep.add_argument("--json", default=None, help="write the sweep report to a JSON file")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_report = sub.add_parser(
        "report",
        help="pretty-print a --metrics-out JSON document, or diff two "
        "(schema-validated; exits 1 on an invalid document)",
    )
    p_report.add_argument("metrics", help="metrics JSON from `run --metrics-out`")
    p_report.add_argument(
        "baseline", nargs="?", default=None,
        help="optional baseline metrics JSON to diff against",
    )
    p_report.set_defaults(func=_cmd_report)

    p_val = sub.add_parser("validate", help="inspect a saved .npz trace")
    p_val.add_argument("path")
    p_val.set_defaults(func=_cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        # A workload that does not fit a fixed structure (restricted-mode
        # spills, a Dependence Table slice smaller than one task's
        # addresses) is a usage error, like a config contradiction.
        raise SystemExit(str(exc)) from None


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
