"""Command-line interface: ``python -m repro``.

Commands
--------
``info``     print the machine configuration (the paper's Table IV)
``run``      simulate one workload on one machine and report the results
``sweep``    speedup-vs-cores curve for a workload (Fig. 7/8 style); with
             ``--axis KNOB=v1,v2`` (repeatable) a grid over any
             SystemConfig knobs instead (shard, submission, retire,
             dispatch, resolve and check curves alike)
``reproduce``run one pinned experiment, a ``repro.experiments.CURVES``
             row: write its ``BENCH_<name>.json`` into the current
             directory, print its table and check its shape
``workloads``list the workloads, each with its parameters and defaults
``validate`` check a saved trace file for well-formedness and graph stats
``report``   pretty-print a ``run --metrics-out`` JSON document, or diff
             two of them (makespan, worker utilization, per-signal
             mean/max deltas; exits 1 if they differ outside ``host``)

Workloads
---------
``run`` and ``sweep`` build one trace: the named workload of
:data:`repro.traces.CATALOGUE` with every repeatable ``--param NAME=VALUE``
over its defaults, read by the generator's parameter types like ``--set``
(on/off for bools, none for optional parameters).  ``workloads`` lists
each workload's parameters.

Machines
--------
``info``, ``run`` and ``sweep`` build one :class:`~repro.config.SystemConfig`:
the ``--stack NAME`` base (a :data:`repro.config.LADDER` machine; the
paper's Table IV without it), then ``--workers N`` and every repeatable
``--set KNOB=VALUE``.  ``--set`` reaches every knob in its own units (times
in ps; on/off for bools, none for optional knobs), and ``info`` lists them
all.  ``sweep --axis KNOB=v1,v2`` varies a knob the same way.

Examples (README.md lists every pinned experiment)::

    python -m repro info --stack full --workers 8
    python -m repro workloads
    python -m repro run gaussian --param n=100 --workers 8 --bottleneck
    python -m repro run independent --workers 256 --stack no-prep --bottleneck
    python -m repro run hazard-dense --stack resolve --verify
    python -m repro sweep independent --cores 1,4,16,64
    python -m repro sweep hazard-dense --stack fitted --set task_prep_time=0 \
        --axis maestro_shards=1,2,4
    python -m repro sweep hazard-dense --stack retire \
        --axis kickoff_fast_path=off,on --axis td_cache_entries=0,64 \
        --json dispatch.json
    python -m repro reproduce efficiency
    python -m repro run wait-chain --param rows=8 --param cols=32 \
        --set telemetry_window=50000000 \
        --metrics-out run.metrics.json --trace-out run.trace.json
    python -m repro report run.metrics.json baseline.metrics.json
"""

from __future__ import annotations

import argparse
import sys
import typing
from typing import Any, Dict, List, Mapping, Optional

from .analysis import render_table
from .analysis.telemetry import METRICS_SCHEMA_VERSION
from .config import LADDER, SystemConfig
from .hw.errors import CapacityError
from .machine import analyze_bottleneck, grid_sweep, run_trace, saturation_point
from .runtime.task_graph import build_task_graph
from .traces import CATALOGUE, TaskTrace, workload

__all__ = ["main", "build_parser"]

#: Every knob ``--set`` and ``--axis`` read, by its SystemConfig field type.
_KNOBS = typing.get_type_hints(SystemConfig)


def _workload_params(args: argparse.Namespace) -> Dict[str, Any]:
    """The ``--param`` values, read by the workload generator's types."""
    types = {p: kind for p, (kind, _) in CATALOGUE[args.workload].parameters().items()}
    return _parse_knobs("param", args.param, types, f"{args.workload} parameter")


def _trace_from(args: argparse.Namespace) -> TaskTrace:
    """The trace the positional workload and its ``--param`` values name."""
    try:
        return workload(args.workload, **_workload_params(args))
    except ValueError as exc:
        # A generator's own check (e.g. a non-positive size) reads as a
        # usage error, like a config contradiction.
        raise SystemExit(str(exc)) from None


def _base_machine(name: Optional[str]) -> SystemConfig:
    """The ``--stack`` rung, or the paper's Table IV machine without one."""
    if name is None:
        return SystemConfig()
    try:
        return LADDER[name]
    except KeyError:
        raise SystemExit(
            f"--stack {name!r}: unknown machine; try: {', '.join(LADDER)}"
        ) from None


def _config_from(args: argparse.Namespace, **point: Any) -> SystemConfig:
    """The machine the flags describe: the ``--stack`` base, then
    ``--workers`` and the ``--set`` knobs, then ``point``'s knob values (a
    sweep grid point)."""
    base = _base_machine(args.stack)
    knobs = _parse_knobs("set", args.set, _KNOBS, "SystemConfig knob")
    if args.workers is not None:
        if "workers" in knobs:
            raise SystemExit("workers is given twice: --workers and --set workers")
        knobs["workers"] = args.workers
    for knob in point:
        if knob in knobs:
            raise SystemExit(
                f"{knob} is given twice: fix it (--set/--workers) or sweep "
                "it (--axis), not both"
            )
    try:
        return base.with_(**knobs, **point)
    except ValueError as exc:
        # Configuration contradictions (e.g. retire_pipeline_depth=4 on
        # the single Maestro) read as usage errors, not tracebacks.
        raise SystemExit(str(exc)) from None


def _add_machine_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--workers", type=int, default=None,
        help="worker cores (default: the base machine's, 16)",
    )
    p.add_argument(
        "--stack", default=None, metavar="NAME",
        help="base machine: a repro.config.LADDER machine "
        f"({', '.join(LADDER)}); default the paper's Table IV",
    )
    p.add_argument(
        "--set", action="append", default=[], metavar="KNOB=VALUE",
        help="set a SystemConfig knob on the base machine, in the knob's "
        "own units (times in ps; on/off for bools, none for optional "
        "knobs); repeatable. `info` lists every knob",
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
    print("Workloads, each with its parameters (set one with --param NAME=VALUE):")
    for name, entry in CATALOGUE.items():
        params = entry.parameters().items()
        print(f"\n{name:<14}{entry.description}")
        print(" " * 14 + " ".join(f"{p}={_show(v)}" for p, (_, v) in params))
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


def _per_second(count: int, wall_seconds: float) -> int:
    """A host rate from a count and the wall time it took (0 if untimed)."""
    return round(count / wall_seconds) if wall_seconds > 0 else 0


def _cmd_run(args: argparse.Namespace) -> int:
    trace = _trace_from(args)
    cfg = _config_from(args)
    print(trace.describe())
    hotspots_n = getattr(args, "profile_hotspots", None)
    if hotspots_n:
        result, hotspots = _run_with_hotspots(trace, cfg, hotspots_n)
        result.host["hotspots"] = hotspots
    else:
        result = run_trace(trace, cfg)
    print(result.summary())
    if getattr(args, "profile", False) or hotspots_n:
        prof = result.stats["sim"]
        wall = result.host["wall_seconds"]
        print(
            f"kernel profile: {wall:.3f}s wall, "
            f"{prof['events_processed']:,} events "
            f"({_per_second(prof['events_processed'], wall):,}/s), "
            f"{_per_second(len(trace), wall):,} tasks/s, "
            f"peak pending {prof['peak_pending_events']:,}"
        )
        top = list(prof["events_by_block"].items())[:6]
        print("events per task, top blocks: " + ", ".join(
            f"{block} {count / len(trace):.1f}" for block, count in top))
    if hotspots_n:
        rows = [
            [
                h["function"],
                f"{h['calls']:,}",
                f"{h['tottime_seconds']:.3f}",
                f"{h['cumtime_seconds']:.3f}",
            ]
            for h in result.host["hotspots"]
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
        print(analyze_bottleneck(result).describe())
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
            f"shards {cfg.maestro_shards}: "
            f"{icn['messages']} interconnect messages "
            f"({icn['cross_shard_messages']} cross-shard, "
            f"mean {icn['mean_hops']:.2f} hops), "
            f"{shard_info['steals']} stolen dispatches"
        )
        retire = shard_info["retire"]
        if cfg.retire_pipeline_depth > 1:
            mean = sum(retire["inflight_mean"]) / len(retire["inflight_mean"])
            print(
                f"retire pipeline: depth {cfg.retire_pipeline_depth}, "
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
        if cfg.kickoff_fast_path:
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
    if cfg.use_resolve_pipeline:
        resolve = result.stats["resolve"]
        bits = []
        if cfg.finish_coalesce_limit > 1:
            bits.append(
                f"coalesce {cfg.finish_coalesce_limit}: mean batch "
                f"{resolve['mean_batch']:.2f}, {resolve['row_merges']} row "
                f"merges ({resolve['coalesce_rate']:.0%})"
            )
        if cfg.speculative_kickoff:
            bits.append(f"{resolve['speculative_kicks']} speculative kicks")
        print(
            f"resolve pipeline: {'; '.join(bits)}; "
            f"{resolve['batches']} batches / {resolve['updates']} table updates"
        )
    if cfg.use_check_pipeline:
        check = result.stats["check"]
        bits = []
        if cfg.decentralized_check_scatter:
            held = check.get("reseq_max_held") or [0]
            bits.append(
                f"decentralized scatter: max {max(held)} held per "
                f"re-sequencer"
            )
        if cfg.check_coalesce_limit > 1:
            bits.append(
                f"coalesce {cfg.check_coalesce_limit}: mean batch "
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
            f"front-end: {cfg.master_cores} masters x batch "
            f"{cfg.submission_batch}, {frontend['merged']} descriptors "
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
        timeline = bottleneck_timeline(result)
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
    trace = _trace_from(args)
    if args.axis:
        return _grid_sweep(trace, args)
    # The 1-worker point leads the grid, so speedups are vs 1 worker.
    cores = [1] + [c for c in _int_values("cores", args.cores) if c != 1]
    rep = grid_sweep(trace, _config_from(args), {"workers": cores})
    curve = list(zip(cores, rep.speedups))
    rows = [[c, round(s, 2), f"{s / c:.2f}"] for c, s in curve]
    print(render_table(["cores", "speedup", "efficiency"], rows, trace.name))
    print(f"saturation point: ~{saturation_point(cores, rep.speedups)} cores")
    if args.profile:
        _print_profile_summary(rep.runs)
    if args.json:
        rows = [{"cores": c, "speedup": round(s, 4)} for c, s in curve]
        if args.profile:
            for row, run in zip(rows, rep.runs):
                row["sim"] = run.stats["sim"]
                row["host"] = run.host
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
    wall = sum(r.host["wall_seconds"] for r in runs)
    events = sum(r.stats["sim"]["events_processed"] for r in runs)
    rate = f" ({int(events / wall):,}/s)" if wall > 0 else ""
    print(
        f"kernel profile: {len(runs)} runs, "
        f"{wall:.3f}s wall, {events:,} events{rate}"
    )


def _knob_value(flag: str, knob: str, kind: Any, text: str) -> Any:
    """One ``--set``/``--axis``/``--param`` value, parsed by its type:
    on/off/true/false for a bool, none for an Optional one."""
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
        f"--{flag} {knob}: cannot read {text!r} as "
        f"{getattr(kind, '__name__', kind)} (bools take on/off/true/false, "
        "optional values none)"
    )


def _parse_knobs(
    flag: str, specs: List[str], types: Mapping[str, Any], what: str,
    many: bool = False,
) -> Dict[str, Any]:
    """``--flag NAME=VALUE`` flags -> ``{name: value}``, or with ``many``
    ``--axis NAME=v1,v2`` flags -> ``{name: [values]}``, in flag order;
    each value is read by ``types[name]``, and ``what`` names a name."""
    knobs: Dict[str, Any] = {}
    for spec in specs:
        knob, _, text = spec.partition("=")
        if knob not in types:
            raise SystemExit(f"--{flag} {spec!r}: unknown {what} {knob!r}")
        if knob in knobs:
            raise SystemExit(f"--{flag} {knob} is given twice")
        if not text:
            raise SystemExit(
                f"--{flag} {spec!r}: expected {knob}={'v1,v2,...' if many else 'VALUE'}"
            )
        values = [
            _knob_value(flag, knob, types[knob], v)
            for v in (text.split(",") if many else [text])
        ]
        knobs[knob] = values if many else values[0]
    return knobs


def _show(value: Any) -> str:
    """A knob or parameter value as ``--set``/``--param`` read it."""
    if isinstance(value, bool):
        return "on" if value else "off"
    return "none" if value is None else str(value)


def _grid_sweep(trace: TaskTrace, args: argparse.Namespace) -> int:
    """Grid over the ``--axis`` knobs; speedups vs the first grid point."""
    axes = _parse_knobs("axis", args.axis, _KNOBS, "SystemConfig knob", many=True)
    # Apply the first point to the base so knobs that only some machines
    # accept (e.g. a fixed retire_pipeline_depth with a swept shard count)
    # validate.
    base = _config_from(args, **{k: v[0] for k, v in axes.items()})
    try:
        # grid_sweep builds and validates every point before the first
        # run, so an invalid later point is a usage error too.
        report = grid_sweep(trace, base, axes)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None

    rows = [
        [
            *(_show(r[k]) for k in axes),
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
    baseline = ", ".join(f"{k}={_show(v)}" for k, v in report.points[0].items())
    print(
        render_table(
            [*axes, "makespan (ms)", "speedup", "busiest block", "utilization"],
            rows,
            f"{trace.name} @ {base.workers} workers, speedup vs {baseline}",
        )
    )
    if args.profile:
        _print_profile_summary(report.runs)
    if args.json:
        _write_json(args.json, report.to_json_dict(profile=args.profile))
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    """Run one pinned experiment; write its document and check its shape."""
    import linecache
    import traceback

    from .experiments import CURVES

    curves = {c.name: c for c in CURVES}
    if args.name not in curves:
        raise SystemExit(
            f"reproduce {args.name!r}: unknown experiment; try: {', '.join(curves)}"
        )
    curve = curves[args.name]
    rep = curve.sweep()
    curve.write(rep, ".")
    print(curve.render(rep))
    try:
        curve.check_shape(rep)
    except AssertionError as exc:
        # The failed assert's source, read over all of its lines.
        where = traceback.extract_tb(exc.__traceback__)[-1]
        source = " ".join(
            linecache.getline(where.filename, n).strip()
            for n in range(where.lineno, (where.end_lineno or where.lineno) + 1)
        )
        detail = f" ({exc})" if str(exc) else ""
        raise SystemExit(
            f"{curve.name}: shape check failed in {where.name}: {source}{detail}"
        ) from None
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
        return 0
    print(diff_metrics(docs[0], docs[1]))
    # Two runs of one command write equal documents outside ``host``, the
    # simulator's wall time; any other difference is a modelled one.
    a, b = docs
    keys = sorted((a.keys() | b.keys()) - {"host"})
    differ = [k for k in keys if a.get(k) != b.get(k)]
    if differ:
        print(f"modelled difference (outside host) in: {', '.join(differ)}")
    return 1 if differ else 0


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


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser; each command's namespace carries its
    handler as ``func``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Nexus++ reproduction: simulate StarSs workloads on a "
        "hardware task manager",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="print the Table IV configuration")
    _add_machine_args(p_info)
    p_info.set_defaults(func=_cmd_info)

    p_wl = sub.add_parser(
        "workloads", help="list the workloads with their parameters"
    )
    p_wl.set_defaults(func=_cmd_workloads)

    p_run = sub.add_parser("run", help="simulate one workload")
    p_sweep = sub.add_parser(
        "sweep", help="speedup curve over core counts (or a grid over any knobs)"
    )
    for p in (p_run, p_sweep):
        p.add_argument("workload", choices=list(CATALOGUE), help="workload name")
        p.add_argument(
            "--param", action="append", default=[], metavar="NAME=VALUE",
            help="set a parameter of the workload's generator (on/off for "
            "bools, none for optional ones); repeatable. `workloads` lists "
            "each workload's parameters and defaults",
        )
        _add_machine_args(p)
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
        "total time (default 10); also attached to host['hotspots'] in "
        "--metrics-out documents. Observe-only — the modelled schedule "
        "is unchanged",
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
        f"{METRICS_SCHEMA_VERSION}); inspect or diff with `python -m repro "
        "report`",
    )
    p_run.set_defaults(func=_cmd_run)

    p_sweep.add_argument("--cores", default="1,2,4,8,16", help="comma-separated core counts")
    p_sweep.add_argument(
        "--axis", action="append", default=[], metavar="KNOB=V1,V2",
        help="sweep a SystemConfig knob over the listed values, in the "
        "knob's own units (times in ps; on/off for bools, none for "
        "optional knobs); repeat for a grid, first axis outermost. "
        "Replaces the core curve; speedups are vs the first grid point",
    )
    p_sweep.add_argument(
        "--profile", action="store_true",
        help="print aggregate host-kernel cost and attach each grid "
        "point's kernel counts (stats['sim']) and wall time (host) to the "
        "--json report",
    )
    p_sweep.add_argument("--json", default=None, help="write the sweep report to a JSON file")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_reproduce = sub.add_parser(
        "reproduce",
        help="run one pinned experiment: write its BENCH_<name>.json here, "
        "print its table, check its shape (exits 1 if it fails)",
    )
    p_reproduce.add_argument(
        "name", help="a repro.experiments.CURVES row, e.g. fig7_patterns"
    )
    p_reproduce.set_defaults(func=_cmd_reproduce)

    p_report = sub.add_parser(
        "report",
        help="pretty-print a --metrics-out JSON document, or diff two "
        "(schema-validated; exits 1 on an invalid document, or when the "
        "two differ outside host)",
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
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        # A workload that does not fit a fixed structure (restricted-mode
        # spills, a Dependence Table slice smaller than one task's
        # addresses) is a usage error, like a config contradiction.
        raise SystemExit(str(exc)) from None


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
