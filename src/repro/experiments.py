"""The pinned experiments: one :data:`CURVES` row per ``BENCH_*.json``.

Each row runs its sweep, builds its document and its table, and asserts
the shape the experiment must have.  The sweeps are deterministic, so
the committed documents pin every modelled number::

    PYTHONPATH=src python -m repro reproduce fig7_patterns  # one row, into .
    PYTHONPATH=src python -m pytest -q benchmarks/bench_curves.py  # every row

The paper's rows come first: Fig. 6 (Task Pool and Dependence Table
sizing), Fig. 7 (four dependency patterns), Fig. 8 (Gaussian
elimination), the headline independent-task speedups, and the buffering,
renaming, software-RTS and extension-workload ablations.  A
speedup-vs-cores sweep is a ``workers`` axis with 1 first, so every
speedup is over the 1-worker run, the paper's baseline.  A row that
sweeps several traces or machines returns a :class:`Series`.  Where the
paper prints a number, the row lists it in ``paper``.

The six grid curves after them climb ``repro.config.LADDER``, each one
``grid_sweep(trace, base, axes)`` call from a rung, the machine the
previous curve left bottlenecked, over the knobs of the rung above it:
Maestro shards, then parallel masters and submission batching, the
retire pipeline, fast dispatch, the staged resolve and, on the
param-dense workload, the decentralized check.  The efficiency curve
runs one wait-chain per spin time on the HW Maestro and under the
software RTS as tasks shrink.  :func:`run` is the one switch between the
two runtimes, and it runs each distinct (trace, runtime, config) triple
once per process, so Fig. 7's runs also serve the headline, buffering
and software-RTS rows.

The default tier drops these points; ``REPRO_FULL=1`` in the
environment (read here, as :data:`FULL`) runs them, under the same
predicates:

* Fig. 6: 128 workers, not the paper's 256; Dependence Table sizes 512
  and 1024; Task Pool sizes 256, 1024, 2048 and 4096;
* Fig. 7: 8, 16 and 128 cores;
* Fig. 8: 2, 16 and 32 cores, and the n=500 matrix;
* headline: contention-free runs on 128 workers, not 256 (so the paper's
  143x and 221x are compared only at the full tier);
* software RTS: 8 cores;
* scaling curves: a 1,200-task trace, not 3,000; 8 shards and 8 masters;
  retire depth 16; spin times of 100 and 256,000 ns.
"""
import json
import math
import os
from dataclasses import dataclass
from functools import cache, partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Tuple

from .analysis import (
    PaperComparison,
    compare,
    plot_series,
    plot_speedup_curves,
    render_table,
)
from .config import LADDER, SystemConfig
from .machine import (
    GridReport,
    NexusMachine,
    RunResult,
    analyze_bottleneck,
    grid_sweep,
)
from .runtime import run_software_rts
from .runtime.renaming import count_false_dependencies, rename_trace
from .runtime.task_graph import build_task_graph
from .traces import TaskTrace, gaussian_task_count, workload

__all__ = [
    "CURVES", "Curve", "Efficiency", "FULL", "Series", "TRACES", "graph", "run",
    "spin_key", "sweep", "trace",
]

#: The tier: ``REPRO_FULL=1`` adds the paper's full-size points.
FULL = bool(int(os.environ.get("REPRO_FULL", "0")))

#: The scaling curves' traces: the catalogue's 1,200 tasks, 3,000 at the
#: full tier.
SCALE = {"n_tasks": 3000} if FULL else {}
WORKERS = LADDER["fitted"].workers

#: The paper's 256-core machine for Fig. 6 and the contention-free
#: headline runs.
MANY_CORES = 256 if FULL else 128
DT_SIZES = [256, 512, 1024, 2048, 4096, 8192] if FULL else [256, 2048, 4096, 8192]
TP_SIZES = [128, 256, 512, 1024, 2048, 4096, 8192] if FULL else [128, 512, 8192]
FIG7_CORES = [1, 4, 8, 16, 32, 64, 128] if FULL else [1, 4, 32, 64]
FIG8_CORES = [1, 2, 4, 8, 16, 32, 64] if FULL else [1, 4, 8, 64]
FIG8_SIZES = [100, 250, 500] if FULL else [100, 250]
PREP = SystemConfig().task_prep_time
BUFFER_DEPTHS = [1, 2, 4]
SW_CORES = [1, 4, 8, 16, 32, 64] if FULL else [1, 4, 16, 32, 64]

SHARDS = [1, 2, 4, 8] if FULL else [1, 2, 4]
MASTERS = [1, 2, 4, 8] if FULL else [1, 2, 4]
BATCHES = [1, 4, 8]
DEPTHS = [1, 2, 4, 8, 16] if FULL else [1, 2, 4, 8]
SPINS_NS = [250, 1000, 4000, 16000, 64000]
if FULL:
    SPINS_NS = [100] + SPINS_NS + [256000]

#: The efficiency curve's wait-chains: 32 chains of 40 tasks, one
#: dependence per task on the previous column; only the spin time changes.
CHAIN = {"rows": 32, "cols": 40, "k_deps": 1}


def spin_key(spin_ns: int) -> str:
    """The :data:`TRACES` key of the :data:`CHAIN` wait-chain of
    ``spin_ns`` tasks."""
    return f"wait-chain {spin_ns}ns"


PIPELINE = "pipeline 192x4"
RENAMED = "pipeline 192x4 renamed"
VERSATILITY = [
    "cholesky 12x12",
    "blocked-lu 8x8",
    "jacobi 8x8x6",
    "reduction 256",
    "pipeline 128x4",
]

#: Every trace a row runs, by key: a catalogue read, ``(workload,
#: parameters)``.  The paper's traces keep their sizes at both tiers:
#: Fig. 7's patterns are 8,160 tasks each.  ``hazard-dense`` (deep
#: dependence chains, so dependence resolution is the work) and
#: ``param-dense`` (shallow chains, so probe throughput through the Check
#: Scatter is the limit) are the scaling curves' workloads.
TRACES: Dict[str, Tuple[str, Dict[str, Any]]] = {
    "independent": ("independent", {}),
    "h264": ("h264", {}),
    "horizontal": ("horizontal", {}),
    "vertical": ("vertical", {}),
    **{f"gaussian n={n}": ("gaussian", {"n": n}) for n in (100, 250, 500)},
    PIPELINE: ("pipeline", {"items": 192, "stages": 4}),
    "cholesky 12x12": ("cholesky", {"tiles": 12}),
    "blocked-lu 8x8": ("blocked-lu", {"tiles": 8}),
    "jacobi 8x8x6": ("jacobi", {"grid": 8, "iterations": 6}),
    "reduction 256": ("reduction", {"leaves": 256}),
    "pipeline 128x4": ("pipeline", {"items": 128, "stages": 4}),
    "hazard-dense": ("hazard-dense", SCALE),
    "param-dense": ("param-dense", SCALE),
    **{spin_key(s): ("wait-chain", {**CHAIN, "spin_ns": s}) for s in SPINS_NS},
}


@cache
def trace(key: str) -> TaskTrace:
    """``TRACES[key]``'s trace; :data:`RENAMED` is the renamed
    :data:`PIPELINE`."""
    if key == RENAMED:
        return rename_trace(trace(PIPELINE))
    name, params = TRACES[key]
    return workload(name, **params)


@cache
def graph(key: str):
    """The golden task graph of :func:`trace` ``(key)``."""
    return build_task_graph(trace(key))


#: ``(trace key, software RTS?, config) -> run``.
_RUNS: Dict[Tuple[str, bool, SystemConfig], RunResult] = {}


def run(key: str, cfg: SystemConfig, software: bool = False) -> RunResult:
    """``TRACES[key]`` on ``cfg`` (under the software RTS when
    ``software``), run once per process."""
    memo = (key, software, cfg)
    if memo not in _RUNS:
        tr = trace(key)
        _RUNS[memo] = (
            run_software_rts(tr, cfg) if software else NexusMachine(cfg).run(tr)
        )
    return _RUNS[memo]


def sweep(
    key: str,
    base: SystemConfig,
    axes: Dict[str, Sequence[Any]],
    software: bool = False,
) -> GridReport:
    """``grid_sweep`` of ``TRACES[key]`` whose points go through :func:`run`."""
    return grid_sweep(
        trace(key), base, axes, run=partial(run, key, software=software)
    )


class Series:
    """Several grid reports read as one table.

    Each row is a report row plus its ``series`` label and the
    ``extra(label, run)`` columns.  The JSON keeps each report's
    header (trace, axes, baseline, fixed knobs) under ``series``.
    """

    def __init__(
        self,
        reports: Dict[str, GridReport],
        extra: Callable[[str, RunResult], dict] = lambda *_: {},
    ):
        self.reports = reports
        names = dict.fromkeys(rep.trace_name for rep in reports.values())
        self.trace_name = ", ".join(names)
        self._rows = [
            {"series": label, **row, **extra(label, result)}
            for label, rep in reports.items()
            for row, result in zip(rep.rows(), rep.runs)
        ]

    def rows(self) -> list:
        return self._rows

    def to_json_dict(self) -> dict:
        heads = {
            label: {k: v for k, v in rep.to_json_dict().items() if k != "rows"}
            for label, rep in self.reports.items()
        }
        return {"series": heads, "rows": self._rows}

    def plot(self) -> str:
        """Speedup vs cores, one line per series (each sweeps ``workers``)."""
        return plot_speedup_curves(
            {
                label: list(zip(rep.axes["workers"], rep.speedups))
                for label, rep in self.reports.items()
            }
        )


class Efficiency:
    """Parallel efficiency vs task granularity: HW Maestro against the
    software RTS.

    Each spin time's wait-chain runs on ``cfg`` once per runtime through
    :func:`run`, and each row pairs the two runs' parallel efficiency
    ``sum(exec) / (workers * makespan)``.  At coarse grain both near 1.0;
    as tasks shrink the software runtime's microseconds-per-task master
    cost starves the workers while the hardware Maestro keeps them fed.
    """

    def __init__(self, cfg: SystemConfig):
        self.workers = cfg.workers
        self.trace_name = "wait-chain-{rows}x{cols}-k{k_deps}".format(**CHAIN)
        #: ``spin_ns -> (hw run, sw run)``.
        self.runs = {
            s: (run(spin_key(s), cfg), run(spin_key(s), cfg, software=True))
            for s in SPINS_NS
        }

    def _overhead(self, result: RunResult, eff: float) -> float:
        """Worker time not spent executing, folded back to a per-task
        nanosecond cost: the management overhead the runtime adds."""
        idle = result.makespan * self.workers * (1 - eff)
        return round(idle / result.n_tasks / 1e3, 2)

    def rows(self) -> List[dict]:
        out = []
        for spin, (hw, sw) in self.runs.items():
            hw_eff, sw_eff = hw.parallel_efficiency(), sw.parallel_efficiency()
            out.append(
                {
                    "spin_ns": spin,
                    "n_tasks": hw.n_tasks,
                    "hw_makespan_ps": hw.makespan,
                    "sw_makespan_ps": sw.makespan,
                    "hw_efficiency": round(hw_eff, 4),
                    "sw_efficiency": round(sw_eff, 4),
                    "efficiency_ratio": round(hw_eff / sw_eff, 4),
                    "hw_overhead_ns_per_task": self._overhead(hw, hw_eff),
                    "sw_overhead_ns_per_task": self._overhead(sw, sw_eff),
                }
            )
        return out

    def to_json_dict(self) -> dict:
        rows = self.rows()
        finest = min(rows, key=lambda r: r["spin_ns"])
        return {
            "trace": self.trace_name,
            "workers": self.workers,
            "chain_rows": CHAIN["rows"],
            "chain_cols": CHAIN["cols"],
            "k_deps": CHAIN["k_deps"],
            "finest_spin_ns": finest["spin_ns"],
            "ratio_at_finest": finest["efficiency_ratio"],
            "rows": rows,
        }

    def plot(self) -> str:
        """Efficiency vs granularity, one line per runtime (x is log10 of
        the spin time)."""
        spins = sorted(self.runs)
        return plot_series(
            {
                label: [
                    (math.log10(s), self.runs[s][i].parallel_efficiency())
                    for s in spins
                ]
                for i, label in enumerate(("hw maestro", "software rts"))
            },
            title=f"parallel efficiency vs granularity ({self.workers} workers)",
            xlabel="log10(spin ns)",
            ylabel="efficiency",
        )


At = Callable[..., dict]


@dataclass(frozen=True)
class Curve:
    """One pinned experiment: its sweep, its table and its shape predicate."""

    #: Test id, report name and the ``BENCH_<name>.json`` it pins.
    name: str
    #: Table title; ``{trace}`` is the report's trace name, ``{workers}``
    #: :data:`WORKERS`.
    title: str
    #: Runs the sweep; returns a ``GridReport``, ``Series`` or
    #: :class:`Efficiency`.
    sweep: Callable[[], Any]
    #: ``(header, cell(row))`` per table column.
    columns: Sequence[Tuple[str, Callable[[dict], Any]]]
    #: Asserts the shape, given the report and ``at(**point) -> row``.
    check: Callable[[Any, At], None]
    #: Append the report's ASCII plot to the table.
    plot: bool = False
    #: The paper's printed numbers: ``(metric, paper value, measured(at))``.
    paper: Sequence[Tuple[str, float, Callable[[At], float]]] = ()

    @property
    def file_name(self) -> str:
        """The document's file: ``BENCH_<name>.json``."""
        return f"BENCH_{self.name}.json"

    def document(self, rep) -> dict:
        """The report's JSON document, with paper, measured and ratio for
        each :attr:`paper` number."""
        data = rep.to_json_dict()
        paper = self._paper(rep)
        if paper:
            data["paper"] = [
                {
                    "metric": c.metric,
                    "paper": c.paper_value,
                    "measured": round(c.measured_value, 4),
                    "ratio": round(c.ratio, 4),
                }
                for c in paper
            ]
        return data

    def write(self, rep, directory) -> None:
        """Write :meth:`document` to ``directory / file_name``."""
        path = Path(directory) / self.file_name
        path.write_text(json.dumps(self.document(rep), indent=2) + "\n")

    def render(self, rep) -> str:
        """The report as a table, then its plot and paper vs measured."""
        text = render_table(
            [header for header, _ in self.columns],
            [[cell(r) for _, cell in self.columns] for r in rep.rows()],
            self.title.format(trace=rep.trace_name, workers=WORKERS),
        )
        if self.plot:
            text += "\n\n" + rep.plot()
        paper = self._paper(rep)
        if paper:
            text += "\n\n" + render_table(
                ["experiment", "metric", "paper", "measured", "ratio"],
                [c.row() for c in paper],
                "paper vs measured",
            )
        return text + f"\nmachine-readable curve: {self.file_name}"

    def check_shape(self, rep) -> None:
        """Assert the shape the experiment must have."""
        self.check(rep, _lookup(rep))

    def _paper(self, rep) -> List[PaperComparison]:
        at = _lookup(rep)
        return [
            compare(self.name, metric, value, measured(at))
            for metric, value, measured in self.paper
        ]


def _lookup(rep) -> At:
    """``at(**point)``: the one report row holding every given value."""
    rows = rep.rows()

    def at(**point) -> dict:
        (row,) = [r for r in rows if point.items() <= r.items()]
        return row

    return at


def _on(key: str) -> Callable[[dict], str]:
    return lambda r: "on" if r[key] else "off"


def _pct(key: str, fmt: str = ".0%") -> Callable[[dict], str]:
    return lambda r: format(r[key], fmt)


def _limit(key: str) -> Callable[[dict], Any]:
    return lambda r: r[key] if r[key] > 1 else "off"


def _speedup(series: str, cores: int) -> Callable[[At], float]:
    return lambda at: at(series=series, workers=cores)["speedup_vs_baseline"]


SERIES = ("series", lambda r: r["series"])
CORES = ("cores", lambda r: r["workers"])
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


# "All the other structures are configured to be very large; the Task
# Pool, for example, is configured to hold 8K Task Descriptors."
FIG6 = LADDER["contention-free"].with_(workers=MANY_CORES, task_pool_entries=8192)


def fig6_extra(label: str, result: RunResult) -> dict:
    base = run("independent", FIG6.with_(workers=1))
    cfg = result.config
    return {
        "workers": cfg.workers,
        "dependence_table_entries": cfg.dependence_table_entries,
        "task_pool_entries": cfg.task_pool_entries,
        "speedup_vs_1_worker": round(base.makespan / result.makespan, 4),
        "max_hash_chain": result.stats["dep_table"]["max_hash_chain"],
    }


def check_fig6(rep, at: At) -> None:
    dt = {s: at(series="DT", dependence_table_entries=s) for s in DT_SIZES}
    tp = {
        s: at(series="TP", task_pool_entries=s)["speedup_vs_1_worker"]
        for s in TP_SIZES
    }
    dt_speedups = {s: r["speedup_vs_1_worker"] for s, r in dt.items()}
    peak = max(dt_speedups.values())
    # Speedup saturates: the largest three DT sizes are within 5% of peak
    # (the paper: 2K already hits the 143x maximum).
    for size in DT_SIZES[-3:]:
        assert dt_speedups[size] > 0.95 * peak
    # Undersized DT hurts (window too small for 2x128 in-flight tasks).
    assert dt_speedups[256] < 0.9 * peak
    # Chains shorten as the table grows (the reason to pick 4K over 2K).
    assert dt[8192]["max_hash_chain"] <= dt[256]["max_hash_chain"]
    # "A Task Pool size of 512 entries is enough to achieve [peak] speedup".
    tp_peak = max(tp.values())
    assert tp[512] > 0.95 * tp_peak
    assert tp[128] < 0.9 * tp_peak


FIG7 = {
    "independent": "independent",
    "wavefront (a)": "h264",
    "horizontal (b)": "horizontal",
    "vertical (c)": "vertical",
}


def check_fig7(rep, at: At) -> None:
    def s(pattern: str, cores: int) -> float:
        return at(series=pattern, workers=cores)["speedup_vs_baseline"]

    indep, wave, horiz, vert = FIG7
    # Independent tasks dominate every other pattern at 64 cores.
    assert s(indep, 64) > s(wave, 64)
    assert s(indep, 64) > s(horiz, 64)
    assert s(indep, 64) >= s(vert, 64) * 0.95
    # Pattern (b): "limits the scalability of this benchmark to at most 8
    # cores" (1024-entry Task Pool / 120-task rows ~ 8.5 resident rows).
    assert max(s(horiz, c) for c in FIG7_CORES) < 12
    assert s(horiz, 64) >= s(horiz, 32)
    # Pattern (c) scales well to 64 cores.
    assert s(vert, 64) > 40
    # The wavefront is application-limited: it saturates below vertical.
    assert s(wave, 64) < s(vert, 64)
    # Low core counts are essentially linear for everything but (b).
    for pattern in (indep, wave, vert):
        assert s(pattern, 4) > 3.5


def check_fig8(rep, at: At) -> None:
    def s(n: int, cores: int) -> float:
        return at(series=f"n={n}", workers=cores)["speedup_vs_baseline"]

    # Table II's closed-form task count matches the materialised trace.
    assert len(trace("gaussian n=250")) == gaussian_task_count(250)
    # Monotone in matrix size at every core count >= 4.
    for c in FIG8_CORES:
        if c >= 4:
            speedups = [s(n, c) for n in FIG8_SIZES]
            assert speedups == sorted(speedups), f"not monotone in n at {c} cores"
    # n=250: "scaled to 4 cores and a speedup of 2.3x" — within 50%.
    assert 1.5 <= s(250, 4) <= 3.5
    # ...and flat beyond: 64 cores gain little over 8.
    assert s(250, 64) < s(250, 8) * 1.3
    # Fine-grained tasks still run correctly (the n=100 column exists at all).
    assert s(100, 4) > 1.2


def _headline(prep: int) -> Callable[[At], float]:
    return lambda at: at(
        series="contention-free", task_prep_time=prep, workers=MANY_CORES
    )["speedup_vs_baseline"]


def check_headline(rep, at: At) -> None:
    s64 = _speedup("contention", 64)(at)
    s_cf, s_np = _headline(PREP)(at), _headline(0)(at)
    # Memory contention caps the 64-core run well below linear...
    assert 40 <= s64 <= 60
    # ...which the contention-free run does not suffer from...
    assert s_cf > s64 * 1.8
    # ...and removing the 30ns preparation delay pushes it further.
    assert s_np > s_cf


def check_buffering(rep, at: At) -> None:
    def makespans(series: str, workers: int) -> Dict[int, int]:
        return {
            d: at(series=series, workers=workers, buffering_depth=d)["makespan_ps"]
            for d in BUFFER_DEPTHS
        }

    single, indep = makespans("H.264", 1), makespans("independent", 32)
    wave = makespans("H.264", 32)
    # Double buffering hides the ~7.5us memory phase behind the ~11.8us
    # execution: >= 1.3x on pipeline-bound configurations.
    assert single[1] / single[2] > 1.3
    assert indep[1] / indep[2] > 1.3
    # Diminishing returns past depth 2 (within 5%).
    assert single[4] > 0.95 * single[2]
    assert indep[4] > 0.95 * indep[2]
    # The dependency-limited 32-core wavefront is insensitive to depth.
    assert abs(wave[2] - wave[1]) / wave[1] < 0.10


def check_sw_rts(rep, at: At) -> None:
    sw = {c: _speedup("software RTS", c)(at) for c in SW_CORES}
    hw = {c: _speedup("Nexus++", c)(at) for c in SW_CORES}
    # The software runtime flattens: per-task master cost (~4us) limits
    # throughput to ~1/4us while tasks take ~19us -> cap near 5x.
    assert sw[64] < 8
    assert sw[64] < sw[16] * 1.6
    # Nexus++ keeps scaling on the same workload (wavefront-limited, not
    # runtime-limited).
    assert hw[64] > sw[64] * 1.5
    assert hw[16] > 11


def renaming_extra(key: str, result: RunResult) -> dict:
    raw, war, waw = count_false_dependencies(trace(key))
    return {
        "raw_edges": raw,
        "war_edges": war,
        "waw_edges": waw,
        "dt_high_water": result.stats["dep_table"]["high_water"],
        "bottleneck": analyze_bottleneck(result).verdict,
    }


def check_renaming(rep, at: At) -> None:
    plain, ren = at(series=PIPELINE, workers=16), at(series=RENAMED, workers=16)
    # Renaming removed all false deps, and preserved every true one.
    assert ren["war_edges"] == 0 and ren["waw_edges"] == 0
    assert ren["raw_edges"] == plain["raw_edges"]
    # The pipeline was stage-limited (4 stages).
    assert ren["speedup_vs_baseline"] > plain["speedup_vs_baseline"] * 2
    # The price: more live Dependence Table entries.
    assert ren["dt_high_water"] >= plain["dt_high_water"]


def versatility_extra(key: str, result: RunResult) -> dict:
    return {
        "tasks": len(trace(key)),
        "avg_parallelism": round(graph(key).average_parallelism(), 4),
        "bottleneck": analyze_bottleneck(result).verdict,
        "max_kickoff_waiters": result.stats["dep_table"]["max_kickoff_waiters"],
        "violations": len(result.verify_against(graph(key))),
    }


def check_versatility(rep, at: At) -> None:
    for key in VERSATILITY:
        assert at(series=key, workers=1)["violations"] == 0, key
        assert at(series=key, workers=16)["violations"] == 0, key
        speedup = _speedup(key, 16)(at)
        parallelism = graph(key).average_parallelism()
        # Speedup is bounded by available parallelism and by the machine,
        # and every workload must gain from 16 cores unless it is serial.
        limit = min(16, parallelism * 1.6)
        assert speedup <= 16 + 0.5
        if parallelism > 2:
            assert speedup > 1.5, f"{key} failed to scale at all"
        assert speedup < limit * 1.5, f"{key} speedup {speedup} implausible"


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
    verdict = analyze_bottleneck(rep.runs[0])
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
    verdict = analyze_bottleneck(rep.runs[0])
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
    verdict = analyze_bottleneck(rep.runs[0])
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
        "fig6_dse",
        f"Fig. 6: DT and TP sizing ({{trace}}, {MANY_CORES} workers, "
        "contention-free; DT sweep at TP=8K, TP sweep at DT=8K)",
        lambda: Series(
            {
                "1 worker": sweep("independent", FIG6, {"workers": [1]}),
                "DT": sweep(
                    "independent", FIG6, {"dependence_table_entries": DT_SIZES}
                ),
                "TP": sweep(
                    "independent",
                    FIG6.with_(dependence_table_entries=8192),
                    {"task_pool_entries": TP_SIZES},
                ),
            },
            fig6_extra,
        ),
        [
            SERIES,
            CORES,
            ("DT entries", lambda r: r["dependence_table_entries"]),
            ("TP entries", lambda r: r["task_pool_entries"]),
            MAKESPAN,
            ("speedup", lambda r: round(r["speedup_vs_1_worker"], 1)),
            ("longest chain", lambda r: r["max_hash_chain"]),
        ],
        check_fig6,
    ),
    Curve(
        "fig7_patterns",
        "Fig. 7: speedup vs cores per dependency pattern (8160 tasks each)",
        lambda: Series(
            {
                label: sweep(key, SystemConfig(), {"workers": FIG7_CORES})
                for label, key in FIG7.items()
            }
        ),
        [SERIES, CORES, MAKESPAN, SPEEDUP],
        check_fig7,
        plot=True,
    ),
    Curve(
        "fig8_gaussian",
        "Fig. 8: Gaussian elimination speedup vs cores per matrix size",
        # Contention modelled, double buffering: the paper's setup.
        lambda: Series(
            {
                f"n={n}": sweep(
                    f"gaussian n={n}", SystemConfig(), {"workers": FIG8_CORES}
                )
                for n in FIG8_SIZES
            }
        ),
        [SERIES, CORES, MAKESPAN, SPEEDUP],
        check_fig8,
        plot=True,
        paper=[("n=250 speedup@4cores", 2.3, _speedup("n=250", 4))],
    ),
    Curve(
        "headline_speedup",
        "Headline: independent tasks (8160 tasks, double buffering)",
        # The no-prep speedup is over the contention-free 1-worker run
        # with the preparation delay, the grid's first point.
        lambda: Series(
            {
                "contention": sweep(
                    "independent", SystemConfig(), {"workers": [1, 64]}
                ),
                "contention-free": sweep(
                    "independent",
                    LADDER["contention-free"],
                    {"task_prep_time": [PREP, 0], "workers": [1, MANY_CORES]},
                ),
            }
        ),
        [
            SERIES,
            ("prep (ns)", lambda r: r.get("task_prep_time", PREP) // 1000),
            CORES,
            MAKESPAN,
            ("speedup", lambda r: round(r["speedup_vs_baseline"], 1)),
        ],
        check_headline,
        paper=[("speedup@64 (contention)", 54, _speedup("contention", 64))]
        + (
            [
                ("speedup@256 (cont-free)", 143, _headline(PREP)),
                ("speedup@256 (no prep)", 221, _headline(0)),
            ]
            if MANY_CORES == 256
            else []
        ),
    ),
    Curve(
        "buffering_ablation",
        "Buffering depth (1 = original Nexus, 2 = paper default)",
        # The 32-core wavefront is application-limited, so depth cannot
        # matter there; the single-core H.264 and the 32-core independent
        # runs are pipeline-bound, so it does.
        lambda: Series(
            {
                "H.264": sweep(
                    "h264",
                    SystemConfig(),
                    {"workers": [1, 32], "buffering_depth": BUFFER_DEPTHS},
                ),
                "independent": sweep(
                    "independent",
                    SystemConfig(),
                    {"workers": [32], "buffering_depth": BUFFER_DEPTHS},
                ),
            }
        ),
        [
            SERIES,
            CORES,
            ("TC depth", lambda r: r["buffering_depth"]),
            MAKESPAN,
            SPEEDUP,
        ],
        check_buffering,
    ),
    Curve(
        "sw_rts_baseline",
        "Software StarSs runtime vs Nexus++ ({trace})",
        lambda: Series(
            {
                "software RTS": sweep(
                    "h264", SystemConfig(), {"workers": SW_CORES}, software=True
                ),
                "Nexus++": sweep("h264", SystemConfig(), {"workers": SW_CORES}),
            }
        ),
        [SERIES, CORES, MAKESPAN, SPEEDUP],
        check_sw_rts,
        plot=True,
    ),
    Curve(
        "renaming_ablation",
        "Renaming: streaming pipeline (192 items x 4 stages), WAW "
        "scratch-state chains, contention-free",
        lambda: Series(
            {
                key: sweep(
                    key,
                    SystemConfig(memory_contention=False),
                    {"workers": [1, 16]},
                )
                for key in (PIPELINE, RENAMED)
            },
            renaming_extra,
        ),
        [
            SERIES,
            CORES,
            (
                "RAW/WAR/WAW",
                lambda r: f"{r['raw_edges']}/{r['war_edges']}/{r['waw_edges']}",
            ),
            MAKESPAN,
            SPEEDUP,
            ("DT high water", lambda r: r["dt_high_water"]),
            ("bottleneck", lambda r: r["bottleneck"]),
        ],
        check_renaming,
    ),
    Curve(
        "versatility",
        "Extension workloads on the Table IV machine",
        lambda: Series(
            {
                key: sweep(key, SystemConfig(), {"workers": [1, 16]})
                for key in VERSATILITY
            },
            versatility_extra,
        ),
        [
            SERIES,
            CORES,
            ("tasks", lambda r: r["tasks"]),
            ("avg parallelism", lambda r: round(r["avg_parallelism"], 1)),
            ("speedup", lambda r: round(r["speedup_vs_baseline"], 1)),
            ("bottleneck", lambda r: r["bottleneck"]),
            ("max kick-off", lambda r: r["max_kickoff_waiters"]),
            ("violations", lambda r: r["violations"]),
        ],
        check_versatility,
    ),
    Curve(
        "shard_scaling",
        "Maestro shard scaling ({trace}, {workers} workers)",
        lambda: sweep(
            "hazard-dense",
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
        lambda: sweep(
            "hazard-dense",
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
        lambda: sweep(
            "hazard-dense", LADDER["frontend"], {"retire_pipeline_depth": DEPTHS}
        ),
        [
            ("depth", lambda r: r["retire_pipeline_depth"]),
            (
                "TP ports",
                lambda r: LADDER["frontend"]
                .with_(retire_pipeline_depth=r["retire_pipeline_depth"])
                .tp_ports,
            ),
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
        lambda: sweep(
            "hazard-dense",
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
        lambda: sweep(
            "hazard-dense",
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
        lambda: sweep(
            "param-dense",
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
        lambda: Efficiency(LADDER["contention-free"]),
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
