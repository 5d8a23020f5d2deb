"""Golden schedules: every pinned (trace, config) replays cycle-for-cycle.

Each row of :data:`GOLDEN` names a trace, a knob stack and a shard count,
and pins what the seeded run must produce: the number of kernel events,
the makespan, a digest of every task's full lifecycle and the timing
wheel's peak count of pending events.  Any drift of one event in
ready/dispatch/exec/retire timing or core assignment changes the digest.
The knobs-off rows were recorded on the machine that predates each
mechanism, so they prove that the knobs-off machine is still that
machine; the knobs-on rows pin the event orders of the mechanisms
themselves:

* ``paper-w8`` — Table IV at 8 workers: the single Maestro and the sharded
  engine before the batched front-end and retire pipelining existed;
* ``frontend`` — 4 masters, batch 8, fitted bus, contention-free: the single
  Maestro before the staged resolve and check pipelines;
* ``retire4`` — the front-end plus retire depth 4: before fast dispatch;
* ``dispatch`` — plus TD cache 16 @ prefetch depth 2 and the kick-off fast
  path: before the staged resolve and the decentralized check scatter;
* ``full`` — plus finish and check coalescing, speculative kick-off and the
  decentralized scatter: every mechanism on at once;
* ``2k*`` — the 2,000-task waypoint on 16 workers, knobs off and on;
* ``stream`` — the ledger's ``stream-1p`` machine and trace at 2,000 tasks:
  one parameter per task, so per-task block costs, not hazards.

Each row's trace is a read of the workload catalogue
(:data:`repro.traces.CATALOGUE`).  Every row's run must also retire its
trace legally and obey the conservation laws of the blocks its config
wires (``laws.py``).  Three rows also pin their kernel events per block (:data:`EVENTS_BY_BLOCK`).  The rows
on :data:`HEAP_STACKS` also replay on the heap ordering oracle
(``tests/sim/heap_kernel.py``), which must fire the same events and model
the same statistics as the timing wheel.
"""

import ast
import dataclasses
import functools
import hashlib
import itertools
import sys
from pathlib import Path

import pytest
from laws import LAWS, assert_retires_legally

import repro.machine.machine
from repro.config import BUS_MODEL_FORMULA, LADDER, SystemConfig
from repro.machine import run_trace
from repro.runtime.task_graph import build_task_graph
from repro.sim import NS
from repro.traces import workload

# The heap ordering oracle lives beside the kernel tests in tests/sim.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "sim"))
from heap_kernel import HeapSimulator  # noqa: E402

#: Each row's trace: a catalogue read, ``(workload, parameters)``, at the
#: size its goldens were recorded on.
TRACES = {
    "random": ("hazard-dense", {"n_tasks": 400}),
    "gaussian": ("gaussian", {"n": 28}),
    "h264": ("h264", {"rows": 14, "cols": 10}),
    "random-2k": (
        "hazard-dense",
        {
            "n_tasks": 2_000,
            "n_addresses": 256,
            "max_params": 4,
            "seed": 11,
            "mean_exec": 3000,
            "name": "random-2k",
        },
    ),
    "stream-1p": ("stream-1p", {"n_tasks": 2_000}),
}

#: The knobs the ``resolve`` and ``full`` rungs add: the staged resolve and
#: check pipelines.
_PIPELINES = {
    f.name: getattr(LADDER["full"], f.name)
    for f in dataclasses.fields(SystemConfig)
    if getattr(LADDER["full"], f.name) != getattr(LADDER["dispatch"], f.name)
}
_WAYPOINT = LADDER["frontend"].with_(bus_model=BUS_MODEL_FORMULA)

#: Knob stacks, each a rung of ``repro.config.LADDER`` at the sizes its
#: goldens were recorded on; each row adds its shard count.
STACKS = {
    "paper-w8": SystemConfig(workers=8),
    "frontend": LADDER["frontend"].with_(workers=8),
    "retire4": LADDER["frontend"].with_(workers=8, retire_pipeline_depth=4),
    "dispatch": LADDER["retire"].with_(
        workers=8, td_cache_entries=16, kickoff_fast_path=True
    ),
    "full": LADDER["full"].with_(workers=8, master_cores=4, td_cache_entries=16),
    "2k": _WAYPOINT,
    "2k-coalesce4": _WAYPOINT.with_(finish_coalesce_limit=4),
    "2k-speculative": _WAYPOINT.with_(speculative_kickoff=True),
    "2k-full": _WAYPOINT.with_(**_PIPELINES),
    # The ledger's stream-1p machine: 32 workers, 8 masters, the check
    # pipeline and finish coalescing on, the formula bus.
    "stream": _WAYPOINT.with_(
        workers=32,
        master_cores=8,
        finish_coalesce_limit=8,
        decentralized_check_scatter=True,
        check_coalesce_limit=8,
    ),
}

#: (trace, stack, shards) -> (kernel events, makespan_ps, schedule digest,
#: the timing wheel's peak pending events).
GOLDEN = {
    ("gaussian", "paper-w8", 1): (24_956, 22_654_500, "91bbaa9ca0798fe8", 39),
    ("gaussian", "paper-w8", 2): (38_868, 22_679_500, "02367daedbb157f1", 50),
    ("gaussian", "paper-w8", 4): (40_096, 22_750_000, "4404ad73628b0141", 64),
    ("h264", "paper-w8", 1): (11_628, 771_669_469, "4e1b014658ad764f", 39),
    ("h264", "paper-w8", 2): (16_382, 776_723_031, "f8ad19e5879c9256", 50),
    ("h264", "paper-w8", 4): (16_794, 761_220_130, "da99d58d33370e59", 64),
    ("random", "frontend", 1): (27_876, 16_740_805, "53c6421f4eb09bab", 46),
    ("gaussian", "frontend", 1): (28_062, 20_898_500, "8e30c068472b5c88", 46),
    ("random", "retire4", 2): (45_558, 8_803_690, "55ed4116661c7458", 59),
    ("random", "retire4", 4): (46_979, 7_668_629, "d1be90966d8fd1f5", 75),
    ("gaussian", "retire4", 2): (42_677, 13_269_000, "9c27d357e785f467", 59),
    ("gaussian", "retire4", 4): (43_650, 11_763_000, "e3c732b1a35fb3d3", 75),
    ("random", "dispatch", 2): (44_368, 7_991_580, "263d9c5c2afc27b6", 61),
    ("random", "dispatch", 4): (44_601, 4_804_541, "7d50b0b1ddc856f1", 79),
    ("gaussian", "dispatch", 2): (44_060, 13_005_000, "6b74180e9e3c6243", 61),
    ("gaussian", "dispatch", 4): (45_780, 11_056_500, "b6dfa9d2f2d1cff4", 79),
    ("random", "full", 2): (50_753, 5_426_186, "e4a1d33c30949cd8", 77),
    ("random", "full", 4): (51_202, 4_452_477, "3fd97557ba300a2a", 93),
    ("gaussian", "full", 2): (49_170, 10_632_000, "76e65be246e909c8", 69),
    ("gaussian", "full", 4): (51_032, 8_467_500, "85ff677dfc73e380", 95),
    ("random-2k", "2k", 1): (125_260, 62_955_998, "8062ed8f65ddd00d", 78),
    ("random-2k", "2k", 2): (185_364, 43_772_000, "01746e0345e1fa72", 89),
    ("random-2k", "2k", 4): (183_808, 31_351_000, "548ef57f0eb66391", 103),
    ("random-2k", "2k-coalesce4", 1): (125_324, 58_214_383, "d4eb936e1aeef07f", 78),
    ("random-2k", "2k-speculative", 1): (132_203, 58_073_749, "a77a35e20437e8fb", 79),
    ("random-2k", "2k-full", 4): (200_937, 23_113_263, "36feb4675c4634e0", 115),
    ("stream-1p", "stream", 4): (136_112, 20_425_113, "7d137a0b1d5adc53", 187),
}

#: Stacks whose rows also replay on the heap ordering oracle: the single
#: Maestro on the front-end and the sharded engine with every knob on.
HEAP_STACKS = {"frontend", "full"}

#: ``stats["sim"]["events_by_block"]`` of three rows: every event resumes a
#: live block, so each table sums to its row's pinned kernel events.
EVENTS_BY_BLOCK = {
    ("random", "full", 4): {
        "smaestro.sN.finish": 6450,
        "smaestro.sN.check": 5756,
        "smaestro.sN.retire": 5232,
        "sN-check-reseq": 4580,
        "smaestro.mN.scatter": 4246,
        "smaestro.sN.retire-done": 4164,
        "smaestro.sN.gather": 3295,
        "smaestro.sN.kick": 2456,
        "smaestro.sN.send-tds": 2318,
        "smaestro.write-tp": 1821,
        "smaestro.scatter-route": 1815,
        "tcN.get-td": 1608,
        "smaestro.sN.prefetch": 1318,
        "smaestro.sN.schedule": 1262,
        "tcN.run-task": 1208,
        "merge-unit": 1201,
        "master-core-N": 856,
        "tcN.get-inputs": 808,
        "tcN.put-outputs": 808,
    },
    ("gaussian", "paper-w8", 1): {
        "maestro.handle-finished": 6486,
        "maestro.check-deps": 4220,
        "maestro.send-tds": 2836,
        "maestro.write-tp": 2470,
        "tcN.get-inputs": 1628,
        "tcN.get-td": 1628,
        "tcN.put-outputs": 1628,
        "maestro.schedule": 1621,
        "tcN.run-task": 1223,
        "master-core-N": 1216,
    },
    ("stream-1p", "stream", 4): {
        "smaestro.sN.retire": 25268,
        "smaestro.sN.send-tds": 14004,
        "smaestro.sN.gather": 11462,
        "smaestro.sN.schedule": 9698,
        "smaestro.sN.finish": 9248,
        "smaestro.write-tp": 8507,
        "smaestro.sN.check": 8041,
        "tcN.get-td": 8032,
        "sN-check-reseq": 7482,
        "tcN.run-task": 6032,
        "smaestro.mN.scatter": 6008,
        "merge-unit": 6001,
        "master-core-N": 4264,
        "tcN.get-inputs": 4032,
        "tcN.put-outputs": 4032,
        "smaestro.scatter-route": 4001,
    },
}


def golden_trace(key: str):
    """The trace ``TRACES[key]`` reads from the catalogue."""
    name, params = TRACES[key]
    return workload(name, **params)


def _config(key, **extra) -> SystemConfig:
    _, stack, shards = key
    return STACKS[stack].with_(maestro_shards=shards, **extra)


def schedule_digest(result) -> str:
    """Digest of every task's full lifecycle: any single-event drift in
    ready/dispatch/exec/retire timing or core assignment changes it."""
    rows = [
        (r.tid, r.core, r.ready, r.dispatched, r.exec_start, r.completed)
        for r in result.records
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def _modelled(result) -> str:
    """Every statistic except the kernel's own counts, ``stats["sim"]``:
    the heap and the wheel fire the same events, but how many sit pending
    at once is a property of the kernel (``peak_pending_events`` read 93
    on the wheel and 83 on the heap for a ``full``-stack random trace)."""
    stats = dict(result.stats)
    stats.pop("sim")
    return repr(stats)


def _pinned(result):
    """The row's pinned values, minus the peak pending count, which
    differs between kernels (see :func:`_modelled`)."""
    return (
        result.stats["sim"]["events_processed"],
        result.makespan,
        schedule_digest(result),
    )


def _row_id(key) -> str:
    trace, stack, shards = key
    return f"{trace}-{stack}-shards{shards}"


@functools.cache
def _replay(key):
    """The row's trace and its run on the timing wheel, shared by every
    check of the row."""
    trace = golden_trace(key[0])
    return trace, run_trace(trace, _config(key))


@pytest.mark.parametrize("key", list(GOLDEN), ids=_row_id)
def test_golden_row_replays(key):
    trace, wheel = _replay(key)
    assert len(wheel.records) == len(trace)
    assert all(r.is_complete() for r in wheel.records)
    assert _pinned(wheel) == GOLDEN[key][:3]
    assert wheel.stats["sim"]["peak_pending_events"] == GOLDEN[key][3]


@pytest.mark.parametrize(
    "key", [key for key in GOLDEN if key[1] in HEAP_STACKS], ids=_row_id
)
def test_golden_row_replays_on_heap(key, monkeypatch):
    trace, wheel = _replay(key)
    monkeypatch.setattr(repro.machine.machine, "Simulator", HeapSimulator)
    heap = run_trace(trace, _config(key))
    assert _pinned(heap) == GOLDEN[key][:3]
    assert _modelled(heap) == _modelled(wheel)
    assert (heap.stats["sim"]["events_by_block"]
            == wheel.stats["sim"]["events_by_block"])


@pytest.mark.parametrize("key", list(EVENTS_BY_BLOCK), ids=_row_id)
def test_golden_row_events_by_block(key):
    _, wheel = _replay(key)
    by_block = wheel.stats["sim"]["events_by_block"]
    assert by_block == EVENTS_BY_BLOCK[key]
    assert sum(by_block.values()) == GOLDEN[key][0]


@pytest.mark.parametrize("key", list(GOLDEN), ids=_row_id)
def test_golden_row_retires_legally(key):
    trace, wheel = _replay(key)
    assert_retires_legally(wheel, trace, build_task_graph(trace))


@pytest.mark.parametrize(
    "law, key",
    [
        (law, key)
        for key in GOLDEN
        for law, (applies, _) in LAWS.items()
        if applies(_config(key))
    ],
    ids=lambda v: v if isinstance(v, str) else _row_id(v),
)
def test_golden_row_obeys_conservation_law(law, key):
    trace, wheel = _replay(key)
    LAWS[law][1](wheel, trace, _config(key))


def test_telemetry_sampled_run_replays_on_heap(monkeypatch):
    """The telemetry host loop pauses and resumes the kernel with
    ``run(until=)`` at every window boundary; the wheel must still fire
    the oracle's events, and the sampled series must match too."""
    key = ("random", "full", 4)
    trace, _ = _replay(key)
    config = _config(key, telemetry_window=100 * NS)
    wheel = run_trace(trace, config)
    monkeypatch.setattr(repro.machine.machine, "Simulator", HeapSimulator)
    heap = run_trace(trace, config)
    assert wheel.stats["telemetry"]["signals"]
    # Sampling injects no events: the run is the unsampled golden row.
    assert _pinned(wheel) == _pinned(heap) == GOLDEN[key][:3]
    assert _modelled(heap) == _modelled(wheel)


def test_stream_row_is_the_ledger_workload_at_2000_tasks(ledger):
    """The ``stream-1p`` row runs the ledger's ``stream-1p`` machine on
    its trace at scale 0.2 (2,000 tasks, the per-task generator path)."""
    stream = ledger.WORKLOADS["stream-1p"]
    assert STACKS["stream"] == stream.config
    name, params = TRACES["stream-1p"]
    ours = workload(name, **params, seed=3)
    assert ours.tasks == stream.build(seed=3, scale=0.2).tasks


def test_every_golden_row_is_a_distinct_run():
    """No two rows may pin the same (trace, SystemConfig): neither a key
    written twice in the table literal (which a dict keeps once) nor two
    stacks that build an equal config."""
    tree = ast.parse(Path(__file__).read_text())
    (table,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "GOLDEN" for t in node.targets)
    ]
    assert len(table.keys) == len(GOLDEN)
    runs = [(key[0], _config(key)) for key in GOLDEN]
    duplicates = [
        (a, b)
        for (a, run_a), (b, run_b) in itertools.combinations(zip(GOLDEN, runs), 2)
        if run_a == run_b
    ]
    assert duplicates == []
