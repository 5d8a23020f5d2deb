"""The paper's machine, its golden graph, the deterministic trace
generators and random traces of any length run on the standard library:
only the generators that draw from NumPy's RNG (``TimeModel`` sampling,
wait-chain jitter) and the ``.npz`` trace I/O import NumPy.

Runs in a fresh interpreter, since the test session itself has NumPy
loaded.
"""

import os
import pathlib
import subprocess
import sys

import repro

SCRIPT = """
import sys

import repro
from repro.cli import main
from repro.config import SystemConfig
from repro.machine import run_trace
from repro.runtime import build_task_graph, run_software_rts
from repro.traces import gaussian_trace, wait_chain_trace, workload

assert "numpy" not in sys.modules, "import repro loaded numpy"

trace = gaussian_trace(40)
result = run_trace(trace, SystemConfig(workers=4))
graph = build_task_graph(trace)
assert result.verify_against(graph) == []
assert sum(len(graph.successors[t]) for t in range(len(trace))) == graph.n_edges

chain = wait_chain_trace(4, 8)
sw = run_software_rts(chain, SystemConfig(workers=4))
assert sw.verify_against(build_task_graph(chain)) == []

assert main(["run", "wait-chain", "--param", "rows=4", "--param", "cols=8",
             "--workers", "4", "--verify"]) == 0
assert main(["run", "hazard-dense", "--param", "n_tasks=60",
             "--stack", "full", "--workers", "4", "--verify"]) == 0

assert "numpy" not in sys.modules, "the stdlib-only path loaded numpy"

assert len(workload("stream-1p")) == 10_000
assert "numpy" not in sys.modules, "a 10,000-task random_trace loaded numpy"
print("ok")
"""

#: With NumPy unimportable, a hazard-dense random trace still builds, runs
#: on the full sharded stack and retires legally, and the perf ledger's
#: 10,000-task ``stream-1p`` trace builds.
BLOCKED = """
import sys

sys.modules["numpy"] = None

from repro.config import LADDER
from repro.machine import run_trace
from repro.runtime import build_task_graph
from repro.traces import random_trace, workload

trace = random_trace(400, 96, 6, seed=7)
result = run_trace(trace, LADDER["full"].with_(maestro_shards=4))
assert result.verify_against(build_task_graph(trace)) == []
assert len(workload("stream-1p")) == 10_000
print("ok")
"""


def _run(script: str) -> None:
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().endswith("ok")


def test_machine_graph_and_deterministic_traces_leave_numpy_unloaded():
    _run(SCRIPT)


def test_hazard_dense_random_run_without_numpy():
    _run(BLOCKED)
