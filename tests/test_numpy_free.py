"""The paper's machine, its golden graph and the deterministic trace
generators run on the standard library: only a generator that draws from
NumPy's RNG (or the ``.npz`` trace I/O) imports NumPy.

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
from repro.traces import gaussian_trace, random_trace, wait_chain_trace

assert "numpy" not in sys.modules, "import repro loaded numpy"

trace = gaussian_trace(40)
result = run_trace(trace, SystemConfig(workers=4))
graph = build_task_graph(trace)
assert result.verify_against(graph) == []
assert sum(len(graph.successors[t]) for t in range(len(trace))) == graph.n_edges

chain = wait_chain_trace(4, 8)
sw = run_software_rts(chain, SystemConfig(workers=4))
assert sw.verify_against(build_task_graph(chain)) == []

assert main(["run", "wait-chain", "--rows", "4", "--cols", "8",
             "--workers", "4", "--verify"]) == 0

assert "numpy" not in sys.modules, "the stdlib-only path loaded numpy"

random_trace(20, seed=1)
assert "numpy" in sys.modules, "random_trace draws from numpy's RNG"
print("ok")
"""


def test_machine_graph_and_deterministic_traces_leave_numpy_unloaded():
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().endswith("ok")
