"""The catalogue of named workloads: one name per trace shape.

Each :data:`CATALOGUE` entry is a generator, the parameters its name fixes
and a one-line description.  :func:`workload` builds a trace from a name
plus any of the generator's parameters, so a pinned size is a read with
parameters (``workload("gaussian", n=250)``), not a name of its own.  The
CLI's ``run``/``sweep`` and ``--param``, the pinned curves and the golden
schedules all read it.
"""

from __future__ import annotations

import inspect
import typing
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Tuple

from .dense_linalg import blocked_lu_trace, cholesky_trace
from .efficiency import spatial_decomposition_trace, wait_chain_trace
from .gaussian import gaussian_trace
from .h264 import h264_wavefront_trace
from .kernels import jacobi_stencil_trace, pipeline_trace, reduction_tree_trace
from .random_traces import random_trace
from .synthetic import horizontal_chains_trace, independent_trace, vertical_chains_trace
from .trace import TaskTrace

__all__ = ["CATALOGUE", "Workload", "workload"]


@dataclass(frozen=True)
class Workload:
    """A catalogue entry: a trace generator and the parameters its name
    fixes over the generator's defaults."""

    generator: Callable[..., TaskTrace]
    description: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def parameters(self) -> Dict[str, Tuple[Any, Any]]:
        """``{parameter: (type, value)}`` for every parameter of the
        generator that a ``NAME=VALUE`` string can set (int, float, str or
        bool, or Optional of one), in signature order, with the value the
        entry builds with."""
        hints = typing.get_type_hints(self.generator)
        return {
            name: (hints[name], self.params.get(name, param.default))
            for name, param in inspect.signature(self.generator).parameters.items()
            if _settable(hints[name])
        }


def _settable(kind: Any) -> bool:
    """Whether a ``NAME=VALUE`` string can set a parameter of type ``kind``."""
    options = set(typing.get_args(kind)) - {type(None)} or {kind}
    return options <= {int, float, str, bool}


#: ~4 ns tasks on a 96-address pool and no memory phases: deep dependence
#: chains, so dependence resolution is the work.
_HAZARD_DENSE = dict(
    n_tasks=1200, n_addresses=96, max_params=6, seed=7, mean_exec=4000,
    mean_memory=0, name="random-hazard-dense",
)

#: name -> workload, in listing order.
CATALOGUE: Dict[str, Workload] = {
    "h264": Workload(h264_wavefront_trace, "H.264 macroblock wavefront (Fig. 4a)"),
    "independent": Workload(independent_trace, "independent tasks (the headline)"),
    "horizontal": Workload(horizontal_chains_trace, "horizontal chains (Fig. 4b)"),
    "vertical": Workload(vertical_chains_trace, "vertical chains (Fig. 4c)"),
    "gaussian": Workload(
        gaussian_trace, "Gaussian elimination, partial pivoting (Fig. 5)", {"n": 100}
    ),
    "cholesky": Workload(
        cholesky_trace, "blocked Cholesky factorisation", {"tiles": 8}
    ),
    "blocked-lu": Workload(blocked_lu_trace, "blocked LU factorisation", {"tiles": 6}),
    "jacobi": Workload(
        jacobi_stencil_trace, "2D Jacobi stencil", {"grid": 8, "iterations": 4}
    ),
    "reduction": Workload(
        reduction_tree_trace, "binary reduction tree (leaves a power of two)",
        {"leaves": 64},
    ),
    "pipeline": Workload(
        pipeline_trace, "streaming pipeline", {"items": 64, "stages": 4}
    ),
    "wait-chain": Workload(
        wait_chain_trace, "granularity probe: rows x cols wait-chains of spin_ns tasks",
        {"rows": 16, "cols": 64},
    ),
    "spatial": Workload(
        spatial_decomposition_trace,
        "halo-exchange spatial decomposition, 2D/3D Moore neighbourhood",
        {"grid": 6, "steps": 4},
    ),
    "random": Workload(
        random_trace, "hazard-dense tiny tasks with memory phases",
        {**_HAZARD_DENSE, "n_tasks": 1000, "mean_memory": 200, "name": "random"},
    ),
    "hazard-dense": Workload(
        random_trace, "deep dependence chains: the scaling curves' workload",
        _HAZARD_DENSE,
    ),
    # Short tasks on 1024 addresses: shallow chains, so throughput (every
    # param probed through the Check Scatter) is the limit, not latency.
    "param-dense": Workload(
        random_trace, "shallow chains, every parameter probed: the check curve's",
        {**_HAZARD_DENSE, "n_addresses": 1024, "mean_exec": 500,
         "name": "random-param-dense"},
    ),
    "stream-1p": Workload(
        random_trace, "one parameter per task on 1024 addresses: almost no hazards",
        dict(n_tasks=10_000, n_addresses=1024, max_params=1, mean_exec=2000,
             mean_memory=0, name="stream-1p"),
    ),
}


def workload(name: str, /, **params: Any) -> TaskTrace:
    """The trace of catalogue workload ``name`` with ``params`` over the
    entry's own; the generator rejects a parameter it does not take
    (``TypeError``).  ``name`` is positional-only, so ``params`` may name
    the trace."""
    entry = CATALOGUE[name]
    return entry.generator(**{**entry.params, **params})
