"""The workload catalogue: every name builds, and parameters reach the
generator."""

import inspect

import pytest

import repro.traces
from repro.frontend import StarSsProgram
from repro.traces import CATALOGUE, gaussian_task_count, random_trace, workload

#: Every trace builder: the package's ``*_trace`` generators and
#: ``StarSsProgram.to_trace``.
TRACE_BUILDERS = {
    **{n: getattr(repro.traces, n) for n in repro.traces.__all__ if n.endswith("_trace")},
    "StarSsProgram.to_trace": StarSsProgram.to_trace,
}


@pytest.mark.parametrize("name", list(CATALOGUE))
def test_entry_names_only_parameters_its_generator_takes(name):
    """Each entry's parameters are its generator's, and it gives every
    parameter the generator has no default for, so ``workload(name)``
    builds."""
    entry = CATALOGUE[name]
    signature = inspect.signature(entry.generator).parameters
    assert set(entry.params) <= set(signature)
    required = {p for p, v in signature.items() if v.default is inspect.Parameter.empty}
    assert required <= set(entry.params)


@pytest.mark.parametrize("name", sorted(TRACE_BUILDERS))
def test_trace_builders_take_no_machine_config(name):
    """A trace's timing is the workload's own: no builder takes a
    ``SystemConfig``, so no machine knob can reshape a trace."""
    assert "config" not in inspect.signature(TRACE_BUILDERS[name]).parameters


def test_parameters_override_the_entry():
    trace = workload("gaussian", n=6, name="g6")
    assert (trace.name, len(trace)) == ("g6", gaussian_task_count(6))


def test_pinned_random_shapes():
    """``hazard-dense`` and ``param-dense`` are the scaling curves'
    traces; ``random`` keeps its memory phases."""
    hazard = dict(n_addresses=96, max_params=6, seed=7, mean_exec=4000, mean_memory=0)
    assert workload("hazard-dense", n_tasks=50).tasks == random_trace(50, **hazard).tasks
    assert workload("hazard-dense").name == "random-hazard-dense"
    param_dense = workload("param-dense", n_tasks=50)
    assert param_dense.name == "random-param-dense"
    assert param_dense.tasks == random_trace(
        50, **{**hazard, "n_addresses": 1024, "mean_exec": 500}
    ).tasks
    assert workload("random").tasks == random_trace(
        1000, **{**hazard, "mean_memory": 200}
    ).tasks


def test_a_parameter_the_generator_does_not_take_is_rejected():
    with pytest.raises(TypeError, match="n_tasks"):
        workload("gaussian", n_tasks=10)
