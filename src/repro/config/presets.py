"""Named configurations: the paper's experimental setups and the ladder of
machines this reproduction builds beyond it."""

from __future__ import annotations

from .system_config import BUS_MODEL_FITTED, SystemConfig

__all__ = [
    "paper_default",
    "contention_free",
    "no_prep_delay",
    "nexus_restricted",
    "fast_functional",
    "LADDER",
]


def paper_default(workers: int = 16, **overrides) -> SystemConfig:
    """Table IV configuration: double buffering, memory contention modeled."""
    return SystemConfig(workers=workers, **overrides)


def contention_free(workers: int = 256, **overrides) -> SystemConfig:
    """The paper's contention-free memory experiments (143x headline)."""
    return SystemConfig(workers=workers, memory_contention=False, **overrides)


def no_prep_delay(workers: int = 256, **overrides) -> SystemConfig:
    """Contention-free *and* zero task-preparation delay (221x headline)."""
    return SystemConfig(
        workers=workers, memory_contention=False, task_prep_time=0, **overrides
    )


def nexus_restricted(workers: int = 16, **overrides) -> SystemConfig:
    """Original-Nexus limitations: no dummy tasks/entries, no double buffering.

    Tasks with more than ``max_params_per_td`` parameters, or dependency
    patterns needing more than ``kickoff_list_size`` waiters on one address,
    raise :class:`repro.hw.errors.CapacityError` — the paper's argument for
    why e.g. Gaussian elimination "could not be executed by Nexus".
    """
    overrides.setdefault("buffering_depth", 1)
    return SystemConfig(workers=workers, restricted=True, **overrides)


def fast_functional(workers: int = 4, **overrides) -> SystemConfig:
    """Small, quick configuration for functional tests (not timing studies)."""
    overrides.setdefault("memory_batch_chunks", 8)
    return SystemConfig(workers=workers, **overrides)


#: The machines beyond the paper, in the order they were built.  Each rung
#: is the rung before it plus the mechanism that lifts the bottleneck that
#: machine shows on the hazard-dense scaling workload
#: (``benchmarks/bench_curves.py`` sweeps each rung's knobs).  Derive a
#: variant with ``LADDER[name].with_(...)``.
LADDER = {
    # 16 workers, contention-free memory and the fitted bus model: every
    # machine parameter but dependence resolution is generous.
    "fitted": SystemConfig(
        workers=16, memory_contention=False, bus_model=BUS_MODEL_FITTED
    ),
}
# The Dependence Table hash-partitioned over Maestro shards on a ring.
LADDER["sharded"] = LADDER["fitted"].with_(maestro_shards=4)
# Parallel master cores and batched submission through the merge unit.
LADDER["frontend"] = LADDER["sharded"].with_(master_cores=4, submission_batch=8)
# The pipelined retire front-end, and the prefetch trigger depth the TD
# caches of the rungs above use.
LADDER["retire"] = LADDER["frontend"].with_(
    retire_pipeline_depth=4, td_prefetch_depth=2
)
# Fast dispatch (TD prefetch caches, the kick-off fast path), fed by more
# masters.
LADDER["dispatch"] = LADDER["retire"].with_(
    master_cores=8, td_cache_entries=64, kickoff_fast_path=True
)
# The staged resolve: finish coalescing and speculative kick-off.
LADDER["resolve"] = LADDER["dispatch"].with_(
    finish_coalesce_limit=8, speculative_kickoff=True
)
# The check pipeline: decentralized scatter and check coalescing.
LADDER["full"] = LADDER["resolve"].with_(
    decentralized_check_scatter=True, check_coalesce_limit=8
)
