"""Named machines: the paper's experimental setups and the ladder of
machines this reproduction builds beyond it, in one table."""

from __future__ import annotations

from .system_config import BUS_MODEL_FITTED, SystemConfig

__all__ = ["LADDER"]


#: Every named machine, each with 16 workers; ``--stack NAME`` picks one.
#: Table IV itself, ``SystemConfig()``, needs no name.  First the paper's
#: setups beside Table IV, then the machines beyond the paper in the order
#: they were built: each rung is the rung before it plus the mechanism
#: that lifts the bottleneck that machine shows on the hazard-dense
#: scaling workload (``repro.experiments.CURVES`` sweeps each rung's
#: knobs).  Derive a variant with ``LADDER[name].with_(...)``.
LADDER = {
    # The paper's contention-free memory experiments (the 143x headline).
    "contention-free": SystemConfig(workers=16, memory_contention=False),
}
# Contention-free and zero task-preparation delay (the 221x headline).
LADDER["no-prep"] = LADDER["contention-free"].with_(task_prep_time=0)
# The original Nexus: no dummy tasks or entries, no double buffering.
# Tasks with more than ``max_params_per_td`` parameters, or more waiters
# on one address than a Kick-Off List holds, raise
# :class:`repro.hw.errors.CapacityError`: the paper's argument for why
# e.g. Gaussian elimination "could not be executed by Nexus".
LADDER["restricted"] = SystemConfig(workers=16, restricted=True, buffering_depth=1)
# Contention-free memory and the fitted bus model: every machine
# parameter but dependence resolution is generous.
LADDER["fitted"] = LADDER["contention-free"].with_(bus_model=BUS_MODEL_FITTED)
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
