"""System configuration: every Table IV parameter, plus model switches.

The paper's "Task Machine" is fully configurable (number of cores, clock
frequencies, on-/off-chip access times, table geometries, FIFO sizes...);
:class:`SystemConfig` is the equivalent single source of truth here.  All
times are integer picoseconds, all sizes are entry counts.  Table IV's
figures that shape no run (the core clock, the TD, Dependence Table entry
and memory chunk sizes) are module constants, so the README can echo the
same table the paper prints without a knob that changes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from ..sim.time_units import NS

__all__ = ["SystemConfig", "BUS_MODEL_FORMULA", "BUS_MODEL_FITTED"]

#: Table IV's worker/master core clock (2 GHz); traces carry task times.
CORE_CLOCK_HZ = 2_000_000_000
#: Table IV's Task Descriptor size in bytes (78 KB for 1K TDs).
TD_BYTES = 78
#: Table IV's Dependence Table entry size in bytes (112 KB for 4K entries).
DT_ENTRY_BYTES = 28
#: Table IV's memory chunk: ``off_chip_access_time`` moves 128 bytes.
MEMORY_CHUNK_BYTES = 128

#: Submission cost model exactly as §IV prose: 5-cycle handshake plus
#: 2 cycles per 8-byte word, one word for (ID, function pointer) plus one
#: word per parameter.
BUS_MODEL_FORMULA = "formula"
#: Submission cost fitted to the paper's worked examples (10 cycles for a
#: 4-parameter task, 14 cycles for 8 parameters): ``6 + nP`` cycles.  The
#: prose formula gives 15/23 cycles for the same examples; the paper is
#: internally inconsistent, so both models are provided.
BUS_MODEL_FITTED = "fitted"


@dataclass(frozen=True)
class SystemConfig:
    """Complete parameter set for a Nexus++ machine simulation.

    Defaults reproduce Table IV of the paper.  Frozen and hashable: every
    run carries the config it ran on (``RunResult.config``), and equal
    configs are one dict key.
    """

    # ---- machine shape ---------------------------------------------------------
    #: Number of worker cores (the master core is extra, as in Fig. 1).
    workers: int = 16
    #: Per-worker Task Controller buffering depth; 2 = double buffering.
    #: Table IV sizes the CxRdyTasks/CxFinTasks lists at 4 bytes = two 2-byte
    #: task IDs, i.e. depth 2.
    buffering_depth: int = 2

    # ---- clocks ----------------------------------------------------------------
    #: Nexus++ clock (500 MHz in Table IV; cycle time 2 ns).
    nexus_clock_hz: int = 500_000_000

    # ---- on-chip storage -------------------------------------------------------
    #: On-chip table access time (CACTI figure for the ~100 KB structures).
    on_chip_access_time: int = 2 * NS
    #: Task Pool capacity in Task Descriptors (1K in Table IV).
    task_pool_entries: int = 1024
    #: Parameters (inputs/outputs) a single Task Descriptor can hold.
    max_params_per_td: int = 8
    #: Dependence Table entries (4K in Table IV).  A sharded machine splits
    #: them evenly (ceiling) across its shards' table slices.
    dependence_table_entries: int = 4096
    #: Kick-Off List slots per Dependence Table entry.
    kickoff_list_size: int = 8

    # ---- FIFO lists (entry counts; Table IV gives the byte sizes) ---------------
    #: TDs Sizes list: 1 KB of 1-byte sizes -> 1024 entries.  Governs how many
    #: submitted-but-unstored TDs may queue before the master stalls.
    tds_sizes_list_entries: int = 1024
    #: New Tasks list: 2 KB of 2-byte task IDs.
    new_tasks_list_entries: int = 1024
    # The TP Free Indices, ready and Worker Cores IDs lists have no knob:
    # the fabric sizes each at the bound where it cannot fill (Table IV's
    # 1K entries are at or above every bound), so no size models another
    # machine.

    # ---- sharded Maestro --------------------------------------------------------
    #: Number of Task Maestro shards.  1 reproduces the paper's single
    #: Maestro; N > 1 hash-partitions the Dependence Table across N Maestro
    #: instances joined by a ring interconnect (scatter/gather protocol).
    maestro_shards: int = 1
    #: Inter-Maestro interconnect latency per ring hop (picoseconds).
    shard_hop_time: int = 4 * NS
    #: Depth of each shard's check/finish message queues (scatter requests
    #: queue here; a full inbox backpressures the sender).
    shard_inbox_entries: int = 16
    #: Finishes each shard's retire front-end may keep in flight at once.
    #: 1 reproduces the serialized retire loop (param read, finish scatter,
    #: reply gather and chain free complete for one task before the next
    #: starts — cycle-for-cycle the pre-pipelining machine); N > 1 tags the
    #: finish scatter/gather with retire tickets so successive finishes
    #: overlap, bounded by the N ticket slots (backpressure when exhausted).
    #: A sharded-engine knob: raising it on a single-Maestro machine is an
    #: error rather than a silent no-op.
    retire_pipeline_depth: int = 1

    # ---- fast-dispatch subsystem -------------------------------------------------
    #: Per-shard TD prefetch cache capacity, in staged Task Descriptors.
    #: 0 disables the cache (the paper machine).  N > 0 lets each shard's
    #: prefetch engine pull a *near-ready* waiter's TD chain out of the
    #: Task Pool ahead of the final finish->kick resolution, so the TD
    #: read+stream latency overlaps resolution instead of following it.
    #: Prefetch reads arbitrate for the same Task Pool ports as every
    #: other block, so Task Pool bandwidth stays faithful.  A
    #: sharded-engine knob, like ``retire_pipeline_depth``.
    td_cache_entries: int = 0
    #: Dependence-Counter threshold at which a waiter counts as
    #: *near-ready* and its TD chain is prefetched: the default 1 fires
    #: when one unresolved dependence remains (the classic chain hop);
    #: larger values speculate earlier, wasting cache slots on waiters
    #: that may stay blocked for a long time.
    td_prefetch_depth: int = 1
    #: Kick-off fast path: let the shard that resolves a waiter's final
    #: dependence dispatch the now-ready task directly to one of its own
    #: idle worker cores, skipping the forward hop to the task's home
    #: shard and the home scheduler's queue round trip.  A non-blocking
    #: ownership notice to the home shard keeps retirement bookkeeping
    #: unchanged.  Also a sharded-engine knob.
    kickoff_fast_path: bool = False
    # ---- staged resolve pipeline ---------------------------------------------------
    #: Finish notifications/messages a resolve stage drains per activation
    #: (finish-notification coalescing).  1 reproduces the paper's
    #: one-notification-at-a-time loop exactly; N > 1 lets the notify
    #: intake pull up to N already-arrived notifications in one batch and
    #: lets the dependence-table update stage merge updates that hit the
    #: same Dependence Table row into a single row access (the hash probe
    #: is paid once per row per batch).  Per-address finish order is
    #: preserved: batches drain in arrival order and same-row updates
    #: apply in that order within the merged access (ARCHITECTURE.md
    #: invariant 5).  Works on both Maestro engines.
    finish_coalesce_limit: int = 1
    #: Speculative kick-off: hand became-ready waiter kicks to a dedicated
    #: per-shard kick unit instead of running them inline in the resolve
    #: loop, so the kick of one notification's waiter overlaps the
    #: dependence-table update commit of the *next* notification.  The
    #: kick unit arbitrates for the same Task Pool ports as every other
    #: block (no conjured bandwidth) and preserves kick order per shard
    #: (a FIFO hand-off).  Composes with the fast-dispatch subsystem: the
    #: kick-off fast path and prefetch notices fire from the kick unit.
    #: Works on both Maestro engines.
    speculative_kickoff: bool = False

    # ---- decentralized check scatter --------------------------------------------
    #: Decentralize the Check Scatter: replace the single program-ordered
    #: scatter sequencer with one scatter slice per master core (each
    #: master's descriptors are scattered from its own slice engine), with
    #: a sequence-numbered re-sequencer per destination shard restoring
    #: program order per destination — the same mechanism the submission
    #: MergeUnit uses, applied per shard.  Per-address check order is
    #: unchanged (ARCHITECTURE.md invariant 6).  False keeps the central
    #: sequencer and builds none of the slice machinery.  A sharded-engine
    #: knob: the single-Maestro machine has no scatter to decentralize.
    decentralized_check_scatter: bool = False
    #: Check probes a check engine drains from its inbox per activation
    #: (check-side coalescing, the mirror image of
    #: ``finish_coalesce_limit``).  1 reproduces the one-probe-at-a-time
    #: loop exactly; N > 1 lets the engine pull up to N already-arrived
    #: check messages in one batch, merge probes that hit the same
    #: Dependence Table row into a single row access and pipeline the
    #: probe/insert stages across the batch.  Per-address check order is
    #: preserved: batches drain in arrival order and same-row probes apply
    #: in that order within the merged access.  A sharded-engine knob.
    check_coalesce_limit: int = 1

    # ---- master core / on-chip bus ----------------------------------------------
    #: Number of master cores generating Task Descriptors.  1 reproduces the
    #: paper's single serial master; N > 1 splits the trace round-robin over
    #: N submitters whose streams a sequence-numbered merge unit reassembles
    #: into global program order before Write TP (beyond the paper).
    master_cores: int = 1
    #: Task Descriptors per bus transaction (DMA-style batching).  1
    #: reproduces the paper's one-handshake-per-descriptor submission; B > 1
    #: amortizes the handshake over B descriptors.
    submission_batch: int = 1
    #: Task Descriptor preparation time on the master core (30 ns, §IV).
    task_prep_time: int = 30 * NS
    #: Handshaking delay before each submission, in Nexus cycles.
    bus_handshake_cycles: int = 5
    #: Bus transfer cost per 8-byte word, in Nexus cycles (2 GB/s bus).
    bus_word_cycles: int = 2
    #: Which submission-cost model to use (see module constants).
    bus_model: str = BUS_MODEL_FORMULA

    # ---- off-chip memory ----------------------------------------------------------
    #: Off-chip access time per ``MEMORY_CHUNK_BYTES`` chunk (12 ns, CACTI).
    off_chip_access_time: int = 12 * NS
    #: Number of single-ported memory banks; at most this many concurrent
    #: accessors ("no more than 32 tasks can access the memory at a given time").
    memory_banks: int = 32
    #: Whether to model memory contention at all (False = contention-free runs).
    memory_contention: bool = True
    #: Chunks transferred per bank acquisition.  1 reproduces pure per-chunk
    #: interleaving; larger batches trade arbitration granularity for
    #: simulation speed (batch duration stays far below task durations).
    memory_batch_chunks: int = 64

    # ---- telemetry ----------------------------------------------------------------
    #: Telemetry sampling window in picoseconds; 0 (default) disables the
    #: windowed :class:`~repro.analysis.telemetry.TelemetrySampler` and
    #: builds none of its machinery.  N > 0 snapshots every registered
    #: signal (per-block busy fractions, queue depths, retire tickets in
    #: flight, TD-cache hit rate...) once per window into a time series
    #: carried in ``stats["telemetry"]``.  Sampling is observe-only: the
    #: host loop steps ``sim.run(until=...)`` to each window boundary and
    #: reads the statistics there, injecting zero simulation events, so a
    #: sampled run replays cycle-identically to an unsampled one.
    telemetry_window: int = 0

    # ---- model switches -------------------------------------------------------------
    #: Nexus (non-plus-plus) compatibility mode: refuse tasks with more than
    #: ``max_params_per_td`` parameters and more than ``kickoff_list_size``
    #: waiters per address instead of spilling to dummy tasks/entries.
    restricted: bool = False

    # ---- validation ------------------------------------------------------------------

    def __post_init__(self) -> None:
        positive = [
            ("workers", self.workers),
            ("buffering_depth", self.buffering_depth),
            ("nexus_clock_hz", self.nexus_clock_hz),
            ("on_chip_access_time", self.on_chip_access_time),
            ("task_pool_entries", self.task_pool_entries),
            ("max_params_per_td", self.max_params_per_td),
            ("dependence_table_entries", self.dependence_table_entries),
            ("kickoff_list_size", self.kickoff_list_size),
            ("tds_sizes_list_entries", self.tds_sizes_list_entries),
            ("new_tasks_list_entries", self.new_tasks_list_entries),
            ("off_chip_access_time", self.off_chip_access_time),
            ("memory_banks", self.memory_banks),
            ("memory_batch_chunks", self.memory_batch_chunks),
            ("maestro_shards", self.maestro_shards),
            ("shard_inbox_entries", self.shard_inbox_entries),
            ("retire_pipeline_depth", self.retire_pipeline_depth),
            # (retire_pipeline_depth > 1 additionally requires the sharded
            # engine; checked below once use_sharded_maestro is decidable.)
            ("master_cores", self.master_cores),
            ("submission_batch", self.submission_batch),
        ]
        for name, value in positive:
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.task_prep_time < 0:
            raise ValueError("task_prep_time must be >= 0")
        if self.bus_handshake_cycles < 0 or self.bus_word_cycles < 0:
            raise ValueError("bus cycle counts must be >= 0")
        if self.bus_model not in (BUS_MODEL_FORMULA, BUS_MODEL_FITTED):
            raise ValueError(f"unknown bus_model {self.bus_model!r}")
        if self.max_params_per_td < 2:
            # A dummy chain needs at least one payload slot plus the pointer.
            raise ValueError("max_params_per_td must be >= 2")
        if self.kickoff_list_size < 2:
            raise ValueError("kickoff_list_size must be >= 2")
        if self.shard_hop_time < 0:
            raise ValueError("shard_hop_time must be >= 0")
        if self.retire_pipeline_depth > 1 and not self.use_sharded_maestro:
            raise ValueError(
                "retire_pipeline_depth > 1 requires the sharded Maestro "
                "engine (set maestro_shards > 1); the single-Maestro machine "
                "would silently ignore it"
            )
        if self.td_cache_entries < 0:
            raise ValueError(
                f"td_cache_entries must be >= 0, got {self.td_cache_entries}"
            )
        if self.td_prefetch_depth < 1:
            raise ValueError(
                f"td_prefetch_depth must be >= 1, got {self.td_prefetch_depth}"
            )
        if self.use_fast_dispatch and not self.use_sharded_maestro:
            raise ValueError(
                "the fast-dispatch subsystem (td_cache_entries > 0 or "
                "kickoff_fast_path) requires the sharded Maestro engine "
                "(set maestro_shards > 1); the single-Maestro machine would "
                "silently ignore it"
            )
        if self.finish_coalesce_limit < 1:
            raise ValueError(
                f"finish_coalesce_limit must be >= 1, got "
                f"{self.finish_coalesce_limit}"
            )
        if self.check_coalesce_limit < 1:
            raise ValueError(
                f"check_coalesce_limit must be >= 1, got "
                f"{self.check_coalesce_limit}"
            )
        if self.use_check_pipeline and not self.use_sharded_maestro:
            raise ValueError(
                "the decentralized check scatter and check-side coalescing "
                "(decentralized_check_scatter or check_coalesce_limit > 1) "
                "require the sharded Maestro engine (set maestro_shards > 1); "
                "the single-Maestro machine has no Check Scatter to "
                "decentralize"
            )
        if self.telemetry_window < 0:
            raise ValueError(
                f"telemetry_window must be >= 0, got {self.telemetry_window}"
            )

    # ---- derived quantities -----------------------------------------------------------

    @property
    def nexus_cycle(self) -> int:
        """Nexus++ clock cycle time in picoseconds (2 ns at 500 MHz)."""
        return round(1e12 / self.nexus_clock_hz)

    @property
    def task_pool_bytes(self) -> int:
        """Task Pool storage (Table IV: 78 KB for 1K TDs)."""
        return self.task_pool_entries * TD_BYTES

    @property
    def dependence_table_bytes(self) -> int:
        """Dependence Table storage (Table IV: 112 KB for 4K entries)."""
        return self.dependence_table_entries * DT_ENTRY_BYTES

    @property
    def use_sharded_maestro(self) -> bool:
        """True when the machine should wire the sharded Maestro subsystem."""
        return self.maestro_shards > 1

    @property
    def use_parallel_frontend(self) -> bool:
        """True when the machine wires per-master TDs buffers plus the
        program-order merge unit (a single master feeds Write TP directly)."""
        return self.master_cores > 1

    @property
    def master_buffer_entries(self) -> int:
        """Per-master TDs buffer depth: the TDs Sizes list split evenly
        (ceiling) across the master cores, so total front-end buffering
        stays comparable to the single-master machine."""
        return -(-self.tds_sizes_list_entries // self.master_cores)

    @property
    def tp_ports(self) -> int:
        """Concurrent Task Pool access ports: one per per-shard retire
        ticket slot, ``retire_pipeline_depth``, shared by all shards and
        blocks.  The depth-1 machine keeps the paper's single port and a
        deeper retire pipeline scales Task Pool bandwidth with its depth
        (the paper's per-entry busy bits allow concurrent access to
        distinct entries, which one arbitration port under-models)."""
        return self.retire_pipeline_depth

    @property
    def use_fast_dispatch(self) -> bool:
        """True when the machine should wire the fast-dispatch subsystem
        (TD prefetch caches and/or the kick-off fast path)."""
        return self.td_cache_entries > 0 or self.kickoff_fast_path

    @property
    def use_resolve_pipeline(self) -> bool:
        """True when a staged-resolve optimization is on (finish-notification
        coalescing and/or speculative kick-off); False is the paper-exact
        serial resolve loop on both engines."""
        return self.finish_coalesce_limit > 1 or self.speculative_kickoff

    @property
    def use_check_pipeline(self) -> bool:
        """True when a check-path optimization is on (the decentralized
        check scatter and/or check-side coalescing); False is the central
        program-ordered scatter sequencer with one-probe-at-a-time check
        engines — the pre-decentralization machine exactly."""
        return self.decentralized_check_scatter or self.check_coalesce_limit > 1

    @property
    def steal_locality(self) -> bool:
        """Locality-aware work stealing, on exactly when the fast-dispatch
        subsystem is: an idle shard prefers stealing from shards that have
        no idle worker of their own, leaving a ready task whose home pool
        already holds an idle core for that core — avoiding the
        steal-after-forward ping-pong where a task is stolen one cycle
        after the finish engine paid the forward hop to send it home.  Off
        keeps the subsystem-off machine cycle-for-cycle the ticket-order
        stealer."""
        return self.use_fast_dispatch

    @property
    def dt_entries_per_shard(self) -> int:
        """Dependence Table capacity owned by each Maestro shard."""
        return -(-self.dependence_table_entries // self.maestro_shards)

    @property
    def memory_bandwidth_bytes_per_s(self) -> float:
        """Per-accessor off-chip bandwidth (128 B / 12 ns = 10.67 GB/s)."""
        return MEMORY_CHUNK_BYTES / (self.off_chip_access_time * 1e-12)

    def submission_time(self, n_params: int) -> int:
        """Master-to-Maestro submission delay for a task with ``n_params``.

        ``formula`` follows §IV prose: handshake + 2 cycles per word with
        one leading word for ID/function pointer.  ``fitted`` matches the
        paper's worked examples (10 cycles @ 4 params, 14 @ 8).
        """
        return self.batch_submission_time([n_params])

    def batch_submission_time(self, param_counts: "list[int]") -> int:
        """Submission delay for one bus transaction carrying a batch of
        descriptors (``param_counts`` parameters each).

        One handshake opens the transaction; every descriptor then costs
        its header word plus one word per parameter, so a batch of one is
        exactly :meth:`submission_time` and larger batches amortize the
        handshake.  The ``fitted`` model decomposes its ``6 + nP`` cycles
        as a 5-cycle handshake plus ``1 + nP`` word cycles.
        """
        if not param_counts:
            return 0
        words = sum(1 + n for n in param_counts)
        if self.bus_model == BUS_MODEL_FITTED:
            cycles = 5 + words
        else:
            cycles = self.bus_handshake_cycles + self.bus_word_cycles * words
        return cycles * self.nexus_cycle

    def td_transfer_time(self, n_params: int) -> int:
        """Maestro-to-Task-Controller TD transfer delay (same bus geometry)."""
        cycles = self.bus_handshake_cycles + self.bus_word_cycles * (1 + n_params)
        return cycles * self.nexus_cycle

    # ---- convenience ------------------------------------------------------------------

    def with_(self, **changes: Any) -> "SystemConfig":
        """Return a copy with the given fields replaced (frozen dataclass)."""
        return replace(self, **changes)

    def table_iv(self) -> list[tuple[str, str]]:
        """Render the configuration as the paper's Table IV rows.

        Sharded-Maestro machines (an extension beyond the paper) append
        their extra geometry below the paper's rows.
        """
        extra: list[tuple[str, str]] = []
        if self.use_parallel_frontend or self.submission_batch > 1:
            extra += [
                ("Master cores", str(self.master_cores)),
                ("Submission batch", f"{self.submission_batch} TDs/transaction"),
                (
                    "Per-master TDs buffer",
                    f"{self.master_buffer_entries} entries",
                ),
            ]
        if self.use_sharded_maestro:
            extra += [
                ("Maestro shards", str(self.maestro_shards)),
                ("Shard hop latency", f"{self.shard_hop_time / NS:g}ns"),
                (
                    "Dependence Table per shard",
                    f"{self.dt_entries_per_shard} entries",
                ),
                ("Shard inbox depth", str(self.shard_inbox_entries)),
                ("Retire pipeline depth", str(self.retire_pipeline_depth)),
                ("Task Pool ports", str(self.tp_ports)),
            ]
        if self.use_fast_dispatch:
            extra += [
                ("TD prefetch cache", f"{self.td_cache_entries} TDs/shard"),
                ("TD prefetch depth", f"DC <= {self.td_prefetch_depth}"),
                ("Kick-off fast path", "on" if self.kickoff_fast_path else "off"),
                (
                    "Steal policy",
                    "locality" if self.steal_locality else "ticket",
                ),
            ]
        if self.use_resolve_pipeline:
            extra += [
                (
                    "Finish coalesce limit",
                    f"{self.finish_coalesce_limit} notifications/batch",
                ),
                (
                    "Speculative kick-off",
                    "on" if self.speculative_kickoff else "off",
                ),
            ]
        if self.use_check_pipeline:
            extra += [
                (
                    "Check scatter",
                    "decentralized"
                    if self.decentralized_check_scatter
                    else "central",
                ),
                (
                    "Check coalesce limit",
                    f"{self.check_coalesce_limit} probes/batch",
                ),
            ]
        return [
            ("Cores clock freq.", f"{CORE_CLOCK_HZ / 1e9:g} GHz"),
            ("Nexus++ clock freq.", f"{self.nexus_clock_hz / 1e6:g} MHz"),
            ("On Chip Access Time", f"{self.on_chip_access_time / NS:g}ns"),
            ("Off Chip Access Time", f"{self.off_chip_access_time / NS:g}ns"),
            ("On chip bus bandwidth", "2 GB/s"),
            ("Memory bandwidth", f"{self.memory_bandwidth_bytes_per_s / 2**30:.2f} GB/s"),
            ("Task Descriptor (TD) size", f"{TD_BYTES} Byte"),
            (
                "Task Pool size",
                f"{self.task_pool_bytes // 1024} KB ({self.task_pool_entries} TDs)",
            ),
            ("No. Parameters per TD", str(self.max_params_per_td)),
            ("Dependence Table entry size", f"{DT_ENTRY_BYTES} Byte"),
            (
                "Dependence Table size",
                f"{self.dependence_table_bytes // 1024} KB "
                f"({self.dependence_table_entries} entries)",
            ),
            ("Kick-Off list size", f"{self.kickoff_list_size} task IDs"),
            ("Workers", str(self.workers)),
            ("Buffering depth", str(self.buffering_depth)),
        ] + extra
