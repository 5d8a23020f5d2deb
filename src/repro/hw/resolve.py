"""The staged resolve pipeline: finish notifications to waiter kick-off.

The finish/resolve path — everything between a worker raising its
task-finished line and a released waiter landing on a ready list — used to
be smeared across two monolithic loops (the single Maestro's Handle
Finished, the sharded Maestro's finish engines).  This module is that path
as one shared subsystem of block bodies (the ``write_tp_block`` /
``send_tds_block`` pattern of :mod:`repro.hw.maestro`), restructured as
three explicit stages so the timing model lives in exactly one place and
the two optimizations below apply to *both* engines:

* **Notify intake** — pop the trigger queue (slice 0's task-finished
  line in the single Maestro, a shard's finish inbox in the sharded one)
  and, with coalescing on, drain up to ``finish_coalesce_limit`` further
  already-arrived notifications into one batch
  (:func:`notify_drain` / :func:`inbox_intake`).
* **Dependence-table update** — apply the batch's updates to the
  Dependence Table (:func:`table_update_block`).  Updates hitting the
  same table row are merged into a single row access: the hash probe is
  paid once per row per batch (``row_latched`` in
  :meth:`~repro.hw.dependence_table.DependenceTable.finish_param`),
  while Kick-Off List manipulations still pay their way.  Per-address
  finish order is preserved — batches drain in arrival order and
  same-row updates apply in that order within the merged access —
  which is ARCHITECTURE.md invariant 5.
* **Waiter kick** — decrement each granted waiter's Dependence Counter
  (:func:`waiter_kick_block`) and hand became-ready tasks on (ready
  list, forward hop, or the fast-dispatch kick-off fast path); both
  engines route their grants through :meth:`ResolvePipeline.kick_grants`.
  With ``speculative_kickoff`` on, the kicks are posted to a per-shard
  **kick unit** (:meth:`ResolvePipeline.kick_unit`) instead of running
  inline, so the kick of one notification's waiter overlaps the
  table-update commit of the *next* notification.  The kick unit arbitrates for the
  same Task Pool ports as every other Maestro block and preserves kick
  order per shard (a FIFO hand-off), so no bandwidth is conjured and
  duplicate grants of the same waiter commute exactly as they did
  inline.

With both knobs at their defaults (``finish_coalesce_limit=1``,
``speculative_kickoff=False``) none of this changes the machines: batches
are single notifications, row merging never triggers, no kick queues or
kick-unit processes exist — both engines are cycle-for-cycle the
pre-resolve-pipeline machines (pinned by the recorded goldens in
``tests/integration/test_goldens.py``).

The *check* side of the machine reuses the same staging discipline:
:func:`inbox_intake` / :func:`check_update_block` (knobs in
:class:`CheckPipeline`) are the check-flavored intake and table-update
stages — a batch of already-arrived check probes per check-engine
activation, same-row probes merged into one hash-probe access
(``row_latched`` in
:meth:`~repro.hw.dependence_table.DependenceTable.check_param`), the
probe/insert stages pipelined across the batch.  Gated by
``check_coalesce_limit``; the knobs-off
check path replays the same goldens.
:func:`check_update_block` is also the single Maestro's Check Deps body,
run on slice 0 with one task's probes.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..sim import Fifo

__all__ = [
    "ResolvePipeline",
    "CheckPipeline",
    "notify_drain",
    "inbox_intake",
    "table_update_block",
    "check_update_block",
    "waiter_kick_block",
]


def notify_drain(fab, line: Fifo, first):
    """Stage 1 (single-Maestro flavor): coalesce task-finished line pops.

    ``first`` is the core id already popped off ``line`` (the activation
    trigger; its 1-cycle acknowledge is charged by the caller).  With
    coalescing on, drains further already-queued notifications, up to the
    batch limit; it takes no time.  Returns the list of notifying core
    ids, arrival order.
    """
    resolve = fab.resolve
    cores = [first]
    if resolve.coalesce_limit > 1:
        while len(cores) < resolve.coalesce_limit:
            nxt = line.try_get()
            if nxt is None:
                break
            cores.append(nxt)
    return cores


def inbox_intake(fab, inbox: Fifo, pipe, first):
    """Stage 1 (inbox flavor): coalesce a shard's finish- or check-inbox
    drain, with the batch knobs of ``pipe`` (the :class:`ResolvePipeline`
    or the :class:`CheckPipeline`).

    ``first`` is the stamped message's payload already received (and
    waited out) by the engine.  Drains up to ``coalesce_limit`` - 1
    further messages whose stamped arrival time has passed — a message
    still in flight on the ring is *not* waited for, so coalescing never
    delays a batch for traffic that has not physically arrived.  Returns
    the payload list, arrival order.
    """
    msgs = [first]
    if pipe.coalesce_limit > 1:
        now = fab.sim.now
        while len(msgs) < pipe.coalesce_limit:
            head = inbox.peek()
            if head is None or head[0] > now:
                break
            msgs.append(inbox.try_get()[1])
    return msgs


def check_update_block(fab, shard: int, msgs, pipelined: bool,
                       on_checked=None):
    """Stage 2 (check flavor): apply a batch of dependence checks to one
    Dependence Table slice.

    ``msgs`` is the batch's ordered ``(head, home, param, n_params)``
    check-message list.  Probes are grouped by table row (insertion
    order, so per-address order within the batch is arrival order); each
    group costs one port arbitration and one merged access — the first
    probe pays the hash lookup (and any insert), the rest find the row
    latched; with ``pipelined`` (a coalescing engine) a later row's first
    probe pipelines with the previous row's commit.  Without it each
    group is cycle-for-cycle one step of the paper's Listing 2 loop.
    Blocked tasks get their Dependence Counter bumped, and then
    ``on_checked`` (a generator function taking the message, optional)
    runs per probe in batch order per row group — the sharded engine
    posts the reply to the home shard there, so a coalesced batch never
    delays an early group's replies behind an unrelated row.  Returns the
    number of row groups.
    """
    sim = fab.sim
    table = fab.dep_shards[shard]
    port = fab.dt_ports[shard]
    groups: Dict[int, List[tuple]] = {}
    for msg in msgs:
        groups.setdefault(msg[2].addr, []).append(msg)
    for g, group in enumerate(groups.values()):
        # A check may need fresh table slots (a new address entry or a
        # Kick-Off dummy, at most one per probe).  The free-slot wait must
        # precede the port grab: the resolve stage that frees slots
        # arbitrates for the same port, so waiting while holding it would
        # deadlock the slice.  One slot per probe is reserved
        # conservatively — the whole group commits under one grant.
        while table.free_slots < len(group):
            fab.dt_freed_shard[shard].clear()
            yield fab.dt_freed_shard[shard].wait()
        yield port.acquire()
        accesses_total = 0
        results = []
        for i, msg in enumerate(group):
            head, _, param, _ = msg
            blocked, accesses = table.check_param(
                head, param.addr, param.size,
                param.mode.reads, param.mode.writes,
                # Same-row probes after the first find the row latched
                # (the first probe touched or inserted the entry); a
                # later row's first probe hides behind the previous
                # row's write-back.  The batch's very first probe pays
                # full price — a batch of one is Listing 2 exactly.
                row_latched=i > 0,
                probe_overlapped=pipelined and i == 0 and g > 0,
            )
            accesses_total += accesses
            results.append((msg, blocked))
        yield sim.timeout(accesses_total * fab.on_chip)
        port.release()
        for msg, blocked in results:
            if blocked:
                yield fab.tp_port.acquire()
                fab.task_pool.add_dependence(msg[0])
                yield sim.timeout(fab.on_chip)
                fab.tp_port.release()
            if on_checked is not None:
                yield from on_checked(msg)
    return len(groups)


def table_update_block(fab, shard: int, updates, on_grants=None,
                       grants_early: bool = False):
    """Stage 2: apply a batch of finish updates to one Dependence Table
    slice.

    ``updates`` is the batch's ordered ``(releaser_head, param)`` list;
    ``shard`` names the slice, its port and its slots-freed signal (slice
    0 in the single Maestro, a shard's own in the sharded one) — the
    timing body is shared so the resolve charge cannot drift between
    engines.  Updates are grouped by table row (insertion order, so
    per-address order within the batch is arrival order); each group
    costs one port arbitration and one merged access — the first update
    pays the hash probe, the rest find the row latched.  A batch of one
    is cycle-for-cycle the paper's per-parameter loop.

    ``on_grants`` (a generator function taking the group's ordered
    ``(releaser_head, waiter_head)`` grants) is invoked per row group,
    so a waiter released by the batch's first row is kicked while the
    remaining rows still update — a coalesced batch never delays an
    early grant behind an unrelated row.  Without it the grants are
    collected and returned.  ``grants_early`` is the speculative-kickoff
    overlap: the grants are handed on the moment the row's grant
    decision is computed, *before* the row's commit latency elapses —
    safe because a computed grant is final (the Kick-Off pops committed
    with the row write-back can only be re-read, never revoked), and it
    is what lets a kick overlap the table-update commit instead of
    following it.  Only a decoupled kick unit may take grants early; an
    inline caller doing its own kick work must leave it False.
    """
    sim = fab.sim
    resolve = fab.resolve
    table = fab.dep_shards[shard]
    port = fab.dt_ports[shard]
    freed = fab.dt_freed_shard[shard]
    # The probe/modify pipelining below is part of the *coalesced* drain
    # model: without coalescing the engine processes updates one
    # notification at a time, exactly as the paper's loop, and no probe
    # has a predecessor's write-back to hide behind.
    pipelined = resolve.coalesce_limit > 1
    groups: Dict[int, List[Tuple[int, object]]] = {}
    for head, param in updates:
        groups.setdefault(param.addr, []).append((head, param))
    granted: List[Tuple[int, int]] = []
    for g, group in enumerate(groups.values()):
        yield port.acquire()
        accesses_total = 0
        group_grants: List[Tuple[int, int]] = []
        for i, (head, param) in enumerate(group):
            kicked, accesses = table.finish_param(
                head, param.addr, param.mode.reads, param.mode.writes,
                # Same-row updates after the first find the row latched;
                # a later row's first update has its probe pipelined with
                # the previous row's write-back (the table's probe/modify
                # stages stream a drained batch).  The batch's very first
                # update pays full price — a batch of one is the paper's
                # loop exactly.
                row_latched=i > 0,
                probe_overlapped=pipelined and i == 0 and g > 0,
            )
            accesses_total += accesses
            group_grants.extend((head, waiter) for waiter in kicked)
        if grants_early and on_grants is not None:
            yield from on_grants(group_grants)
        yield sim.timeout(accesses_total * fab.on_chip)
        port.release()
        freed.set()
        if on_grants is not None:
            if not grants_early:
                yield from on_grants(group_grants)
        else:
            granted.extend(group_grants)
    resolve.note_batch(len(updates), len(groups))
    return granted


def waiter_kick_block(fab, waiter_head: int):
    """Stage 3 core: decrement one waiter's Dependence Counter.

    One Task Pool port arbitration plus one access — identical for both
    engines and for inline vs. speculative kicks, so the kick charge
    cannot drift.  Returns True when the waiter became ready.
    """
    yield fab.tp_port.acquire()
    became_ready = fab.task_pool.resolve_dependence(waiter_head)
    yield fab.sim.timeout(fab.on_chip)
    fab.tp_port.release()
    return became_ready


class ResolvePipeline:
    """Owner of the staged-resolve state: knobs, kick queues, counters.

    Built by the :class:`~repro.hw.fabric.Fabric` for every machine (the
    counters are free bookkeeping), but the speculative kick queues and
    kick-unit processes exist only when ``speculative_kickoff`` is on —
    a knobs-off machine carries no extra FIFOs, processes or events.
    The kick-unit *processes* are started by the owning Maestro (they
    are Maestro blocks); this class provides the shared body.
    """

    def __init__(self, fabric) -> None:
        self.fabric = fabric
        config = fabric.config
        self.coalesce_limit = config.finish_coalesce_limit
        self.speculative = config.speculative_kickoff
        #: One kick queue per shard (slice 0's on the single Maestro).
        self.kick_queues: List[Fifo] = []
        if self.speculative:
            # Sized for every in-flight grant: a waiter is granted at most
            # once per parameter, so outstanding kicks are bounded by the
            # in-flight parameter count — the queue can never deadlock the
            # resolve stage that fills it.
            cap = config.task_pool_entries * config.max_params_per_td
            self.kick_queues = [
                Fifo(fabric.sim, cap, f"s{s}-kick-queue", track_occupancy=True)
                for s in range(fabric.n_shards)
            ]
        # ---- statistics ------------------------------------------------------
        #: Resolve activations (one per drained batch).
        self.batches = 0
        #: Table updates applied (one per finished parameter).
        self.updates = 0
        #: Updates that found their row latched by an earlier update of
        #: the same batch (the merged row accesses).
        self.row_merges = 0
        #: Largest update batch one activation applied.
        self.max_batch = 0
        #: Kicks handed to the kick units instead of running inline.
        self.speculative_kicks = 0

    # ---- coalescing bookkeeping --------------------------------------------------

    def note_batch(self, n_updates: int, n_rows: int) -> None:
        """Record one table-update batch (stats only, no events)."""
        self.batches += 1
        self.updates += n_updates
        self.row_merges += n_updates - n_rows
        if n_updates > self.max_batch:
            self.max_batch = n_updates

    # ---- speculative kick-off ----------------------------------------------------

    def kick_grants(self, shard: int, grants, kick):
        """Stage 3 for one group of ``(releaser_head, waiter_head)``
        grants, shared by both engines.

        Under speculative kick-off each grant is posted to ``shard``'s
        kick unit; otherwise ``kick`` — the engine's kick body, a
        generator function of ``(releaser_tid, waiter_head)`` — runs
        inline.  The releaser tid is captured now: a decoupled kick may
        run after its releaser has retired and left the in-flight map.
        """
        tid_of = self.fabric.tid_of
        for releaser_head, waiter_head in grants:
            releaser_tid = tid_of(releaser_head)
            if self.speculative:
                self.speculative_kicks += 1
                yield self.kick_queues[shard].put((releaser_tid, waiter_head))
            else:
                yield from kick(releaser_tid, waiter_head)

    def kick_unit(self, shard: int, busy, handler):
        """Process body of ``shard``'s kick unit (stage 3, decoupled).

        Drains the shard's kick queue in FIFO order and runs ``handler``
        — the owning engine's kick body (Dependence Counter decrement
        plus its engine-specific became-ready hand-off) — for each.
        FIFO order per shard preserves the inline kick order, so
        duplicate grants of one waiter commute exactly as before.
        """
        queue = self.kick_queues[shard]
        while True:
            releaser_tid, waiter_head = yield queue.get()
            busy.begin()
            yield from handler(releaser_tid, waiter_head)
            busy.end()

    # ---- reporting ---------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "batches": self.batches,
            "updates": self.updates,
            "mean_batch": self.updates / self.batches if self.batches else 0.0,
            "max_batch": self.max_batch,
            "row_merges": self.row_merges,
            "coalesce_rate": (
                self.row_merges / self.updates if self.updates else 0.0
            ),
            "speculative_kicks": self.speculative_kicks,
        }


class CheckPipeline:
    """Owner of the check-path state: knobs and coalescing counters.

    The check-side mirror of :class:`ResolvePipeline`: built by the
    :class:`~repro.hw.fabric.Fabric` for every machine (the counters are
    free bookkeeping; the sharded check engines record their batches
    here, the single Maestro's Check Deps does not), but the scatter
    slices and per-destination
    re-sequencers exist only when ``decentralized_check_scatter`` is on —
    a knobs-off machine carries no extra FIFOs, processes or events and
    keeps the central program-ordered scatter sequencer.
    """

    def __init__(self, fabric) -> None:
        self.fabric = fabric
        config = fabric.config
        self.coalesce_limit = config.check_coalesce_limit
        # ---- statistics ------------------------------------------------------
        #: Check-engine activations (one per drained batch).
        self.batches = 0
        #: Dependence checks applied (one per parameter probe).
        self.probes = 0
        #: Probes that found their row latched by an earlier probe of the
        #: same batch (the merged row accesses).
        self.row_merges = 0
        #: Largest probe batch one activation applied.
        self.max_batch = 0

    # ---- coalescing bookkeeping --------------------------------------------------

    def note_batch(self, n_probes: int, n_rows: int) -> None:
        """Record one check batch (stats only, no events)."""
        self.batches += 1
        self.probes += n_probes
        self.row_merges += n_probes - n_rows
        if n_probes > self.max_batch:
            self.max_batch = n_probes

    # ---- reporting ---------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "batches": self.batches,
            "probes": self.probes,
            "mean_batch": self.probes / self.batches if self.batches else 0.0,
            "max_batch": self.max_batch,
            "row_merges": self.row_merges,
            "coalesce_rate": (
                self.row_merges / self.probes if self.probes else 0.0
            ),
        }
