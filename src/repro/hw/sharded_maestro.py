"""The sharded Task Maestro: N dependence-resolution engines on a ring.

The paper's single Task Maestro serializes every Dependence Table probe and
every kick-off through one hardware block; it is the scalability ceiling of
Nexus++.  This module models the obvious (but unexplored in the paper)
next step: ``maestro_shards`` Maestro instances, each owning a
hash-partitioned shard of the Dependence Table, joined by a ring
interconnect with per-hop latency (:class:`~repro.hw.fabric.Interconnect`).

Protocol
--------
* **Write TP** (one instance) — the same shared block body as the single
  Maestro (:func:`~repro.hw.maestro.write_tp_block`, including its batched
  TDs-Buffer drain, so submission timing cannot drift between engines):
  pulls Task Descriptors off the TDs Buffer into the (still central) Task
  Pool, and assigns each task a *home shard* round-robin by task id.
* **Check Scatter** (one instance, default) — the program-order sequencer.
  Pops the New Tasks list in submission order and injects one
  dependence-check message per parameter into the owning shard's check
  inbox, one message per Nexus cycle.  Because injection is in program
  order and the interconnect delivers in order per destination, every
  shard observes the checks for its addresses in program order — the
  invariant that makes the distributed Dependence Table equivalent to the
  central one.
* **Scatter router + slices** (``decentralized_check_scatter``, replaces
  the central sequencer) — a zero-cycle router pops New Tasks in the same
  program order but only *stamps* each parameter's probe with its
  destination shard's next scatter sequence number and drops it into the
  submitting master's scatter slice (``tid % master_cores``); each slice
  engine independently injects its own probes, one per Nexus cycle, into
  the seq-tagged ``scatter_out`` channels.  The per-shard
  :class:`~repro.hw.fabric.CheckResequencer` restores injection order in
  front of the check inbox, so downstream of the re-sequencer every shard
  still observes its checks in program order — the Check Scatter
  invariant survives decentralization by re-sequencing, exactly as the
  MergeUnit preserves submission order (ARCHITECTURE.md invariant 6).
* **Check engine** (per shard) — services its check inbox on the staged
  check blocks of :mod:`repro.hw.resolve`, the same check body the single
  Maestro's Check Deps runs on slice 0: probes the shard's Dependence
  Table slice, bumps the waiter's Dependence Counter in the Task Pool on a
  hazard, and posts a reply to the home shard's gather unit.  Without
  check-side coalescing every batch is one probe — exactly Listing 2.
  With it (``check_coalesce_limit`` > 1) intake drains a batch of
  already-arrived probes, same-row probes merge into one row access and
  the probe/insert stages pipeline across the batch — the check-side
  mirror of the finish engine's coalescing.
* **Gather** (per shard) — counts check replies per task; when the last
  parameter's reply arrives it closes the check (the Task Pool busy flag,
  as in the single Maestro) and pushes ready tasks onto the *home shard's*
  ready list.
* **Schedule** (per shard) — pairs ready tasks with the shard's worker
  cores (workers are partitioned round-robin across shards).  An idle
  shard *steals*: a scheduler holding a free core consumes a global ready
  ticket and may pop another shard's ready list, paying a round trip on
  the interconnect.  Tickets are produced once per enqueued ready task, so
  a consumed ticket always finds a task somewhere — stealing cannot
  deadlock or spin.
* **Send TDs** (per shard) — each shard streams Task Descriptors to its own
  workers over its own link (the single Maestro's one shared bus becomes
  one bus per shard).
* **Retire front-end** (per shard) — the issue half of retirement: pops a
  task-finished notification, charges a **retire ticket** (the in-flight
  bound: an empty ticket FIFO backpressures the front-end at
  ``retire_pipeline_depth`` finishes in flight), reads the parameter list
  from the Task Pool and scatters one ticket-tagged finish message per
  parameter to the owning shards.  At depth 1 the same process also
  gathers the replies and frees the chain inline — cycle-for-cycle the
  pre-pipelining serialized loop (pinned by the golden schedules).
* **Finish engine** (per shard) — services ticket-tagged finish messages
  on the shared staged resolve blocks (:mod:`repro.hw.resolve`): intake
  (with finish-notification coalescing on, a batch of already-arrived
  messages per activation), dependence-table update (same-row updates
  merged into one row access), waiter kick (inline, or posted to the
  shard's kick unit under speculative kick-off) — then posts each ticket
  back to its retiring shard's reply inbox.  With the fast-dispatch
  subsystem on (:mod:`repro.hw.dispatch`) the kick additionally posts
  non-blocking prefetch notices for near-ready waiters and may dispatch
  a became-ready waiter straight to an idle local worker (the kick-off
  fast path, with an ownership notice to the home shard).
* **Kick unit** (per shard, only when ``speculative_kickoff`` is on) —
  drains the shard's kick queue in FIFO order, overlapping each
  became-ready waiter's kick (Dependence Counter decrement, fast-path
  dispatch or forward to the home ready list) with the finish engine's
  table-update commit of the *next* notification.
* **TD prefetch engine** (per shard, only when ``td_cache_entries`` > 0)
  — drains near-ready notices, reads the waiter's TD chain from the Task
  Pool (arbitrating for the shared TP ports) and stages it in the
  shard's TD cache so Send TDs can skip the read+stream on dispatch.
* **Retire completion** (per shard, ``retire_pipeline_depth`` > 1) — the
  gather half of retirement: counts each reply against its ticket's entry
  in the per-shard gather table (``fabric.retire_gather``), and when a
  ticket's last reply lands frees the Task Pool chain, recycles the ticket
  and returns the worker core.  Tickets complete in *reply-arrival* order,
  not issue order — the completion unit is a reorder/free stage; chain
  frees are order-independent because the TP Free Indices list is a pool.

Message formats (ticket fields included) are tabulated in
:mod:`repro.hw.fabric`; the per-shard block names this module exposes in
``maestro_utilization`` stats are ``s{N}.check``, ``s{N}.gather``,
``s{N}.schedule``, ``s{N}.send_tds``, ``s{N}.finish``, ``s{N}.retire``
(issue half), ``s{N}.retire_done`` (completion half; idle at depth 1),
``s{N}.prefetch`` (only when the TD cache is wired) and ``s{N}.kick``
(only when speculative kick-off is on), plus the central ``write_tp``
and ``scatter`` (idle under the decentralized scatter, whose per-master
slice engines report as ``m{M}.scatter``).

Finish-path ordering invariant (load-bearing for pipelined retirement):
each shard's retire front-end is the *only* injector of its finish
messages and scatters them serially in finish order, and the interconnect
delivers in order per (source, destination) — so two in-flight finishes
from the same shard that touch the same Dependence Table entry apply in
finish order at the owning shard's serial finish engine.  Finishes from
*different* shards interleave arbitrarily, exactly as they already did at
depth 1; both tasks have finished, so their table updates commute.

The engine is built only when ``maestro_shards`` > 1: at one shard the
machine is the paper's dedicated :class:`~repro.hw.maestro.TaskMaestro`.
``tests/integration/test_goldens.py`` pins both engines' schedules, and
``tests/integration/test_knob_space.py`` checks this one's schedule
legality across shard counts, retire depths and the other knobs.
"""

from __future__ import annotations

from functools import partial
from typing import Dict

from ..scoreboard import Scoreboard
from ..sim import BusyTracker
from .fabric import Fabric, RetireSlot
from .maestro import retire_free_block, send_tds_block, write_tp_block
from .resolve import (
    check_update_block,
    inbox_intake,
    table_update_block,
    waiter_kick_block,
)

__all__ = ["ShardedMaestro"]


class ShardedMaestro:
    """Owns and starts the sharded Maestro block processes."""

    #: Central blocks (one process each).
    CENTRAL_BLOCKS = ("write_tp", "scatter")
    #: Per-shard blocks (one process per shard each).  ``retire`` is the
    #: issue half of the retire front-end, ``retire_done`` the completion
    #: half (a separate process only when ``retire_pipeline_depth`` > 1).
    SHARD_BLOCKS = (
        "check",
        "gather",
        "schedule",
        "send_tds",
        "finish",
        "retire",
        "retire_done",
    )

    def __init__(self, fabric: Fabric, scoreboard: Scoreboard):
        if not fabric.sharded:
            raise ValueError("ShardedMaestro needs a sharded fabric")
        self.fabric = fabric
        self.scoreboard = scoreboard
        self.n_shards = fabric.n_shards
        self.retired = 0
        #: Ready tasks dispatched by a shard other than their home shard.
        self.steals = 0
        #: Steals of a task whose ready-list entry was paid for by a
        #: cross-shard forward hop — the post-forward ping-pong the
        #: locality steal policy avoids.
        self.steals_after_forward = 0
        sim = fabric.sim
        self.busy: Dict[str, BusyTracker] = {
            name: BusyTracker(sim) for name in self.CENTRAL_BLOCKS
        }
        for s in range(self.n_shards):
            for name in self.SHARD_BLOCKS:
                self.busy[f"s{s}.{name}"] = BusyTracker(sim)
        if fabric.dispatch is not None and fabric.dispatch.cache is not None:
            # The TD prefetch engines are Maestro blocks too; their busy
            # trackers exist only when the cache is wired, so the
            # subsystem-off stats keys are unchanged.
            for s in range(self.n_shards):
                self.busy[f"s{s}.prefetch"] = BusyTracker(sim)
        if fabric.resolve.speculative:
            # Same reasoning for the speculative kick units.
            for s in range(self.n_shards):
                self.busy[f"s{s}.kick"] = BusyTracker(sim)
        if fabric.config.decentralized_check_scatter:
            # The per-master scatter slice engines replace the central
            # sequencer; their trackers exist only when the knob is on,
            # so the knob-off stats keys are unchanged (the central
            # ``scatter`` key stays and reads 0.0 under decentralization).
            for m in range(fabric.n_masters):
                self.busy[f"m{m}.scatter"] = BusyTracker(sim)

    def utilization(self, span: int) -> dict:
        """Fraction of ``span`` each Maestro block spent occupied."""
        return {name: t.utilization(span) for name, t in self.busy.items()}

    def start(self) -> None:
        sim = self.fabric.sim
        sim.process(self._write_tp(), name="smaestro.write-tp")
        if self.fabric.config.decentralized_check_scatter:
            # Decentralized scatter: the zero-cycle router, one slice
            # engine per master and one re-sequencer per shard replace
            # the central sequencer process.
            sim.process(self._scatter_route(), name="smaestro.scatter-route")
            for m in range(self.fabric.n_masters):
                sim.process(
                    self._scatter_slice(m), name=f"smaestro.m{m}.scatter"
                )
            for reseq in self.fabric.check_reseq:
                reseq.start()
        else:
            sim.process(self._check_scatter(), name="smaestro.check-scatter")
        pipelined = self.fabric.config.retire_pipeline_depth > 1
        for s in range(self.n_shards):
            sim.process(self._check_engine(s), name=f"smaestro.s{s}.check")
            sim.process(self._gather(s), name=f"smaestro.s{s}.gather")
            sim.process(self._schedule(s), name=f"smaestro.s{s}.schedule")
            sim.process(self._send_tds(s), name=f"smaestro.s{s}.send-tds")
            sim.process(self._finish_engine(s), name=f"smaestro.s{s}.finish")
            sim.process(self._retire_frontend(s), name=f"smaestro.s{s}.retire")
            if pipelined:
                # At depth 1 the front-end gathers inline; starting an idle
                # completion process would add a t=0 event and could perturb
                # same-timestamp tie-breaking in the differential-pinned run.
                sim.process(
                    self._retire_complete(s), name=f"smaestro.s{s}.retire-done"
                )
            if self.fabric.dispatch is not None and self.fabric.dispatch.cache is not None:
                # Same reasoning: the prefetch engine process exists only
                # when the TD cache is wired, so the cache-off machine's
                # event stream is untouched.
                sim.process(
                    self.fabric.dispatch.prefetch_engine(
                        s, self.busy[f"s{s}.prefetch"], self.scoreboard
                    ),
                    name=f"smaestro.s{s}.prefetch",
                )
            if self.fabric.resolve.speculative:
                # The kick unit exists only under speculative kick-off, so
                # the knobs-off machine's event stream is untouched.
                sim.process(
                    self.fabric.resolve.kick_unit(
                        s, self.busy[f"s{s}.kick"], partial(self._kick_waiter, s)
                    ),
                    name=f"smaestro.s{s}.kick",
                )

    # ---- receive helper --------------------------------------------------------

    def _recv(self, inbox):
        """Pop a stamped interconnect message; wait out its flight time."""
        sim = self.fabric.sim
        arrive_at, payload = yield inbox.get()
        if arrive_at > sim.now:
            yield sim.timeout(arrive_at - sim.now)
        return payload

    # ---- Write TP (central, shared body with the single Maestro) -----------------

    def _write_tp(self):
        return write_tp_block(
            self.fabric, self.scoreboard, self.busy["write_tp"], self.n_shards
        )

    # ---- Check Scatter (central program-order sequencer) --------------------------

    def _check_scatter(self):
        fab = self.fabric
        sim = fab.sim
        while True:
            head = yield fab.new_tasks.get()
            self.busy["scatter"].begin()
            # The descriptor Write TP just stored (read, not charged).
            params, _ = fab.task_pool.read_params(head)
            home = fab.home_of[head]
            n = len(params)
            for param in params:
                owner = fab.shard_of(param.addr)
                # One message injected per Nexus cycle; a full inbox
                # backpressures the whole scatter (in-order network).
                yield sim.timeout(fab.cycle)
                msg = fab.icn.message(home, owner, (head, home, param, n))
                yield fab.check_inbox[owner].put(msg)
            self.busy["scatter"].end()

    # ---- Decentralized scatter (router + per-master slice engines) ----------------

    def _scatter_route(self):
        """Zero-cycle scatter router: splits the program-ordered New Tasks
        stream across the per-master scatter slices.

        Routing is combinational fabric, not a sequencer: the router
        charges no cycles — the per-probe injection cycle is paid by the
        slice engines — but it *is* the single program-order point where
        every probe receives its destination shard's scatter sequence
        number, which is what the re-sequencers later restore.  A full
        slice FIFO backpressures the router (and therefore New Tasks),
        mirroring the central sequencer's backpressure on a full inbox.
        """
        fab = self.fabric
        while True:
            head = yield fab.new_tasks.get()
            params, _ = fab.task_pool.read_params(head)
            home = fab.home_of[head]
            n = len(params)
            slice_fifo = fab.scatter_slices[fab.tid_of(head) % fab.n_masters]
            for param in params:
                owner = fab.shard_of(param.addr)
                seq = fab.dest_seq[owner]
                fab.dest_seq[owner] = seq + 1
                yield slice_fifo.put((seq, owner, (head, home, param, n)))

    def _scatter_slice(self, m: int):
        """Per-master scatter slice engine: injects its own master's check
        probes, one per Nexus cycle, independently of the other slices.

        The injection charge and the interconnect accounting are exactly
        the central sequencer's — decentralization buys concurrency
        across masters, not cheaper probes.  Probes leave seq-tagged into
        the destination's ``scatter_out`` channel; ordering across slices
        is the re-sequencer's job.
        """
        fab = self.fabric
        sim = fab.sim
        busy = self.busy[f"m{m}.scatter"]
        slice_fifo = fab.scatter_slices[m]
        while True:
            seq, owner, payload = yield slice_fifo.get()
            busy.begin()
            yield sim.timeout(fab.cycle)
            msg = fab.icn.message(payload[1], owner, payload)
            busy.end()
            yield fab.scatter_out[owner].put((seq, msg))

    # ---- Check engine (per shard; Listing 2 on the shard's table slice) -----------

    def _check_engine(self, s: int):
        """Check engine: intake drain + the staged table probe; a batch of
        one (coalescing off) is Listing 2 on the shard's slice."""
        fab = self.fabric
        busy = self.busy[f"s{s}.check"]
        check = fab.check_pipe
        inbox = fab.check_inbox[s]
        pipelined = check.coalesce_limit > 1

        def reply(msg):
            head, home, _, n = msg
            yield fab.reply_inbox[home].put(fab.icn.message(s, home, (head, n)))

        while True:
            first = yield from self._recv(inbox)
            busy.begin()
            msgs = inbox_intake(fab, inbox, check, first)
            rows = yield from check_update_block(
                fab, s, msgs, pipelined, on_checked=reply
            )
            check.note_batch(len(msgs), rows)
            busy.end()

    # ---- Gather (per shard; closes the check once all replies are in) --------------

    def _gather(self, s: int):
        fab = self.fabric
        sim = fab.sim
        busy = self.busy[f"s{s}.gather"]
        pending: Dict[int, int] = {}
        while True:
            head, n = yield from self._recv(fab.reply_inbox[s])
            left = pending.get(head, n) - 1
            if left:
                pending[head] = left
                continue
            pending.pop(head, None)
            busy.begin()
            yield fab.tp_port.acquire()
            ready = fab.task_pool.finish_check(head)
            yield sim.timeout(fab.on_chip)
            fab.tp_port.release()
            busy.end()
            if ready:
                self.scoreboard.ready[fab.tid_of(head)] = sim.now
                yield fab.shard_ready[s].put(head)
                yield fab.ready_tickets.put(s)
            elif fab.dispatch is not None and fab.dispatch.want_prefetch(head):
                # A chain task is typically born near-ready (DC already at
                # the prefetch threshold when the check closes): stage its
                # TD now, overlapping the wait for the final resolution.
                # The gather unit *is* the home shard — no notice needed.
                fab.dispatch.request_prefetch(s, s, head)

    # ---- Schedule (per shard, with idle-shard stealing) ----------------------------

    def _schedule(self, s: int):
        fab = self.fabric
        sim = fab.sim
        busy = self.busy[f"s{s}.schedule"]
        n = self.n_shards
        locality = fab.config.steal_locality
        # Pool-occupancy cutoff on the politeness: with fewer worker cores
        # than shards, some shards own no cores at all — every task homed
        # there must be stolen anyway, and the worker-owning shards
        # deferring each other's hints only starves their claimed cores
        # (the 8-shard/2-worker regression: locality stealing *slower*
        # than plain ticket stealing).  On such a machine the deferral is
        # disabled outright, collapsing the locality policy to the plain
        # one; hint-first victim choice costs nothing either way.
        polite = locality and fab.config.workers >= n
        while True:
            # Claim a free worker core first: only an idle shard pulls work,
            # which is what makes the ticket consumption a steal request.
            core = yield fab.worker_pools[s].get()
            while True:
                fab.scheduler_armed[s] = True
                hint = yield fab.ready_tickets.get()
                fab.scheduler_armed[s] = False
                victim = s
                head = fab.shard_ready[s].try_get()
                if head is not None or not locality:
                    break
                if polite and hint != s and (
                    len(fab.worker_pools[hint]) > 0 or fab.scheduler_armed[hint]
                ):
                    # Locality policy: leave a task whose home pool already
                    # has an idle worker — or whose scheduler is armed with
                    # a claimed core, one ticket away from dispatching it
                    # locally — for that shard.  Stealing it would re-pay
                    # the forward hop the finish engine just spent sending
                    # the task home (the post-forward ping-pong that
                    # `steals_after_forward` counts).  Re-donating the
                    # ticket circulates it through the waiting schedulers
                    # until the home shard draws it; the home shard never
                    # defers its own hint, so the circulation terminates,
                    # and the re-check each round (the home shard may have
                    # gone busy meanwhile) keeps tickets from stranding.
                    yield sim.timeout(fab.cycle)  # ticket re-enqueue
                    yield fab.ready_tickets.put(hint)
                    continue
                break
            if head is None:
                # Steal: the hint first, then a ring scan.  A consumed
                # ticket holds a claim on a queued task somewhere, so the
                # scan always finds one — refusing every victim would
                # strand that claim (and the ticket) forever.
                victim = hint
                head = fab.shard_ready[hint].try_get()
            offset = 1
            while head is None:
                victim = (s + offset) % n
                head = fab.shard_ready[victim].try_get()
                offset += 1
            busy.begin()
            if victim != s:
                self.steals += 1
                if head in fab.forwarded_ready:
                    self.steals_after_forward += 1
                yield sim.timeout(fab.icn.charge_round_trip(s, victim))
            fab.forwarded_ready.discard(head)
            yield sim.timeout(2 * fab.cycle)  # pop both lists, push one
            tid = fab.tid_of(head)
            sb = self.scoreboard
            sb.dispatched[tid] = sim.now
            sb.core[tid] = core
            busy.end()
            yield fab.rdy_fifo[core].put(head)

    # ---- Send TDs (per shard: one TD link per shard's workers) ---------------------

    def _send_tds(self, s: int):
        dispatch = self.fabric.dispatch
        return send_tds_block(
            self.fabric,
            self.fabric.td_request_shard[s],
            self.busy[f"s{s}.send_tds"],
            cache=dispatch.cache if dispatch is not None else None,
            shard=s,
        )

    # ---- Retire front-end (per shard: issue half — param read + finish scatter) ----

    def _retire_frontend(self, s: int):
        fab = self.fabric
        sim = fab.sim
        busy = self.busy[f"s{s}.retire"]
        pipelined = fab.config.retire_pipeline_depth > 1
        while True:
            core = yield fab.finished_notify_shard[s].get()
            busy.begin()
            yield sim.timeout(fab.cycle)  # observe + acknowledge the 1-bit line
            head = yield fab.fin_fifo[core].get()
            tid = fab.tid_of(head)
            if pipelined:
                # Charge a retire ticket: an empty ticket FIFO is the
                # backpressure that bounds the in-flight finish count.
                ticket = yield fab.retire_tickets[s].get()
            else:
                # Serialized mode never has a second finish in flight, so
                # ticket slot 0 is always free — no FIFO event, keeping the
                # depth-1 machine cycle-identical to the pre-pipelining one.
                ticket = 0
            fab.note_retire_issue(s)
            yield fab.tp_port.acquire()
            params, accesses = fab.task_pool.read_params(head)
            yield sim.timeout(accesses * fab.on_chip)
            fab.tp_port.release()
            if pipelined:
                # Register the gather entry before the first scatter message
                # leaves: a reply can never find its ticket missing.
                fab.retire_gather[s][ticket] = RetireSlot(
                    head=head, core=core, remaining=len(params)
                )
            for param in params:
                owner = fab.shard_of(param.addr)
                yield sim.timeout(fab.cycle)
                msg = fab.icn.message(s, owner, (head, s, ticket, param))
                yield fab.finish_inbox[owner].put(msg)
            if pipelined:
                # Hand off to the completion unit; the front-end is free to
                # issue the next finish while replies are still in flight.
                busy.end()
                continue
            # Serialized (depth 1) tail: gather the replies inline — the one
            # finish in flight is ticket 0, so the reply count alone closes
            # it — then free the chain and recycle the core.
            for _ in params:
                yield from self._recv(fab.retire_inbox[s])
            del fab.home_of[head]
            yield from retire_free_block(fab, head)
            fab.note_retire_done(s)
            busy.end()
            yield fab.worker_pools[fab.core_shard(core)].put(core)
            self.retired += 1
            self.scoreboard.note_completed(tid, sim.now)

    # ---- Retire completion (per shard: gather half — per-ticket reply count) -------

    def _retire_complete(self, s: int):
        fab = self.fabric
        sim = fab.sim
        busy = self.busy[f"s{s}.retire_done"]
        gather = fab.retire_gather[s]
        while True:
            ticket = yield from self._recv(fab.retire_inbox[s])
            slot = gather[ticket]
            slot.remaining -= 1
            if slot.remaining:
                continue
            # Last reply for this ticket: retire the task.  Tickets close in
            # reply-arrival order (a reorder/free stage), which is safe —
            # the TP Free Indices list is an unordered pool and no other
            # block touches a head past its finish scatter.
            busy.begin()
            del gather[ticket]
            tid = fab.tid_of(slot.head)
            del fab.home_of[slot.head]
            yield from retire_free_block(fab, slot.head)
            fab.note_retire_done(s)
            busy.end()
            yield fab.retire_tickets[s].put(ticket)
            yield fab.worker_pools[fab.core_shard(slot.core)].put(slot.core)
            self.retired += 1
            self.scoreboard.note_completed(tid, sim.now)

    # ---- Finish engine (per shard: the staged resolve pipeline) --------------------

    def _kick_waiter(self, s: int, releaser_tid: int, waiter_head: int):
        """Stage-3 kick body: DC decrement plus the became-ready hand-off.

        Shared by the inline path and the speculative kick unit, so the
        kick timing (and the fast-dispatch hooks riding on it) cannot
        drift between the two modes.
        """
        fab = self.fabric
        sim = fab.sim
        dispatch = fab.dispatch
        became_ready = yield from waiter_kick_block(fab, waiter_head)
        if not became_ready:
            if dispatch is not None and dispatch.want_prefetch(waiter_head):
                # Near-ready: post the non-blocking prefetch notice to the
                # waiter's home shard so its TD is staged while the last
                # dependence resolves.
                dispatch.request_prefetch(s, fab.home_of[waiter_head], waiter_head)
            return
        home = fab.home_of[waiter_head]
        waiter_tid = fab.tid_of(waiter_head)
        sb = self.scoreboard
        sb.ready[waiter_tid] = sim.now
        sb.released_by[waiter_tid] = releaser_tid
        if dispatch is not None and dispatch.fast_path:
            # Kick-off fast path: hand the became-ready waiter to an idle
            # *local* worker, skipping the home-shard forward hop and the
            # scheduler round trip.  Claiming the core id from the pool
            # reserves its CiRdyTasks slot, exactly as the scheduler's
            # claim does.
            core = fab.worker_pools[s].try_get()
            if core is not None:
                if home != s:
                    # Non-blocking ownership notice: the home shard learns
                    # dispatch moved here; retirement bookkeeping (keyed
                    # off the worker's shard) is unchanged.  The notice
                    # carries any staged descriptor to this shard's
                    # TD-link bank.
                    fab.icn.post(s, home)
                    fab.home_of[waiter_head] = s
                    if dispatch.cache is not None:
                        dispatch.cache.move(waiter_head, s)
                dispatch.note_fast_dispatch(remote=home != s)
                yield sim.timeout(2 * fab.cycle)  # pop pool, push rdy
                sb.dispatched[waiter_tid] = sim.now
                sb.core[waiter_tid] = core
                yield fab.rdy_fifo[core].put(waiter_head)
                return
        if home != s:
            # The ready task id travels to its home shard.
            yield sim.timeout(fab.icn.charge_hop(s, home))
            fab.forwarded_ready.add(waiter_head)
        yield fab.shard_ready[home].put(waiter_head)
        yield fab.ready_tickets.put(home)

    def _finish_engine(self, s: int):
        # Per-address ordering on the finish path: messages for one address
        # from one retiring shard arrive in finish order (serial scatter +
        # in-order delivery per source), the intake drains batches in
        # arrival order, and the table-update stage applies same-row
        # updates in that order within one merged access — the rule that
        # keeps pipelined retirement safe under coalescing (ARCHITECTURE.md
        # invariants 3 and 5).
        fab = self.fabric
        busy = self.busy[f"s{s}.finish"]
        resolve = fab.resolve
        inbox = fab.finish_inbox[s]

        kick_waiter = partial(self._kick_waiter, s)

        def kick(grants):
            # Stage 3, per committed row group so an early grant is never
            # delayed behind an unrelated row.
            return resolve.kick_grants(s, grants, kick_waiter)

        while True:
            first = yield from self._recv(inbox)
            busy.begin()
            msgs = inbox_intake(fab, inbox, resolve, first)
            yield from table_update_block(
                fab,
                s,
                [(head, param) for head, _, _, param in msgs],
                on_grants=kick,
                # The decoupled kick unit may take grants the moment they
                # are computed, overlapping the row's commit latency.
                grants_early=resolve.speculative,
            )
            busy.end()
            # The reply is the ticket: the retiring shard's gather table
            # maps it back to the task, never relying on arrival order.
            for head, src, ticket, param in msgs:
                yield fab.retire_inbox[src].put(fab.icn.message(s, src, ticket))
