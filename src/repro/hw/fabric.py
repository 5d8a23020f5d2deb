"""The machine fabric: every queue, table and port the components share.

Fig. 2 of the paper is a block diagram of FIFO lists and 1-bit signals
between Task Maestro blocks and the per-core Task Controllers; this module
is that diagram as a data structure.  The Maestro, Task Controllers and
master core all receive the same :class:`Fabric` instance and communicate
exclusively through it.

Every machine builds the Maestro-side structures as per-shard lists —
Dependence Table slices (``dep_shards``) with their ports and slots-freed
signals, ready lists (``shard_ready``), Worker Cores IDs lists
(``worker_pools``) and the TD-request / task-finished lines.  The paper's
single Maestro is the one-slice machine and reads index 0 of each list.
Beyond the paper, the fabric can also be built **sharded**
(``config.use_sharded_maestro``): the Dependence Table is hash-partitioned
over ``maestro_shards`` Maestro instances joined by a ring
:class:`Interconnect`, and only the sharded engine gets the interconnect,
its message inboxes, the ready tickets, the home-shard map and the
fast-dispatch subsystem.

A second extension parallelizes the *submission* side
(``config.use_parallel_frontend``): ``master_cores`` master cores each
stream a round-robin slice of the trace into their own TDs buffer, and a
sequence-numbered :class:`MergeUnit` reassembles global program order in
front of Write TP.  With one master the buffers and merge unit are not
built and the master feeds the central TDs Buffer directly, exactly as in
the paper.

A third extension pipelines the *retirement* side
(``config.retire_pipeline_depth``): each shard's retire front-end owns a
pool of **retire tickets** (``retire_tickets``), and every finish-scatter
message and finish reply carries its ticket so the per-shard, per-ticket
gather tables (``retire_gather``) can count replies for several in-flight
finishes independently.

A fourth extension shortens the *dispatch* path
(``config.use_fast_dispatch``): per-shard TD prefetch caches stage
near-ready waiters' descriptors next to the TD links, and the kick-off
fast path lets a resolving shard dispatch a became-ready waiter straight
to an idle local worker (see :mod:`repro.hw.dispatch`).  The subsystem's
structures (``Fabric.dispatch``) exist only when a feature is enabled.

A fifth extension stages the *resolve* path
(``config.finish_coalesce_limit`` / ``config.speculative_kickoff``): the
finish/kick loop of both engines runs on the shared staged blocks of
:mod:`repro.hw.resolve` (``Fabric.resolve`` owns the knobs, coalescing
counters and — only when speculative kick-off is on — the per-shard kick
queues their kick units drain).

A sixth extension decentralizes the *check* path
(``config.decentralized_check_scatter`` / ``config.check_coalesce_limit``):
the central Check Scatter sequencer is replaced by per-master **scatter
slices** — a zero-cycle router splits the program-ordered New Tasks stream
across ``scatter_slices[tid % n_masters]``, stamping every check probe with
a per-destination-shard sequence number — and a :class:`CheckResequencer`
per shard restores injection order from ``scatter_out`` before the probes
enter ``check_inbox``, exactly as the :class:`MergeUnit` restores
submission order.  Per destination shard the probe stream is a
re-sequenced permutation of the central sequencer's stream, so the
per-address program order of checks (the Check Scatter invariant) is
preserved.  ``Fabric.check_pipe`` (see :mod:`repro.hw.resolve`) owns the
check-side coalescing knobs and counters; with both knobs off none of
these structures are built and the machine is cycle-for-cycle the
PR 5 machine.

Interconnect message formats (payloads of :meth:`Interconnect.message`):

==================  =================================  =======================
queue               payload                            direction
==================  =================================  =======================
``check_inbox``     ``(head, home, param, n_params)``  home shard -> owner
``scatter_out``     ``(seq, check-inbox message)``     master slice -> owner
``reply_inbox``     ``(head, n_params)``               owner -> home (gather)
``finish_inbox``    ``(head, src, ticket, param)``     retiring shard -> owner
``retire_inbox``    ``ticket``                         owner -> retiring shard
==================  =================================  =======================

``scatter_out`` wraps an already-stamped check-inbox message with its
destination shard's scatter sequence number ``seq``; the shard's
re-sequencer forwards messages strictly in ``seq`` order.

``ticket`` is the retire-ticket slot (0 .. ``retire_pipeline_depth`` - 1)
the retiring shard charged for the finish; replies are matched to their
task through ``retire_gather[src][ticket]``, never by arrival order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import pairwise
from typing import Dict, List, Tuple

from ..config import SystemConfig
from ..sim import Fifo, LevelStat, Resource, Signal, Simulator
from ..traces.trace import TaskTrace
from .dependence_table import DependenceTable, shard_hash
from .errors import CapacityError
from .memory import MemorySystem
from .task_pool import TaskPool

__all__ = ["CheckResequencer", "Fabric", "Interconnect", "MergeUnit", "RetireSlot"]


@dataclass
class RetireSlot:
    """Per-ticket gather state of one in-flight finish.

    Registered in ``Fabric.retire_gather[shard][ticket]`` *before* the first
    finish-scatter message leaves the shard, so a reply can never find its
    ticket missing; ``remaining`` counts the outstanding finish replies and
    the slot is torn down when it reaches zero.
    """

    head: int  #: Task Pool head index of the finishing task.
    core: int  #: Worker core to recycle once the chain is freed.
    remaining: int  #: Finish replies still outstanding.


class MergeUnit:
    """Sequence-numbered merge: restores global program order in front of
    Write TP when several master cores submit in parallel.

    Each master submits a round-robin slice of the trace in its own program
    order, tagging every descriptor with its global sequence number (the
    task's index in the trace).  The merge unit therefore always knows
    which per-master buffer holds the next descriptor — ``seq % n_masters``
    — and simply blocks on that buffer, forwarding one descriptor per Nexus
    cycle into the central TDs Buffer.  Downstream of the merge the
    descriptor stream is exactly the single-master stream, so the Check
    Scatter invariant (per-address checks observed in program order) holds
    untouched.
    """

    def __init__(self, fabric: "Fabric"):
        self.fabric = fabric
        #: Global sequence number the unit expects next.
        self.next_seq = 0
        #: Descriptors forwarded so far (equals tasks reaching Write TP).
        self.merged = 0

    def start(self) -> None:
        self.fabric.sim.process(self._run(), name="merge-unit")

    def _run(self):
        fab = self.fabric
        sim = fab.sim
        n_masters = fab.config.master_cores
        total = len(fab.trace)
        while self.next_seq < total:
            src = self.next_seq % n_masters
            # A descriptor's task id is its global sequence number.
            seq = yield fab.master_buffers[src].get()
            if seq != self.next_seq:
                raise RuntimeError(
                    f"merge unit expected sequence {self.next_seq}, got {seq} "
                    f"from master {src} (per-master streams out of order)"
                )
            yield sim.timeout(fab.cycle)  # reorder-slot pop + central push
            yield fab.tds_buffer.put(seq)
            self.next_seq += 1
            self.merged += 1


class CheckResequencer:
    """Per-shard sequence-numbered reorder unit for the decentralized
    check scatter.

    Each master's scatter slice injects its check probes independently, so
    probes bound for one shard can arrive out of program order.  Unlike the
    :class:`MergeUnit` — whose next source is statically ``seq % n_masters``
    — the next probe's source slice depends on the trace, so the unit keeps
    a small reorder buffer keyed by sequence number: out-of-order arrivals
    are held, and whenever the expected sequence number is present the unit
    waits out the message's stamped flight time and forwards it into the
    shard's check inbox, one probe per Nexus cycle.  Downstream of the
    re-sequencer the probe stream is exactly the central sequencer's
    stream for this shard, so the Check Scatter invariant (per-address
    checks observed in program order) holds untouched.
    """

    def __init__(self, fabric: "Fabric", shard: int):
        self.fabric = fabric
        self.shard = shard
        #: Scatter sequence number the unit expects next.
        self.next_seq = 0
        #: Probes forwarded into the shard's check inbox so far.
        self.forwarded = 0
        #: High-water mark of the reorder buffer (out-of-order arrivals).
        self.max_held = 0
        self._held: Dict[int, Tuple[int, object]] = {}

    def start(self) -> None:
        self.fabric.sim.process(
            self._run(), name=f"s{self.shard}-check-reseq"
        )

    def _run(self):
        fab = self.fabric
        sim = fab.sim
        inbox = fab.scatter_out[self.shard]
        while True:
            seq, msg = yield inbox.get()
            if seq < self.next_seq or seq in self._held:
                raise RuntimeError(
                    f"shard {self.shard} check re-sequencer saw sequence "
                    f"{seq} twice (expected {self.next_seq} next); a scatter "
                    "slice replayed or reordered its own stream"
                )
            self._held[seq] = msg
            if len(self._held) > self.max_held:
                self.max_held = len(self._held)
            while self.next_seq in self._held:
                arrive_at, payload = self._held.pop(self.next_seq)
                if arrive_at > sim.now:
                    yield sim.timeout(arrive_at - sim.now)
                yield sim.timeout(fab.cycle)  # reorder-slot pop + inbox push
                yield fab.check_inbox[self.shard].put((sim.now, payload))
                self.next_seq += 1
                self.forwarded += 1


class Interconnect:
    """Ring interconnect between Maestro shards with per-hop latency.

    Messages are injected in program order and delivered in injection order
    per destination (an in-order network); the ring-distance latency is
    charged at the receiver, which waits until a message's stamped arrival
    time before processing it.  ``message()`` wraps a payload with that
    arrival stamp and records traffic statistics.
    """

    def __init__(self, sim: Simulator, n_shards: int, hop_time: int):
        if n_shards < 1:
            raise ValueError("interconnect needs at least one shard")
        self.sim = sim
        self.n_shards = n_shards
        self.hop_time = hop_time
        self.messages = 0
        self.cross_shard_messages = 0
        self.total_hops = 0

    def distance(self, src: int, dst: int) -> int:
        """Ring hop count between two shards (shortest direction)."""
        d = abs(src - dst)
        return min(d, self.n_shards - d)

    def delay(self, src: int, dst: int) -> int:
        """Flight time of a message from shard ``src`` to shard ``dst``."""
        return self.distance(src, dst) * self.hop_time

    def _account(self, src: int, dst: int, n_messages: int) -> int:
        """Record ``n_messages`` between two shards; returns the hop count."""
        hops = self.distance(src, dst)
        self.messages += n_messages
        if hops:
            self.cross_shard_messages += n_messages
            self.total_hops += n_messages * hops
        return hops

    def message(self, src: int, dst: int, payload) -> Tuple[int, object]:
        """Stamp ``payload`` with its arrival time and count the traffic."""
        hops = self._account(src, dst, 1)
        return (self.sim.now + hops * self.hop_time, payload)

    def charge_hop(self, src: int, dst: int) -> int:
        """Latency of a one-way message whose flight the sender waits out."""
        return self._account(src, dst, 1) * self.hop_time

    def charge_round_trip(self, src: int, dst: int) -> int:
        """Latency of a request/response pair (used by work stealing)."""
        return 2 * self._account(src, dst, 2) * self.hop_time

    def post(self, src: int, dst: int) -> None:
        """Account a one-way message nobody waits out: the fast-dispatch
        ownership notices and near-ready prefetch notices are fire-and-
        forget by design (posting them must never stall resolution), but
        they are real traffic and show up in the interconnect stats."""
        self._account(src, dst, 1)

    def stats(self) -> dict:
        return {
            "messages": self.messages,
            "cross_shard_messages": self.cross_shard_messages,
            "total_hops": self.total_hops,
            "mean_hops": self.total_hops / self.messages if self.messages else 0.0,
        }


class Fabric:
    """Shared state of one Nexus++ machine instance."""

    def __init__(self, sim: Simulator, config: SystemConfig, trace: TaskTrace):
        self.sim = sim
        self.config = config
        self.trace = trace
        cycle = config.nexus_cycle

        #: Number of Maestro shards (1 = the paper's single Maestro).
        self.n_shards = config.maestro_shards
        #: True when the sharded Maestro subsystem is wired in.
        self.sharded = config.use_sharded_maestro
        #: Number of master cores (1 = the paper's serial master).
        self.n_masters = config.master_cores
        #: True when per-master TDs buffers + the merge unit are wired in.
        self.parallel_frontend = config.use_parallel_frontend

        #: Fast-dispatch subsystem owner (sharded machines with a feature
        #: on; ``None`` otherwise — see ``_build_shards``).
        self.dispatch = None

        # Before any channel exists, so a rejected trace leaves no cycles.
        self._check_fit(trace, config.dt_entries_per_shard)

        # ---- tables -------------------------------------------------------------
        self.task_pool = TaskPool(
            config.task_pool_entries, config.max_params_per_td, config.restricted
        )
        # The Task Pool SRAM exposes ``tp_ports`` concurrent access ports
        # (default: one, the paper's single arbitration; a pipelined retire
        # machine derives retire_pipeline_depth ports, shared by all shards
        # and blocks — per-entry busy bits in the real hardware allow
        # concurrent access to distinct entries, which a single port
        # under-models).  Maestro blocks arbitrate for a port per table
        # operation.
        self.tp_port = Resource(sim, config.tp_ports, name="tp-port")
        n = self.n_shards
        #: Dependence Table slices: shard ``shard_of(addr)`` owns every
        #: entry for ``addr`` (one slice — the paper's table — at 1 shard).
        self.dep_shards: List[DependenceTable] = [
            DependenceTable(
                config.dt_entries_per_shard,
                config.kickoff_list_size,
                config.restricted,
            )
            for _ in range(n)
        ]
        self.dt_ports: List[Resource] = [
            Resource(sim, 1, name=f"s{s}-dt-port") for s in range(n)
        ]
        #: Raised by a slice's resolve stage whenever its Dependence Table
        #: slots free up, so a stalled check can retry its allocation.
        self.dt_freed_shard: List[Signal] = [
            Signal(sim, name=f"s{s}-dt-freed") for s in range(n)
        ]
        if self.sharded:
            self._build_shards()

        # Staged resolve pipeline (finish-notification coalescing +
        # speculative kick-off): the owner exists on every machine — its
        # counters are free bookkeeping — but kick queues/processes are
        # built only when a knob is on, so the knobs-off machine carries
        # no extra events (see repro.hw.resolve).
        from .resolve import CheckPipeline, ResolvePipeline

        #: Staged resolve pipeline owner (both engines).
        self.resolve = ResolvePipeline(self)

        #: Check-path pipeline owner (decentralized scatter + check-side
        #: coalescing): like ``resolve``, the owner exists on every machine
        #: — counters are free bookkeeping — while the scatter structures
        #: above are built only when the knob is on.
        self.check_pipe = CheckPipeline(self)

        #: Time-weighted kick-off waiter occupancy, one recorder per
        #: Dependence Table (slice): how many tasks sat queued in
        #: Kick-Off Lists over time — the live-hazard signal the
        #: admission-throttle study reads (bookkeeping only, no events).
        self.kickoff_waiters: List[LevelStat] = []
        for table in self.dep_shards:
            stat = LevelStat(sim)
            table.waiter_stat = stat
            self.kickoff_waiters.append(stat)

        # ---- memory ---------------------------------------------------------------
        self.memory = MemorySystem(sim, config)

        # ---- Maestro-side FIFO lists (Table IV) -------------------------------------
        #: Get TDs block buffering (TDs Buffer + TDs Sizes list): decouples
        #: the master from Write TP; the master stalls when it fills.
        self.tds_buffer: Fifo = Fifo(
            sim, config.tds_sizes_list_entries, "tds-buffer", track_occupancy=True
        )
        if self.parallel_frontend:
            # One TDs buffer per master core, feeding the merge unit with
            # (sequence number, descriptor) pairs; the TDs Sizes capacity is
            # split evenly across the masters.
            self.master_buffers: List[Fifo] = [
                Fifo(
                    sim,
                    config.master_buffer_entries,
                    f"m{m}-tds-buffer",
                    track_occupancy=True,
                )
                for m in range(self.n_masters)
            ]
            self.merge = MergeUnit(self)
        self.new_tasks: Fifo = Fifo(sim, config.new_tasks_list_entries, "new-tasks")
        # The TP Free Indices list holds every Task Pool index, and each
        # shard's ready list as many tasks as the pool (a ready task keeps
        # its entry), so neither ever fills.  A smaller ready list could:
        # the finish engine would stall on it while holding the worker
        # cores the scheduler needs to drain it.
        pool = config.task_pool_entries
        self.tp_free: Fifo = Fifo(sim, pool, "tp-free-indices")
        for idx in range(pool):
            self.tp_free.try_put(idx)
        # Per-shard ready lists + Worker Cores IDs lists: workers are
        # assigned to shards round-robin (core -> core % n_shards).  The
        # paper's list "contains initially all worker cores IDs (repeated
        # 'buffering depth' times)" — round-robin order so one pass hands
        # every core a task before any core gets its second.  Each list
        # holds exactly its shard's share, so it never fills either.
        self.shard_ready: List[Fifo] = [
            Fifo(sim, pool, f"s{s}-ready", track_occupancy=True)
            for s in range(n)
        ]
        worker_ids = -(-config.workers // n) * config.buffering_depth
        self.worker_pools: List[Fifo] = [
            Fifo(sim, worker_ids, f"s{s}-worker-ids") for s in range(n)
        ]
        for _ in range(config.buffering_depth):
            for core in range(config.workers):
                self.worker_pools[core % n].try_put(core)

        # ---- per-core channels ----------------------------------------------------------
        depth = config.buffering_depth
        self.rdy_fifo: List[Fifo] = [
            Fifo(sim, depth, f"c{c}-rdy-tasks") for c in range(config.workers)
        ]
        self.fin_fifo: List[Fifo] = [
            Fifo(sim, depth, f"c{c}-fin-tasks") for c in range(config.workers)
        ]
        self.td_channel: List[Fifo] = [
            Fifo(sim, 1, f"c{c}-td-link") for c in range(config.workers)
        ]
        # Request/notification lines are point-to-point wires: each worker
        # core's lines terminate at its own shard's Send TDs block and
        # Handle Finished (retire) front-end, as (core, tp_head) pairs and
        # core ids.  The notify lines are occupancy-tracked: they are the
        # single engine's resolve-stage intake queue.
        self.td_request_shard: List[Fifo] = [
            Fifo(sim, config.workers * depth, f"s{s}-td-requests")
            for s in range(n)
        ]
        self.finished_notify_shard: List[Fifo] = [
            Fifo(sim, config.workers * depth, f"s{s}-finished-notify",
                 track_occupancy=True)
            for s in range(n)
        ]

        # ---- task identity --------------------------------------------------------------
        #: TP head index -> trace task id of the in-flight task (index reuse
        #: is safe: an index is only recycled after Handle Finished retires
        #: the task).  Blocks read the task's fields from the trace columns
        #: by that id.
        self.inflight: Dict[int, int] = {}
        self.on_chip = config.on_chip_access_time
        self.cycle = cycle

    def _check_fit(self, trace: TaskTrace, slice_entries: int) -> None:
        """Pre-validate the trace against the Dependence Table, on its
        columns: the hardware compares base addresses, so a task listing
        the same address twice would race against itself.  A task's check
        holds one table entry per distinct address in each slice until it
        completes, so a task with more addresses in one slice than the
        slice has entries would wait forever on slots it holds itself:
        reject it by name before the first event.  Tasks are checked in
        program order, so the first task that cannot run names the error."""
        addrs = trace.param_addr
        for tid, (lo, hi) in enumerate(pairwise(trace.param_offsets)):
            width = hi - lo
            if width > 1 and len(set(addrs[lo:hi])) < width:
                raise ValueError(
                    f"task {tid} lists a base address twice; Nexus++ "
                    "tracks dependencies per base address (merge the "
                    "parameters into a single inout)"
                )
            if width > slice_entries:
                per_slice = Counter(map(self.shard_of, addrs[lo:hi]))
                s, count = per_slice.most_common(1)[0]
                if count > slice_entries:
                    raise CapacityError(
                        f"task {tid} needs {count} Dependence Table "
                        f"entries in slice {s} but the slice only has "
                        f"{slice_entries} (dt_entries_per_shard)"
                    )

    def _build_shards(self) -> None:
        """Wire the sharded-only structures (interconnect, inboxes, ready
        tickets, retire tickets, home map, fast dispatch)."""
        sim, config = self.sim, self.config
        n = self.n_shards
        self.icn = Interconnect(sim, n, config.shard_hop_time)
        #: One ticket per task sitting in some shard's ready list; the
        #: payload is the home shard (a locality hint for stealing).
        self.ready_tickets: Fifo = Fifo(
            sim, config.task_pool_entries, "ready-tickets"
        )
        # Scatter/gather message queues.  Check and finish requests travel
        # on separate virtual channels so a check stalled on a full shard
        # table can never block the finish traffic that will free it.
        depth = config.shard_inbox_entries
        self.check_inbox: List[Fifo] = [
            Fifo(sim, depth, f"s{s}-check-inbox") for s in range(n)
        ]
        # Finish inboxes are occupancy-tracked: they are the sharded
        # resolve stage's intake queues, and their time-weighted depth is
        # the finish-engine queueing component of the resolve hop.
        self.finish_inbox: List[Fifo] = [
            Fifo(sim, depth, f"s{s}-finish-inbox", track_occupancy=True)
            for s in range(n)
        ]
        # Gather channels are sized for every in-flight parameter so a
        # reply can always be posted (no retirement deadlock).
        reply_cap = config.task_pool_entries * config.max_params_per_td
        self.reply_inbox: List[Fifo] = [
            Fifo(sim, reply_cap, f"s{s}-check-replies") for s in range(n)
        ]
        self.retire_inbox: List[Fifo] = [
            Fifo(sim, reply_cap, f"s{s}-finish-replies") for s in range(n)
        ]
        # Decentralized check scatter: per-master scatter slices fed by a
        # zero-cycle router at New Tasks, per-shard seq-tagged scatter-out
        # channels, and the re-sequencers that restore injection order in
        # front of the check inboxes.  Built only when the knob is on, so
        # the knob-off machine carries no extra FIFOs or processes.
        if config.decentralized_check_scatter:
            # The New Tasks capacity is split across the slices (rounded
            # up), mirroring the per-master TDs buffer split.
            slice_depth = -(-config.new_tasks_list_entries // self.n_masters)
            self.scatter_slices: List[Fifo] = [
                Fifo(
                    sim,
                    slice_depth,
                    f"m{m}-scatter-slice",
                    track_occupancy=True,
                )
                for m in range(self.n_masters)
            ]
            # Sized like the gather channels: one slot per in-flight
            # parameter, so a slice can always inject (no scatter deadlock).
            self.scatter_out: List[Fifo] = [
                Fifo(sim, reply_cap, f"s{s}-scatter-out") for s in range(n)
            ]
            self.check_reseq: List[CheckResequencer] = [
                CheckResequencer(self, s) for s in range(n)
            ]
            #: Next scatter sequence number per destination shard; advanced
            #: by the router in program order at New Tasks.
            self.dest_seq: List[int] = [0] * n
        #: TP head index -> home shard of the in-flight task's descriptor.
        self.home_of: Dict[int, int] = {}
        # Retire pipelining: each shard's front-end charges one ticket per
        # finish it puts in flight; an empty ticket FIFO is the backpressure
        # that bounds the pipeline at ``retire_pipeline_depth``.
        depth = config.retire_pipeline_depth
        self.retire_tickets: List[Fifo] = [
            Fifo(sim, depth, f"s{s}-retire-tickets") for s in range(n)
        ]
        for fifo in self.retire_tickets:
            for ticket in range(depth):
                if not fifo.try_put(ticket):
                    raise ValueError("retire ticket FIFO cannot hold all tickets")
        #: Per-shard per-ticket gather tables: ticket -> RetireSlot.
        self.retire_gather: List[Dict[int, RetireSlot]] = [{} for _ in range(n)]
        # Fast-dispatch subsystem (TD prefetch caches + kick-off fast
        # path): built only when a feature is on, so the subsystem-off
        # machine carries no extra FIFOs, processes or events and stays
        # cycle-for-cycle the pre-dispatch machine.
        if config.use_fast_dispatch:
            from .dispatch import FastDispatch

            self.dispatch = FastDispatch(self)
        #: Heads whose entry into a ready list was paid for by a finish
        #: engine's cross-shard forward hop; a steal of one of these is
        #: the post-forward ping-pong the `steals_after_forward` stat
        #: makes visible (bookkeeping only — no simulation events).
        self.forwarded_ready: set = set()
        #: True while a shard's scheduler holds a claimed worker core and
        #: is waiting on the ready-ticket FIFO — the shard will dispatch
        #: its own next ready task the moment a ticket lands.  The
        #: locality steal policy treats an armed victim like one with an
        #: idle worker: stealing from it is the post-forward ping-pong.
        #: (Bookkeeping only — a 1-bit status line, no simulation events.)
        self.scheduler_armed: List[bool] = [False] * n
        #: Time-weighted in-flight finish count per shard (mean, histogram
        #: and pipeline-full fraction feed the machine's retire stats).
        self.retire_inflight: List[LevelStat] = [LevelStat(sim) for _ in range(n)]
        self._retire_inflight_count: List[int] = [0] * n

    def close(self) -> None:
        """Release a finished machine by reference counting: close the
        simulator and drop the sub-blocks that point back at the fabric
        (the resolve and check pipelines, the merge unit, the check
        re-sequencers and fast dispatch).  Read their statistics first."""
        self.sim.close()
        self.resolve = self.check_pipe = self.merge = self.dispatch = None
        self.check_reseq = []

    def note_retire_issue(self, s: int) -> None:
        """Record one more finish in flight at shard ``s`` (stats only)."""
        self._retire_inflight_count[s] += 1
        self.retire_inflight[s].record(self._retire_inflight_count[s])

    def note_retire_done(self, s: int) -> None:
        """Record one finish leaving flight at shard ``s`` (stats only)."""
        self._retire_inflight_count[s] -= 1
        self.retire_inflight[s].record(self._retire_inflight_count[s])

    # ---- shard routing ---------------------------------------------------------

    def shard_of(self, addr: int) -> int:
        """Owning Maestro shard of an address (same multiplicative hash
        family as the Dependence Table, mixed with a different constant so
        partitioning stays independent of each shard's bucket hashing)."""
        if self.n_shards == 1:
            return 0
        return shard_hash(addr, self.n_shards)

    def core_shard(self, core: int) -> int:
        """Maestro shard a worker core's request/notify lines terminate at."""
        return core % self.n_shards

    def td_request_fifo(self, core: int) -> Fifo:
        """Where a Task Controller posts its TD requests."""
        return self.td_request_shard[self.core_shard(core)]

    def notify_fifo(self, core: int) -> Fifo:
        """Where a Task Controller raises its task-finished line."""
        return self.finished_notify_shard[self.core_shard(core)]

    def tid_of(self, head: int) -> int:
        """Trace task id of the in-flight task at TP head ``head``."""
        return self.inflight[head]

    def dep_table_stats(self) -> dict:
        """Dependence Table statistics merged across the slices: sizes and
        counts add, high-water shapes take the largest slice's."""
        per_shard = [t.stats() for t in self.dep_shards]
        summed = ("occupied", "high_water", "dummy_entries_created")
        merged = {
            key: (sum if key in summed else max)(st[key] for st in per_shard)
            for key in per_shard[0]
            if key != "mean_probes"
        }
        lookups = sum(t.total_lookups for t in self.dep_shards)
        probes = sum(t.total_probes for t in self.dep_shards)
        merged["mean_probes"] = probes / lookups if lookups else 0.0
        return merged
