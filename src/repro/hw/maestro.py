"""The Task Maestro: Nexus++'s central task-management engine (Fig. 2).

Four concurrently running hardware blocks, each a simulation process:

* **Write TP** — pulls received Task Descriptors out of the TDs Buffer,
  allocates Task Pool indices from the TP Free Indices list (spilling wide
  parameter lists into dummy tasks), stores the descriptor and pushes the
  new task's ID onto the New Tasks list.
* **Check Deps** — resolves the new task's dependencies against the
  Dependence Table (Listing 2); ready tasks go to the Global Ready list.
* **Schedule** — pairs ready tasks with worker-core slots from the Worker
  Cores IDs list (round-robin load balancing: a core's ID re-enters the
  list tail when a task of it retires).
* **Send TDs** — serves Task Controllers' TD requests: reads the Task Pool,
  streams the descriptor over the on-chip link and logs the task's ID into
  that core's CiFinTasks list for later retirement.
* **Handle Finished** — on a task-finished notification: reads the finished
  ID from CiFinTasks, walks its parameter list updating the Dependence
  Table, kicks off released waiters (decrementing their Dependence
  Counters), frees the Task Pool chain and returns the worker-core ID.
  Since the staged-resolve refactor the body runs on the shared resolve
  blocks of :mod:`repro.hw.resolve` (notify intake → dependence-table
  update → waiter kick), so finish-notification coalescing and
  speculative kick-off apply to this engine exactly as to the sharded
  one; with both knobs off the loop is cycle-for-cycle the paper's.

The *Get TDs* block of the paper is the `tds_buffer` FIFO itself — its job
is decoupling the master from Write TP, which a buffered channel models
exactly.

Timing: every table access costs ``on_chip_access_time`` (hash lookups cost
one access per probe), FIFO manipulations cost one Nexus cycle, and TD
transfers to Task Controllers use the on-chip-bus word timing.  Tables are
port-arbitrated through ``tp_port``/``dt_port`` (the Task Pool exposes
``SystemConfig.tp_ports`` concurrent ports; the paper-default machine has
one).

Three block bodies are shared with the sharded Maestro so their timing
cannot drift between engines (the differential tests compare them):
:func:`write_tp_block`, :func:`send_tds_block` and
:func:`retire_free_block` (the chain-free tail of retirement).
"""

from __future__ import annotations

from ..scoreboard import Scoreboard
from ..sim import BusyTracker
from .fabric import Fabric
from .resolve import notify_drain_block, table_update_block, waiter_kick_block

__all__ = [
    "TaskMaestro",
    "write_tp_block",
    "send_tds_block",
    "td_read_stream_block",
    "retire_free_block",
]


def retire_free_block(fab: Fabric, head: int):
    """Free a retired task's Task Pool chain and recycle its indices.

    The timing model is shared by the single Maestro's Handle Finished and
    by both retire paths of the sharded Maestro (serialized and pipelined),
    so the chain-free cost cannot drift between engines: one arbitration on
    the Task Pool port, ``accesses * on_chip`` for the chain walk, then the
    freed indices re-enter the TP Free Indices list.
    """
    sim = fab.sim
    yield fab.tp_port.acquire()
    freed, accesses = fab.task_pool.free_chain(head)
    yield sim.timeout(accesses * fab.on_chip)
    fab.tp_port.release()
    if fab.dispatch is not None and fab.dispatch.cache is not None:
        # Coherence-by-retirement (ARCHITECTURE.md invariant 4): a staged
        # TD dies with its chain, so a recycled head can never hit stale.
        fab.dispatch.cache.invalidate(head)
    del fab.inflight[head]
    for idx in freed:
        yield fab.tp_free.put(idx)


def write_tp_block(fab: Fabric, scoreboard: Scoreboard, busy: BusyTracker,
                   n_shards: int | None = None):
    """The Write TP block body, shared by the single and sharded Maestros.

    The timing model lives here once: any change to it reaches both
    machines, which the shard differential tests compare against each
    other.  ``n_shards`` is set only by the sharded Maestro, which also
    assigns each stored task a home shard (round-robin by task id).

    The block drains the TDs Buffer in batches of up to
    ``submission_batch`` descriptors per activation, charging the
    TDs-Sizes-entry read cycle once per batch — the receive half of the
    DMA-style submission path.  A batch of one is cycle-for-cycle the
    paper's per-descriptor loop.
    """
    sim = fab.sim
    batch_limit = fab.config.submission_batch
    while True:
        first = yield fab.tds_buffer.get()
        busy.begin()
        # Reading the TDs Sizes entry and the TDs Buffer costs a cycle.
        yield sim.timeout(fab.cycle)
        batch = [first]
        while len(batch) < batch_limit:
            nxt = fab.tds_buffer.try_get()
            if nxt is None:
                break
            batch.append(nxt)
        for i, task in enumerate(batch):
            need = fab.task_pool.entries_for(task)  # CapacityError if restricted
            indices = []
            for _ in range(need):
                idx = yield fab.tp_free.get()
                indices.append(idx)
            yield fab.tp_port.acquire()
            head, accesses = fab.task_pool.store(task, indices)
            fab.task_pool.begin_check(head)
            yield sim.timeout(accesses * fab.on_chip)
            fab.tp_port.release()
            fab.inflight[head] = task
            if n_shards is not None:
                fab.home_of[head] = task.tid % n_shards
            scoreboard.records[task.tid].stored = sim.now
            # Backpressure on the New Tasks list is not Write TP work:
            # keep every put outside the busy window (as the paper-exact
            # batch-of-one loop always did).
            busy.end()
            yield fab.new_tasks.put(head)
            if i != len(batch) - 1:
                busy.begin()


def td_read_stream_block(fab: Fabric, head: int, validate=None):
    """Read a TD chain from the Task Pool and stream the descriptor.

    The timing body shared by Send TDs (a live transfer to a worker) and
    the fast-dispatch prefetch engines (a transfer into the staging
    cache), so the prefetch charge can never drift from the charge Send
    TDs would have paid: one Task Pool port arbitration, ``accesses *
    on_chip`` for the chain walk, then the bus word timing for the
    descriptor stream.  Returns the parameter list read.

    ``validate`` (optional) is re-checked once the port is granted —
    the arbitration can block for a while, and a *speculative* reader's
    target may retire and have its chain freed in that window.  A failed
    validation releases the port and returns ``None`` without touching
    the pool.  Send TDs never passes one: a dispatched task cannot
    retire before its descriptor is delivered.
    """
    sim = fab.sim
    yield fab.tp_port.acquire()
    if validate is not None and not validate():
        fab.tp_port.release()
        return None
    params, accesses = fab.task_pool.read_params(head)
    yield sim.timeout(accesses * fab.on_chip)
    fab.tp_port.release()
    # Stream the descriptor (function pointer word + parameters).
    yield sim.timeout(fab.config.td_transfer_time(len(params)))
    return params


def send_tds_block(fab: Fabric, request_fifo, busy: BusyTracker, cache=None,
                   shard: int = 0):
    """The Send TDs block body, shared by the single and sharded Maestros.

    ``request_fifo`` is the TD request line the block serves: the global
    one in the single-Maestro machine, a shard's own in the sharded one.
    ``cache`` is the fast-dispatch TD prefetch cache when that subsystem
    is wired (:class:`repro.hw.dispatch.TDPrefetchCache`), and ``shard``
    names the bank this block's TD link sits next to — only locally
    staged descriptors hit (a stolen task's descriptor stays in its home
    bank, so the thief pays the full read).  A hit skips the Task Pool
    read *and* the bus stream — both were paid by the prefetch engine
    while the final dependence was still resolving — leaving a one-cycle
    staged-descriptor handoff.  A miss (never prefetched, staged
    remotely, evicted under pressure, or invalidated by retirement and
    re-stored) takes the full paper-exact path below.
    """
    sim = fab.sim
    while True:
        core, head = yield request_fifo.get()
        busy.begin()
        yield sim.timeout(fab.cycle)  # request-line arbitration
        staged = (
            cache.lookup(head, fab.task_of(head).tid, shard)
            if cache is not None
            else None
        )
        if staged is not None:
            # Hit: point the worker's TD link at the staged copy.
            yield sim.timeout(fab.cycle)
        else:
            yield from td_read_stream_block(fab, head)
        busy.end()
        yield fab.fin_fifo[core].put(head)
        yield fab.td_channel[core].put(head)


class TaskMaestro:
    """Owns and starts the Maestro block processes."""

    BLOCKS = ("write_tp", "check_deps", "schedule", "send_tds", "handle_finished")

    def __init__(self, fabric: Fabric, scoreboard: Scoreboard):
        self.fabric = fabric
        self.scoreboard = scoreboard
        #: Set by the machine once the final task retires (diagnostics).
        self.retired = 0
        #: Busy-time trackers per block, for bottleneck attribution: a block
        #: is "busy" from popping its trigger FIFO until it hands the item
        #: on — i.e. the time it could not accept further work.
        self.busy = {name: BusyTracker(fabric.sim) for name in self.BLOCKS}
        if fabric.resolve.speculative:
            # The kick unit is a Maestro block too; its busy tracker exists
            # only when speculative kick-off is on, so the knobs-off stats
            # keys are unchanged.
            self.busy["kickoff"] = BusyTracker(fabric.sim)

    def utilization(self, span: int) -> dict:
        """Fraction of ``span`` each Maestro block spent occupied."""
        return {name: t.utilization(span) for name, t in self.busy.items()}

    def start(self) -> None:
        sim = self.fabric.sim
        sim.process(self._write_tp(), name="maestro.write-tp")
        sim.process(self._check_deps(), name="maestro.check-deps")
        sim.process(self._schedule(), name="maestro.schedule")
        sim.process(self._send_tds(), name="maestro.send-tds")
        sim.process(self._handle_finished(), name="maestro.handle-finished")
        if self.fabric.resolve.speculative:
            # Speculative kick-off: the kick unit process exists only when
            # the knob is on, so the knobs-off machine's event stream is
            # untouched (same gating as the sharded prefetch engines).
            sim.process(
                self.fabric.resolve.kick_unit(
                    0, self.busy["kickoff"], self._kick_one
                ),
                name="maestro.kickoff",
            )

    # ---- Write TP ---------------------------------------------------------------

    def _write_tp(self):
        return write_tp_block(self.fabric, self.scoreboard, self.busy["write_tp"])

    # ---- Check Deps (Listing 2) ----------------------------------------------------

    def _check_deps(self):
        fab = self.fabric
        sim = fab.sim
        while True:
            head = yield fab.new_tasks.get()
            self.busy["check_deps"].begin()
            task = fab.task_of(head)
            for param in task.params:
                # A parameter may need one fresh Dependence Table slot
                # (a new address entry or a Kick-Off dummy); stall until
                # Handle Finished frees space rather than overflow.
                while fab.dep_table.free_slots == 0:
                    fab.dt_freed.clear()
                    yield fab.dt_freed.wait()
                yield fab.dt_port.acquire()
                blocked, accesses = fab.dep_table.check_param(
                    head, param.addr, param.size, param.mode.reads, param.mode.writes
                )
                yield sim.timeout(accesses * fab.on_chip)
                fab.dt_port.release()
                if blocked:
                    yield fab.tp_port.acquire()
                    fab.task_pool.add_dependence(head)
                    yield sim.timeout(fab.on_chip)
                    fab.tp_port.release()
            yield fab.tp_port.acquire()
            ready = fab.task_pool.finish_check(head)
            yield sim.timeout(fab.on_chip)
            fab.tp_port.release()
            self.busy["check_deps"].end()
            if ready:
                self.scoreboard.records[task.tid].ready = sim.now
                yield fab.global_ready.put(head)

    # ---- Schedule --------------------------------------------------------------------

    def _schedule(self):
        fab = self.fabric
        sim = fab.sim
        while True:
            head = yield fab.global_ready.get()
            core = yield fab.worker_ids.get()
            self.busy["schedule"].begin()
            yield sim.timeout(2 * fab.cycle)  # pop both lists, push one
            task = fab.task_of(head)
            record = self.scoreboard.records[task.tid]
            record.dispatched = sim.now
            record.core = core
            self.busy["schedule"].end()
            yield fab.rdy_fifo[core].put(head)

    # ---- Send TDs -----------------------------------------------------------------------

    def _send_tds(self):
        return send_tds_block(self.fabric, self.fabric.td_request, self.busy["send_tds"])

    # ---- Handle Finished (the staged resolve pipeline) ------------------------------

    def _kick_one(self, releaser_tid: int, waiter_head: int):
        """Stage-3 kick body: DC decrement plus the ready-list hand-off.

        Shared by the inline path and the speculative kick unit, so the
        kick timing cannot drift between the two modes.
        """
        fab = self.fabric
        sim = fab.sim
        became_ready = yield from waiter_kick_block(fab, waiter_head)
        if became_ready:
            waiter_task = fab.task_of(waiter_head)
            record = self.scoreboard.records[waiter_task.tid]
            record.ready = sim.now
            record.released_by = releaser_tid
            yield fab.global_ready.put(waiter_head)

    def _handle_finished(self):
        """The resolve pipeline: notify intake → table update → kick → retire.

        With the resolve knobs off every batch is a single notification
        and the loop is cycle-for-cycle the paper's Handle Finished;
        coalescing drains several queued notifications per activation
        (merging same-row Dependence Table updates), and speculative
        kick-off hands stage 3 to the kick unit so it overlaps the next
        notification's table update.
        """
        fab = self.fabric
        sim = fab.sim
        resolve = fab.resolve
        busy = self.busy["handle_finished"]
        while True:
            first = yield fab.finished_notify.get()
            busy.begin()
            yield sim.timeout(fab.cycle)  # observe + acknowledge the 1-bit line
            cores = yield from notify_drain_block(fab, resolve, first)
            # Read each finished task's input/output list from the Task Pool.
            finished = []  # (core, head, task) in notification order
            updates = []  # (releaser head, param) in notification order
            for core in cores:
                head = yield fab.fin_fifo[core].get()
                task = fab.task_of(head)
                yield fab.tp_port.acquire()
                params, accesses = fab.task_pool.read_params(head)
                yield sim.timeout(accesses * fab.on_chip)
                fab.tp_port.release()
                finished.append((core, head, task))
                updates.extend((head, param) for param in params)
            # Update the Dependence Table (same-row updates merged) and
            # kick off pending tasks whose Dependence Counter reached zero.
            if resolve.speculative:
                # Grants go to the kick unit the moment they are computed,
                # overlapping each row's commit latency and the remaining
                # updates of the batch.
                def post_kicks(grants):
                    for releaser_head, waiter_head in grants:
                        yield resolve.post_kick(
                            0, fab.task_of(releaser_head).tid, waiter_head
                        )

                yield from table_update_block(
                    fab, fab.dep_table, fab.dt_port, fab.dt_freed, updates,
                    resolve, on_grants=post_kicks, grants_early=True,
                )
            elif resolve.coalesce_limit > 1:
                # Coalesced but inline: kick per committed row group, the
                # same early-kick model the sharded engine uses — a batch
                # never delays an early grant behind an unrelated row.
                def kick_grants(grants):
                    for releaser_head, waiter_head in grants:
                        yield from self._kick_one(
                            fab.task_of(releaser_head).tid, waiter_head
                        )

                yield from table_update_block(
                    fab, fab.dep_table, fab.dt_port, fab.dt_freed, updates,
                    resolve, on_grants=kick_grants,
                )
            else:
                # Paper-exact serial loop: all updates, then all kicks —
                # the recorded-golden event order of the seed machine.
                granted = yield from table_update_block(
                    fab, fab.dep_table, fab.dt_port, fab.dt_freed, updates,
                    resolve,
                )
                for releaser_head, waiter_head in granted:
                    yield from self._kick_one(
                        fab.task_of(releaser_head).tid, waiter_head
                    )
            # Retire: free the Task Pool chains, recycle indices and cores.
            for core, head, task in finished:
                yield from retire_free_block(fab, head)
            busy.end()
            for core, head, task in finished:
                yield fab.worker_ids.put(core)
                self.retired += 1
                self.scoreboard.note_completed(task.tid, sim.now)
