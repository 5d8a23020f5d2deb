"""The fast-dispatch subsystem: TD prefetch caches + kick-off fast path.

After retire pipelining (PR 3) the hazard-dense workloads are no longer
throughput-bound but **latency-bound**: every dependence-chain hop pays,
in sequence, the finish->kick resolution, the forward hop to the waiter's
home shard, the scheduler round trip, and the Task-Descriptor read+stream
to the worker — ~90 ns per hop over chains hundreds of hops deep.  This
module attacks the two biggest serial components:

* **TD prefetch cache** (:class:`TDPrefetchCache`, one bank per shard,
  ``td_cache_entries`` staged descriptors each).  When a waiter's
  Dependence Counter drops to ``td_prefetch_depth`` (default 1 — one
  unresolved dependence left, the *near-ready* state), the resolving
  engine posts a non-blocking prefetch request to the waiter's home
  shard.  The home shard's **prefetch engine** arbitrates for a Task Pool
  port like any other Maestro block (bandwidth stays faithful), walks the
  TD chain out of the pool and streams it into the shard's staging cache
  next to the TD link serializer.  When the task is later dispatched, the
  Send TDs block finds the descriptor already staged and hands it over in
  one cycle — the TD transfer happened *during* the final resolution
  instead of after it.  Speculation is free to be wrong: a full request
  queue drops the request, an evicted or stale entry simply re-fetches
  through the normal Task Pool path.

* **Kick-off fast path** (``kickoff_fast_path``).  The finish engine that
  resolves a waiter's final dependence may claim an idle worker core from
  its *own* shard's pool and dispatch the task directly — skipping the
  forward hop to the home shard, the home ready list and the scheduler
  round trip.  A non-blocking **ownership notice** travels to the home
  shard (counted as interconnect traffic) transferring dispatch
  ownership, so retirement bookkeeping — which keys off the shard the
  worker core's finished line terminates at — is unchanged.

Both hooks ride on the *waiter kick* stage of the staged resolve
pipeline (:mod:`repro.hw.resolve`): the kick body that fires them is
shared between the inline resolve loop and the speculative kick units,
so with ``speculative_kickoff`` on, the kick-off fast path dispatches
and the near-ready prefetch notices are issued from the kick unit —
overlapped with the finish engine's next table update — with identical
timing and identical ownership/coherence bookkeeping.

Coherence is **by retirement** (ARCHITECTURE.md invariant 4): a cached TD
is invalidated the moment its Task Pool chain is freed
(:func:`repro.hw.maestro.retire_free_block`), so no cache entry can
outlive its chain and a recycled Task Pool index can never serve a stale
descriptor.  Every hit additionally checks the staged trace tid against
the live in-flight task and raises :class:`ProtocolError` on mismatch —
the invariant is asserted, not assumed.

The module also owns the **per-hop latency attribution**
(:func:`hop_latency_stats`): the scoreboard records, for every task, the
predecessor whose resolution released it (``released_by``); walking those
links decomposes each dependence-chain hop into *resolve* (predecessor
write-back -> waiter ready), *forward* (ready -> dispatched),
*td_transfer* (dispatched -> input fetch start) and *start* (fetch start
-> execution start) components, and finds the deepest release chain —
the machine's observed critical chain.  The means feed the "latency"
bottleneck verdict and the dispatch-latency sweep report.

With ``td_cache_entries=0`` and ``kickoff_fast_path=False`` none of this
is built: no processes, no FIFOs, no events — the machine is
cycle-for-cycle the PR 3 machine (pinned by the golden schedules).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from ..scoreboard import Scoreboard
from ..sim import Fifo, LatencyBreakdown
from ..traces.trace import Param
from .errors import ProtocolError

__all__ = [
    "CachedTD",
    "TDPrefetchCache",
    "FastDispatch",
    "HOP_COMPONENTS",
    "hop_latency_stats",
]

#: The serial components of one dependence-chain hop (predecessor
#: write-back to successor execution start), in pipeline order.
HOP_COMPONENTS = ("resolve", "forward", "td_transfer", "start")


@dataclass
class CachedTD:
    """One staged Task Descriptor in a shard's prefetch cache."""

    head: int  #: Task Pool head index the descriptor was read from.
    tid: int  #: Trace task id staged (checked on hit against inflight).
    params: List[Param]  #: The full parameter list, dummy chain flattened.


class TDPrefetchCache:
    """Per-shard TD staging cache with LRU eviction, bank-local hits.

    Each shard owns a bank of ``entries_per_shard`` slots, filled by its
    prefetch engine; a Send TDs block hits only in its *own* bank — the
    staging buffer is local hardware, not a shared structure.  Two
    things move an entry across banks legitimately: nothing else does.
    A task dispatched by the kick-off fast path has its staged
    descriptor *migrated* to the resolving shard alongside the ownership
    notice (:meth:`move` — the notice message is accounted; the copy
    rides it, overlapped with the dispatch-to-TD-request delay).  A task
    stolen the ordinary way gets no such message, so the thief's Send
    TDs block misses and pays the full Task Pool read — the steal keeps
    its honest cost.  A hit *consumes* the entry (a descriptor is
    dispatched exactly once); retirement invalidates whatever is left,
    so no entry outlives its chain.
    """

    def __init__(self, n_shards: int, entries_per_shard: int):
        if n_shards < 1 or entries_per_shard < 1:
            raise ValueError("TD cache needs >= 1 shard and >= 1 entry per shard")
        self.n_shards = n_shards
        self.entries_per_shard = entries_per_shard
        #: Per-bank insertion-ordered maps (dict preserves order = LRU by
        #: fill; entries are consumed on hit, so fill order is age order).
        self._banks: List[Dict[int, CachedTD]] = [{} for _ in range(n_shards)]
        #: head -> bank holding it (a head is staged in at most one bank).
        self._where: Dict[int, int] = {}
        # ---- statistics ------------------------------------------------------
        self.fills = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.migrations = 0

    def occupancy(self, shard: int) -> int:
        return len(self._banks[shard])

    def contains(self, head: int) -> bool:
        """True when a descriptor for ``head`` is staged (no cost, no
        stats — the prefetch trigger's duplicate check)."""
        return head in self._where

    def _make_room(self, shard: int) -> None:
        """Evict ``shard``'s LRU slot if the bank is full (fills and
        migrations share one eviction policy and one counter)."""
        bank = self._banks[shard]
        if len(bank) >= self.entries_per_shard:
            victim = next(iter(bank))
            del bank[victim]
            del self._where[victim]
            self.evictions += 1

    def insert(self, shard: int, entry: CachedTD) -> None:
        """Stage a descriptor in ``shard``'s bank, evicting its LRU slot
        when full.  Re-staging a head refreshes the existing entry."""
        self.invalidate(entry.head)
        self._make_room(shard)
        self._banks[shard][entry.head] = entry
        self._where[entry.head] = shard
        self.fills += 1

    def lookup(self, head: int, tid: int, shard: int) -> Optional[List[Param]]:
        """Consume the staged descriptor for ``head`` from ``shard``'s
        own bank; None on a miss (absent *or* staged in another bank —
        a remote staging buffer is not reachable from this TD link).

        ``tid`` is the live in-flight task's trace id: a staged entry for
        the same Task Pool index but a different task would mean a chain
        was freed and recycled without invalidation — a violation of
        coherence-by-retirement, raised loudly.
        """
        where = self._where.get(head)
        if where != shard:
            self.misses += 1
            return None
        entry = self._banks[shard].pop(head)
        del self._where[head]
        if entry.tid != tid:
            raise ProtocolError(
                f"TD cache entry for head {head} staged task {entry.tid} but "
                f"task {tid} is live — a cache entry outlived its chain"
            )
        self.hits += 1
        return entry.params

    def move(self, head: int, dst: int) -> None:
        """Migrate a staged descriptor to ``dst``'s bank (the fast path's
        ownership notice carries the copy; no-op when nothing is staged
        or it is already local).  Evicts ``dst``'s LRU slot if full."""
        src = self._where.get(head)
        if src is None or src == dst:
            return
        entry = self._banks[src].pop(head)
        del self._where[head]
        self._make_room(dst)
        self._banks[dst][head] = entry
        self._where[head] = dst
        self.migrations += 1

    def invalidate(self, head: int) -> bool:
        """Drop any staged descriptor for ``head`` (chain freed/re-staged)."""
        shard = self._where.pop(head, None)
        if shard is None:
            return False
        del self._banks[shard][head]
        self.invalidations += 1
        return True

    def stats(self) -> dict:
        looked = self.hits + self.misses
        return {
            "fills": self.fills,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / looked if looked else 0.0,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "migrations": self.migrations,
        }


class FastDispatch:
    """Owner of the fast-dispatch state: cache, request queues, counters.

    Built by the :class:`~repro.hw.fabric.Fabric` only when
    ``config.use_fast_dispatch`` — a machine without the subsystem has no
    ``FastDispatch`` instance, no prefetch FIFOs and no extra processes.
    The prefetch engine *processes* are started by the sharded Maestro
    (they are Maestro blocks); this class provides their bodies.
    """

    #: Prefetch request queue depth per shard.  Requests are speculative:
    #: a full queue drops the request (counted) rather than backpressure
    #: the finish engine — speculation must never stall resolution.
    REQUEST_QUEUE_DEPTH = 64

    def __init__(self, fabric) -> None:
        self.fabric = fabric
        config = fabric.config
        self.fast_path = config.kickoff_fast_path
        self.prefetch_depth = config.td_prefetch_depth
        self.cache: Optional[TDPrefetchCache] = None
        self.prefetch_req: List[Fifo] = []
        if config.td_cache_entries > 0:
            self.cache = TDPrefetchCache(fabric.n_shards, config.td_cache_entries)
            self.prefetch_req = [
                Fifo(fabric.sim, self.REQUEST_QUEUE_DEPTH, f"s{s}-prefetch-req")
                for s in range(fabric.n_shards)
            ]
        # ---- statistics ------------------------------------------------------
        self.prefetch_requests = 0
        self.prefetch_dropped = 0
        self.prefetch_stale = 0
        self.fast_dispatches = 0
        self.fast_dispatches_remote = 0
        self.ownership_notices = 0

    # ---- prefetch side -----------------------------------------------------------

    def want_prefetch(self, head: int) -> bool:
        """True when ``head`` is near-ready and not already staged."""
        if self.cache is None:
            return False
        fab = self.fabric
        if fab.task_pool.dep_count_of(head) > self.prefetch_depth:
            return False
        return not self.cache.contains(head)

    def request_prefetch(self, src_shard: int, home_shard: int, head: int) -> None:
        """Post a non-blocking prefetch request to ``home_shard``.

        A cross-shard request is a real interconnect message: it is
        counted as traffic and stamped with its ring flight time, which
        the *receiving* prefetch engine waits out (like every other
        cross-shard message) — but the resolver never waits; prefetch is
        off the critical path by construction.  A full request queue
        drops the request: the dispatch will simply miss and take the
        normal Task Pool read.
        """
        fab = self.fabric
        tid = fab.tid_of(head)
        if src_shard != home_shard:
            msg = fab.icn.message(src_shard, home_shard, (head, tid))
        else:
            # A local near-ready line, not an interconnect message.
            msg = (fab.sim.now, (head, tid))
        self.prefetch_requests += 1
        if not self.prefetch_req[home_shard].try_put(msg):
            self.prefetch_dropped += 1

    def prefetch_engine(self, shard: int, busy, scoreboard) -> object:
        """Process body of shard ``shard``'s TD prefetch engine.

        Drains the shard's request queue, waiting out each stamped
        notice's flight time; for each still-worthwhile request it runs
        the exact Send TDs read+stream timing body
        (:func:`repro.hw.maestro.td_read_stream_block` — one Task Pool
        port arbitration, the chain-walk accesses, the bus word timing
        into the staging buffer), so no bandwidth is conjured and the
        prefetch charge can never drift from the live-transfer charge.
        Requests whose task retired *or already dispatched* while queued
        are dropped — a dispatched task's TD request reaches Send TDs
        long before a fresh fill could complete, so staging it would
        only burn a Task Pool port and an LRU slot; the re-validation
        after the port grant closes the race against a concurrent
        retirement.
        """
        from .maestro import td_read_stream_block

        fab = self.fabric
        sim = fab.sim
        cache = self.cache

        def worthwhile(head, tid):
            # Still the same in-flight task, chain still in the pool,
            # and not yet handed to a worker core.
            return (
                fab.inflight.get(head) == tid
                and fab.task_pool.is_live_head(head)
                and scoreboard.dispatched[tid] < 0
            )

        while True:
            arrive_at, (head, tid) = yield self.prefetch_req[shard].get()
            if arrive_at > sim.now:
                yield sim.timeout(arrive_at - sim.now)
            if not worthwhile(head, tid):
                self.prefetch_stale += 1
                continue
            if cache.contains(head):
                continue  # already staged (duplicate near-ready notices)
            busy.begin()
            # The port arbitration inside the shared block can stall long
            # enough for the task to retire or dispatch; re-validate once
            # granted so a speculative read can never touch a freed chain
            # (retirement frees the chain a chain-walk before it drops
            # the in-flight mapping) nor stage a descriptor that already
            # shipped.
            params = yield from td_read_stream_block(
                fab, head, validate=lambda: worthwhile(head, tid)
            )
            busy.end()
            if params is None or not worthwhile(head, tid):
                self.prefetch_stale += 1  # retired/dispatched mid-flight
                continue
            cache.insert(shard, CachedTD(head=head, tid=tid, params=params))

    # ---- fast-path side ----------------------------------------------------------

    def note_fast_dispatch(self, remote: bool) -> None:
        self.fast_dispatches += 1
        if remote:
            self.fast_dispatches_remote += 1
            self.ownership_notices += 1

    # ---- reporting ---------------------------------------------------------------

    def stats(self) -> dict:
        out = {
            "prefetch_requests": self.prefetch_requests,
            "prefetch_dropped": self.prefetch_dropped,
            "prefetch_stale": self.prefetch_stale,
            "fast_dispatches": self.fast_dispatches,
            "fast_dispatches_remote": self.fast_dispatches_remote,
            "ownership_notices": self.ownership_notices,
        }
        if self.cache is not None:
            out["td_cache"] = self.cache.stats()
        return out


# ---- per-hop latency attribution ------------------------------------------------


def _hop_components(sb: Scoreboard, tid: int, pred_tid: int) -> Optional[dict]:
    """Decompose one release edge into its serial components (ps)."""
    writeback_end = sb.writeback_end[pred_tid]
    ready = sb.ready[tid]
    dispatched = sb.dispatched[tid]
    fetch_start = sb.fetch_start[tid]
    exec_start = sb.exec_start[tid]
    if min(writeback_end, ready, dispatched, fetch_start, exec_start) < 0:
        return None  # truncated run: the hop never completed
    return {
        "resolve": ready - writeback_end,
        "forward": dispatched - ready,
        "td_transfer": fetch_start - dispatched,
        "start": exec_start - fetch_start,
    }


def hop_latency_stats(records: Union[Scoreboard, Sequence], makespan: int) -> dict:
    """Decompose dependence-chain hop latency from the run's scoreboard.

    ``records`` is the :class:`~repro.scoreboard.Scoreboard` (its
    columns are read directly) or any sequence of task records.  A *hop*
    is a release edge: task ``t`` was made ready by the resolution of
    task ``released_by[t]``; its latency spans the
    predecessor's write-back to the successor's execution start, cut into
    :data:`HOP_COMPONENTS`.  The ``released_by`` links form a forest (one
    releasing predecessor per task); the deepest root-to-leaf path is the
    machine's observed critical chain, and ``chain_fraction`` — the share
    of the makespan that chain's hop latency covers — is the signal the
    "latency" bottleneck verdict reads (execution time is excluded, so an
    application-bound chain of long tasks stays application-bound).
    """
    sb = Scoreboard.of(records)
    released_by = sb.released_by
    n = len(released_by)
    all_hops = LatencyBreakdown(HOP_COMPONENTS)
    depth = [0] * n  # release-chain depth per task (0 = chain root)
    for task_tid, pred_tid in enumerate(released_by):
        if pred_tid < 0:
            continue
        # Walk the parent chain iteratively (memoized through `depth`) —
        # task order is arbitrary, so a task's predecessors may not
        # have their depths yet, and deep chains would overflow a
        # recursive walk.  A forest walk visits at most n tasks, so a
        # longer one is going round a cycle.
        chain = []
        tid = task_tid
        while depth[tid] == 0 and released_by[tid] >= 0:
            chain.append(tid)
            tid = released_by[tid]
            if len(chain) > n:  # corrupt links; never happens in a legal run
                raise ProtocolError("released_by links form a cycle")
        base = depth[tid]
        for i, t in enumerate(reversed(chain)):
            depth[t] = base + i + 1
        parts = _hop_components(sb, task_tid, pred_tid)
        if parts is not None:
            all_hops.add(**parts)

    chain_depth = max(depth) if depth else 0
    chain_hops = LatencyBreakdown(HOP_COMPONENTS)
    if chain_depth:
        # Walk the deepest chain tip back to its root, collecting hops.
        tid = depth.index(chain_depth)
        while released_by[tid] >= 0:
            pred_tid = released_by[tid]
            parts = _hop_components(sb, tid, pred_tid)
            if parts is not None:
                chain_hops.add(**parts)
            tid = pred_tid

    out = {
        "released_tasks": all_hops.count,
        "chain_depth": chain_depth,
        "hop_ns": {k: round(v, 2) for k, v in all_hops.means_ns().items()},
        "chain_hop_ns": {
            k: round(v, 2) for k, v in chain_hops.means_ns().items()
        },
        "chain_span_ps": int(chain_hops.total_ps),
        "chain_fraction": (
            round(chain_hops.total_ps / makespan, 4) if makespan > 0 else 0.0
        ),
    }
    if chain_hops.count:
        name, mean_ns = chain_hops.dominant()
        out["dominant_chain_component"] = name
        out["dominant_chain_component_ns"] = round(mean_ns, 2)
    return out
