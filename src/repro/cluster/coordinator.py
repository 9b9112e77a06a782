"""The cluster coordinator: shard placement, routing, failover, balance.

:class:`ClusterCoordinator` lifts the sharded assignment engine onto a
pool of ``multiprocessing`` workers. It keeps the engine's event-driven
contract (``process(events)`` / ``run(events)`` / ``report()``) while the
shards themselves live in worker processes:

* **placement** — shard *families* (a base lattice cell plus any split
  sub-shards) are assigned round-robin to workers and always colocated,
  so a task's whole fallback chain is served by one process;
* **routing** — each event chunk is routed in one vectorized pass
  (:class:`~repro.cluster.balancer.ClusterRouter`), consecutive worker
  arrivals for a shard are merged into single cohort ops, and per-worker
  op batches amortize queue/pickle overhead. Per-shard event order is
  preserved; cross-shard order is irrelevant (shards share nothing);
* **checkpoints & failover** — every ``checkpoint_every`` events the
  coordinator snapshots all shards (:mod:`repro.cluster.snapshot`) and
  compacts its per-family op journals. Steady-state checkpoints are
  O(delta): each shard answers only the cells changed since the parent
  checkpoint, chained on the last full (base) document, with a rebase
  every ``rebase_every`` checkpoints to bound the chain. Replies travel
  over a dedicated pipe per worker whose write end only that worker
  holds, so a dying worker — however violently it goes — closes its pipe
  and the coordinator sees ``EOFError`` instead of a hang. The
  replacement process restores the dead worker's shards from their
  base + delta chains (or recreates them from spec), replays the
  journaled ops, and the stream continues — no task is lost, and replay
  from a composed chain is bit-deterministic;
* **load balancing** — a :class:`~repro.cluster.balancer.HotShardBalancer`
  watches per-family throughput and either migrates a hot family to the
  coolest worker (preload its chain → flush → ship one final delta →
  commit, so only the small delta sits in the cut-over window) or splits
  a hot cell into a finer sub-lattice, rebuilding only that cell's HST.

Replies are matched by worker *incarnation*: after a failover, barrier
acks from the dead process are ignored, but its task results are still
accepted (first write wins — replayed duplicates deduplicate).
"""

from __future__ import annotations

import json
import multiprocessing as mp
import time
from multiprocessing.connection import wait as conn_wait

from ..geometry.box import Box
from ..obs.registry import MetricsRegistry
from ..obs.trace import current_context
from ..service.events import RequestQueue, TaskArrival, WorkerArrival
from ..service.metrics import ServiceReport, build_report
from ..utils import ensure_rng, keyed_shard_seed
from .balancer import BalancerConfig, ClusterRouter, HotShardBalancer, family_of, key_order
from .dispatch import FamilyJournal
from .worker import worker_main

__all__ = ["ClusterCoordinator", "ClusterError"]


class ClusterError(RuntimeError):
    """A worker reported an exception or the cluster stopped responding."""


def _preferred_context():
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else methods[0])


class ClusterCoordinator:
    """Parallel multi-worker runtime for the sharded assignment engine.

    Parameters
    ----------
    region, shards, grid_nx, epsilon, budget_capacity, batch_size, seed:
        Same meaning as on
        :class:`~repro.service.engine.ShardedAssignmentEngine`; shard RNG
        seeds are derived deterministically per routing key so a reseeded
        rerun reproduces every shard's stream regardless of placement.
    n_workers:
        Worker process count. Shard families are spread round-robin.
    chunk_size:
        Events routed per dispatch batch (amortizes queue overhead).
    checkpoint_every:
        Events between cluster-wide snapshot barriers; ``0`` disables
        periodic checkpoints (failover then replays from stream start).
    rebase_every:
        Delta-chain length cap. After a full (base) snapshot, up to
        ``rebase_every`` consecutive checkpoints ship O(delta) documents
        chained on it before the next base is cut; ``0`` makes every
        checkpoint a full snapshot.
    balancer:
        A :class:`~repro.cluster.balancer.BalancerConfig` to enable hot
        shard splitting/migration, or ``None`` to leave placement static.
    """

    def __init__(
        self,
        region: Box,
        shards: tuple[int, int] = (2, 2),
        n_workers: int = 2,
        *,
        grid_nx: int = 12,
        epsilon: float = 0.5,
        budget_capacity: float = 2.0,
        batch_size: int = 256,
        chunk_size: int = 256,
        checkpoint_every: int = 8192,
        rebase_every: int = 8,
        balancer: BalancerConfig | None = None,
        seed: int = 0,
        max_outstanding: int = 8,
        poll_interval: float = 0.02,
        liveness_timeout: float = 120.0,
        tracer=None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"need at least one worker, got {n_workers}")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0 (0 disables)")
        if rebase_every < 0:
            raise ValueError("rebase_every must be >= 0 (0 = always full)")
        from ..service.sharding import ShardMap

        self.shard_map = ShardMap(region, *shards)
        self.router = ClusterRouter(self.shard_map)
        self.n_workers = n_workers
        self.grid_nx = grid_nx
        self.epsilon = epsilon
        self.budget_capacity = budget_capacity
        self.batch_size = batch_size
        self.chunk_size = chunk_size
        self.checkpoint_every = checkpoint_every
        self.rebase_every = rebase_every
        self.seed = int(ensure_rng(seed).integers(2**31)) if not isinstance(seed, int) else seed
        self.max_outstanding = max_outstanding
        self.poll_interval = poll_interval
        self.liveness_timeout = liveness_timeout
        self.tracer = tracer
        self._balancer = HotShardBalancer(balancer) if balancer else None

        # family id -> worker index; families are colocated by construction
        self.ownership: dict[int, int] = {
            fam: fam % n_workers for fam in range(self.shard_map.n_shards)
        }
        self._specs: dict[str, dict] = {}
        # key -> [base, delta, ...]: the restore chain for each shard,
        # replaced wholesale whenever a checkpoint answers a base (rebase)
        self._checkpoints: dict[str, list[dict]] = {}
        self._ckpt_seq = 0
        # the journal is the single source of dispatched ops: normal flow
        # and failover replay both send the journal's unsent suffix, so
        # an op can never be delivered twice to one incarnation
        self._journal = FamilyJournal(self.router)
        self._results: dict[int, int | None] = {}
        self.now = 0.0
        self.failovers = 0
        self.migrations = 0
        self.cell_splits = 0

        self._started = False
        self._closed = False
        self._ctx = _preferred_context()
        self._procs: list = [None] * n_workers
        self._cmd_qs: list = [None] * n_workers
        self._res_conns: list = [None] * n_workers
        self._inc = [0] * n_workers
        self._outstanding = [0] * n_workers
        self._seq = 0
        # barrier inboxes
        self._ready: set[str] = set()
        self._snapshot_inbox: dict[str, dict] = {}
        self._awaiting_snapshots: set[str] = set()
        # in-flight snapshot request parameters, kept so a failover can
        # re-issue the exact same delta/base request to the replacement
        self._snapshot_reqs: dict[str, dict] = {}
        self._flushed: set[int] = set()
        self._awaiting_flush: set[int] = set()
        self._report_inbox: dict[int, dict] = {}
        self._awaiting_report: set[int] = set()
        self._events_since_checkpoint = 0

        # checkpoint telemetry (near-zero cost: touched at barriers only)
        self.registry = MetricsRegistry()
        self.registry.gauge_fn(
            "cluster.checkpoint.chain_len",
            lambda: max(
                (len(c) for c in self._checkpoints.values()), default=0
            ),
        )

    # ------------------------------------------------------------------ #
    # lifecycle                                                           #
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Spawn the worker pool and build every base shard (untimed setup)."""
        if self._started:
            return
        if self._closed:
            # in-memory shard state (splits, registrations) died with the
            # worker pool; a restart would silently serve from empty shards
            raise ClusterError(
                "coordinator was closed; create a new ClusterCoordinator"
            )
        for widx in range(self.n_workers):
            self._spawn(widx)
        for fam in range(self.shard_map.n_shards):
            key = f"s{fam}"
            spec = self._spec_for(key)
            self._specs[key] = spec
            self._cmd_qs[self.ownership[fam]].put(("create", key, spec))
        want = {f"s{fam}" for fam in range(self.shard_map.n_shards)}
        self._wait(lambda: want <= self._ready, "initial shard builds")
        self._started = True

    def close(self) -> None:
        """Stop all workers, reap the processes and close their queues."""
        for widx, proc in enumerate(self._procs):
            if proc is None:
                continue
            try:
                self._cmd_qs[widx].put(("stop",))
            except (ValueError, OSError):
                pass
        for proc in self._procs:
            if proc is None:
                continue
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        for cmd_q, proc in zip(self._cmd_qs, self._procs):
            if cmd_q is None:
                continue
            if proc is None or proc.exitcode != 0:
                # the reader died without draining the queue: joining
                # could wait on a flush nobody will ever read
                cmd_q.cancel_join_thread()
            cmd_q.close()
            # ends the queue's feeder thread, which would outlive close()
            cmd_q.join_thread()
        for conn in self._res_conns:
            if conn is not None:
                conn.close()
        self._procs = [None] * self.n_workers
        self._cmd_qs = [None] * self.n_workers
        self._res_conns = [None] * self.n_workers
        self._started = False
        self._closed = True

    def __enter__(self) -> "ClusterCoordinator":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _spawn(self, widx: int) -> None:
        cmd_q = self._ctx.Queue()
        recv_conn, send_conn = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=worker_main,
            args=(widx, self._inc[widx], cmd_q, send_conn, self.batch_size),
            daemon=True,
        )
        proc.start()
        # the worker now holds the only live write end: its death — even
        # by SIGKILL — closes the pipe and surfaces as EOFError here
        send_conn.close()
        self._cmd_qs[widx] = cmd_q
        self._res_conns[widx] = recv_conn
        self._procs[widx] = proc

    def _spec_for(self, key: str) -> dict:
        box = self.router.shard_box(key)
        # key-derived seeding: stable across runs, placement and restarts,
        # and shared with the engine's "keyed" mode so the two backends
        # grow bit-identical shard streams from one root seed
        return {
            "box": [box.xmin, box.ymin, box.xmax, box.ymax],
            "grid_nx": self.grid_nx,
            "epsilon": self.epsilon,
            "budget_capacity": self.budget_capacity,
            "seed": keyed_shard_seed(self.seed, key),
        }

    # ------------------------------------------------------------------ #
    # event-driven operation                                              #
    # ------------------------------------------------------------------ #

    @property
    def assignments(self) -> list[tuple[int, int]]:
        """All ``(task_id, worker_id)`` pairs decided so far, stream order."""
        return [
            (tid, self._results[tid])
            for tid in self._journal.task_order
            if self._results.get(tid) is not None
        ]

    @property
    def tasks_answered(self) -> int:
        """Tasks with a recorded outcome (assigned or definitively not)."""
        return sum(1 for tid in self._journal.task_order if tid in self._results)

    def result_ready(self, task_id: int) -> bool:
        """Whether ``task_id`` already has a recorded outcome.

        Non-blocking companion to :meth:`result_of`: together with
        :meth:`poll` it lets a caller that must not hold a rendezvous
        (e.g. the API layer's pipelined cluster backend, which
        interleaves rendezvous for many shards under one lock) drive the
        reply pump in small, lock-friendly steps.
        """
        return int(task_id) in self._results

    def poll(self, block: bool = False, timeout: float | None = None) -> bool:
        """Drain any replies waiting on the worker pipes.

        Returns whether anything arrived. ``block=True`` parks on the
        pipes (waking immediately when a reply lands — the event-driven
        wait :meth:`result_of` uses) for up to ``timeout`` seconds,
        default ``poll_interval``; ``block=False`` never waits. Crash
        detection (EOF on a worker pipe) triggers failover exactly as
        the blocking paths do.
        """
        return self._pump(block=block, timeout=timeout)

    def result_of(self, task_id: int) -> int | None:
        """Block until ``task_id`` has an outcome; the assigned worker id
        or ``None``.

        Task results normally stream back asynchronously (the coordinator
        only reads replies when it pumps); this is the synchronous rendezvous
        the API layer's per-call mode uses.
        """
        task_id = int(task_id)
        self._wait(
            lambda: task_id in self._results, f"result of task {task_id}"
        )
        return self._results[task_id]

    def flush(self) -> None:
        """Flush every shard's pending worker cohort (a cluster barrier).

        The cluster counterpart of
        :meth:`~repro.service.engine.ShardedAssignmentEngine.flush`:
        returns once every worker confirms its buffered cohorts crossed
        the obfuscation path.
        """
        self.start()
        self._flush_barrier()

    def process(self, events) -> None:
        """Drain an event stream through the worker pool."""
        self.start()
        if isinstance(events, RequestQueue):
            events = iter(events)
        chunk: list = []
        for event in events:
            if not isinstance(event, (WorkerArrival, TaskArrival)):
                raise TypeError(f"not a service event: {event!r}")
            self.now = max(self.now, float(event.time))
            chunk.append(event)
            if len(chunk) >= self.chunk_size:
                self._dispatch(chunk)
                chunk = []
                self._maybe_rebalance_or_checkpoint()
        if chunk:
            self._dispatch(chunk)
            self._maybe_rebalance_or_checkpoint()

    def run(self, events) -> ServiceReport:
        """Process a stream and return the timed service report.

        Worker-pool spawn and HST construction happen in :meth:`start`,
        outside the timed window — the clock measures serving, matching
        the engine's (and the paper's) running-time discipline.
        """
        self.start()
        t0 = time.perf_counter()
        self.process(events)
        self._flush_barrier()
        wall = time.perf_counter() - t0
        return self.report(wall_seconds=wall, flush=False)

    def _dispatch(self, chunk: list) -> None:
        touched = self._journal.absorb(
            chunk, observe=self._balancer.observe if self._balancer else None
        )
        for fam in sorted(touched):
            self._flush_family(fam)
        self._events_since_checkpoint += len(chunk)

    def _flush_family(self, fam: int) -> None:
        """Send a family's journaled-but-unsent ops to its owner.

        The journal advances its cursor before we transmit: a failover
        triggered while we pump below rewinds it and re-sends from the
        journal itself.
        """
        ops = self._journal.take(fam)
        if not ops:
            return
        widx = self.ownership[fam]
        if self.tracer is not None and current_context() is not None:
            # coordinator-side only: the workers are multiprocessing
            # children behind command queues, so the span covers the
            # enqueue (plus any throttle wait), not remote execution
            with self.tracer.span(
                "cluster.dispatch",
                attrs={"family": fam, "worker": widx, "n_ops": len(ops)},
            ):
                self._send_events(widx, ops)
            return
        self._send_events(widx, ops)

    def _send_events(self, widx: int, ops: list) -> None:
        inc = self._inc[widx]
        deadline = time.monotonic() + self.liveness_timeout
        while self._outstanding[widx] >= self.max_outstanding:
            if self._pump(block=True):
                deadline = time.monotonic() + self.liveness_timeout
            elif time.monotonic() > deadline:
                # alive but wedged (stopped container, runaway op): a dead
                # worker would have EOFed; surface the stall like barriers do
                raise ClusterError(
                    f"worker {widx} stopped acknowledging events"
                )
            if self._inc[widx] != inc:
                # the target died while we throttled; its failover already
                # re-sent everything pending from the journal
                return
        self._seq += 1
        self._outstanding[widx] += 1
        self._cmd_qs[widx].put(("events", self._seq, ops))
        self._pump(block=False)

    # ------------------------------------------------------------------ #
    # checkpoints and rebalancing                                         #
    # ------------------------------------------------------------------ #

    def _maybe_rebalance_or_checkpoint(self) -> None:
        if (
            self.checkpoint_every
            and self._events_since_checkpoint >= self.checkpoint_every
        ):
            self.checkpoint()
        if self._balancer and self._balancer.window_full:
            for action in self._balancer.decide(
                self.router, self.ownership, self.n_workers
            ):
                if action[0] == "split":
                    self._apply_split(action[1])
                else:
                    self._apply_migrate(action[1], action[2])

    def checkpoint(self) -> None:
        """Snapshot every shard in O(delta) and compact the op journals.

        A barrier: commands are FIFO per worker, so each snapshot reflects
        everything dispatched before it; journals are compacted only once
        the snapshot actually arrived (a crash mid-checkpoint falls back
        to the previous chain plus the untruncated journal).

        Steady state ships deltas — only the cells changed since the
        parent checkpoint — chained on the last base document; every
        ``rebase_every`` checkpoints a fresh base bounds the chain, so
        neither checkpoint bytes nor failover-restore cost grow with
        stream length.
        """
        start = time.perf_counter()
        keys = self.router.keys()
        self._request_snapshots(keys, self._checkpoint_reqs(keys))
        for key in keys:
            self._absorb_snapshot(key, self._snapshot_inbox.pop(key))
        stats = self._journal.compact()
        self.registry.counter(
            "cluster.journal.compacted_ops", stats["dropped"]
        )
        self.registry.histogram(
            "cluster.checkpoint.seconds", time.perf_counter() - start
        )
        self._events_since_checkpoint = 0

    def _checkpoint_reqs(self, keys: list[str]) -> dict[str, dict]:
        """Build each shard's snapshot request: a delta chained on the
        current tip while the chain is short, a rebasing base otherwise."""
        reqs: dict[str, dict] = {}
        for key in keys:
            self._ckpt_seq += 1
            chain = self._checkpoints.get(key)
            if chain and len(chain) <= self.rebase_every:
                reqs[key] = {
                    "mode": "delta",
                    "checkpoint": self._ckpt_seq,
                    "parent": chain[-1]["checkpoint"],
                }
            else:
                reqs[key] = {"mode": "base", "checkpoint": self._ckpt_seq}
        return reqs

    def _absorb_snapshot(self, key: str, doc: dict) -> None:
        """Append a delta to (or rebase) the shard's restore chain."""
        size = len(json.dumps(doc))
        if doc.get("kind") == "delta":
            chain = self._checkpoints.get(key)
            if not chain or doc.get("parent") != chain[-1].get("checkpoint"):
                raise ClusterError(
                    f"shard {key!r} answered a delta chained on "
                    f"{doc.get('parent')!r} but the coordinator's chain "
                    "tip differs — checkpoint lineage diverged"
                )
            chain.append(doc)
            self.registry.histogram("cluster.checkpoint.delta_bytes", size)
        else:
            if key in self._checkpoints:
                self.registry.counter("cluster.checkpoint.rebase_total")
            self._checkpoints[key] = [doc]
            self.registry.histogram("cluster.checkpoint.base_bytes", size)

    def _request_snapshots(
        self, keys: list[str], reqs: dict[str, dict] | None = None
    ) -> None:
        # drop any orphan replies from an earlier barrier (a failover can
        # duplicate a snapshot reply): this barrier must only complete on
        # snapshots requested *now*, like the flush/report barriers do
        for key in keys:
            self._snapshot_inbox.pop(key, None)
        self._awaiting_snapshots.update(keys)
        if reqs:
            self._snapshot_reqs.update(reqs)
        try:
            for key in keys:
                owner = self.ownership[family_of(key)]
                req = self._snapshot_reqs.get(key)
                self._cmd_qs[owner].put(
                    ("snapshot", key, req) if req else ("snapshot", key)
                )
            self._wait(
                lambda: all(k in self._snapshot_inbox for k in keys),
                f"snapshots of {len(keys)} shards",
            )
        finally:
            self._awaiting_snapshots.difference_update(keys)
            for key in keys:
                self._snapshot_reqs.pop(key, None)

    def _apply_split(self, fam: int) -> None:
        """Split a hot cell into a finer sub-lattice on the same worker."""
        owner = self.ownership[fam]
        child_keys = self.router.split(fam, self._balancer.config.split_nx)
        for key in child_keys:
            spec = self._spec_for(key)
            self._specs[key] = spec
            self._cmd_qs[owner].put(("create", key, spec))
        self.cell_splits += 1

    def _apply_migrate(self, fam: int, dst: int) -> None:
        """Move a whole family to another worker, delta-aware.

        The destination *preloads* the family's current restore chains —
        the bulky bases ship while the source keeps serving — then one
        final delta barrier captures everything since, and the cut-over
        *commit* installs chain + final delta. The stop-the-world window
        (between the flush and the ownership flip) therefore carries one
        small delta per shard instead of a full snapshot.
        """
        src = self.ownership[fam]
        if src == dst:
            return
        keys = self.router.family_keys(fam)
        fresh = [k for k in keys if k not in self._checkpoints]
        if fresh:
            # no chain to preload yet (checkpoints disabled or a young
            # sub-shard): cut bases now, outside the cut-over window
            reqs = {}
            for key in fresh:
                self._ckpt_seq += 1
                reqs[key] = {"mode": "base", "checkpoint": self._ckpt_seq}
            self._request_snapshots(fresh, reqs)
            for key in fresh:
                self._absorb_snapshot(key, self._snapshot_inbox.pop(key))
        dst_inc = self._inc[dst]
        preloaded: dict[str, int] = {}
        for key in keys:
            chain = self._checkpoints[key]
            self._cmd_qs[dst].put(("preload", key, list(chain)))
            preloaded[key] = len(chain)
        # cut-over: flush the family, then one (small) delta per shard
        self._flush_family(fam)
        self._request_snapshots(keys, self._checkpoint_reqs(keys))
        for key in keys:
            self._absorb_snapshot(key, self._snapshot_inbox.pop(key))
        for key in keys:
            chain = self._checkpoints[key]
            if self._inc[dst] != dst_inc or len(chain) <= preloaded[key]:
                # the destination died after preloading (its stage died
                # with it), or the barrier rebased: ship the full chain —
                # a commit whose first doc is a base ignores the stage
                docs = list(chain)
            else:
                docs = list(chain[preloaded[key] :])
            self._cmd_qs[dst].put(("commit", key, docs))
            self._cmd_qs[src].put(("drop", key))
        self.ownership[fam] = dst
        self._journal.reset(fam)
        self.migrations += 1

    # ------------------------------------------------------------------ #
    # failover                                                            #
    # ------------------------------------------------------------------ #

    def _failover(self, widx: int) -> None:
        """Restart a dead worker from snapshots and replay its journal."""
        self.failovers += 1
        self._inc[widx] += 1
        old_q = self._cmd_qs[widx]
        if old_q is not None:
            old_q.cancel_join_thread()
            old_q.close()
        old_conn = self._res_conns[widx]
        if old_conn is not None:
            old_conn.close()
        old_proc = self._procs[widx]
        if old_proc is not None:
            old_proc.join(timeout=5.0)
        self._outstanding[widx] = 0
        self._spawn(widx)
        inc = self._inc[widx]
        cmd_q = self._cmd_qs[widx]
        owned = sorted(f for f, w in self.ownership.items() if w == widx)
        for fam in owned:
            if self._inc[widx] != inc:
                # the replacement itself died while we replayed (a pump
                # inside _flush_family noticed the EOF): the reentrant
                # failover already restored and replayed everything for
                # the newest incarnation — finishing this loop would
                # deliver the journal twice
                return
            for key in self.router.family_keys(fam):
                chain = self._checkpoints.get(key)
                if chain is not None:
                    cmd_q.put(("load", key, list(chain)))
                else:
                    cmd_q.put(("create", key, self._specs[key]))
            # rewind the journal cursor: everything since the checkpoint
            # is replayed against the freshly restored state
            self._journal.rewind(fam)
            self._flush_family(fam)
        if self._inc[widx] != inc:
            return
        # re-issue barrier requests the dead incarnation never answered,
        # with the same delta/base parameters (the reloaded chain's tip
        # cursor was just seeded, so a delta request still answers)
        for key in sorted(self._awaiting_snapshots):
            if self.ownership[family_of(key)] == widx:
                req = self._snapshot_reqs.get(key)
                cmd_q.put(("snapshot", key, req) if req else ("snapshot", key))
        if widx in self._awaiting_flush:
            cmd_q.put(("flush",))
        if widx in self._awaiting_report:
            cmd_q.put(("report",))

    # ------------------------------------------------------------------ #
    # reply pump                                                          #
    # ------------------------------------------------------------------ #

    def _pump(self, block: bool, timeout: float | None = None) -> bool:
        """Drain available replies; returns whether any arrived.

        A dead worker's pipe polls readable and then raises ``EOFError``
        on receive, which is the failover trigger — crash detection is
        event-driven, not timeout-driven.
        """
        conns = [
            (widx, conn)
            for widx, conn in enumerate(self._res_conns)
            if conn is not None
        ]
        if timeout is None:
            timeout = self.poll_interval
        ready = {
            id(c)
            for c in conn_wait(
                [conn for _, conn in conns],
                timeout=timeout if block else 0,
            )
        }
        got = False
        for widx, conn in conns:
            if id(conn) not in ready:
                continue
            if self._res_conns[widx] is not conn:
                # a reentrant failover (triggered while handling an
                # earlier reply) already replaced this worker; the stale
                # connection is closed — don't fail the replacement over
                continue
            try:
                while conn.poll(0):
                    self._handle(conn.recv())
                    got = True
            except (EOFError, OSError):
                self._failover(widx)
                got = True
        return got

    def _handle(self, msg) -> None:
        kind, widx, inc = msg[0], msg[1], msg[2]
        current = inc == self._inc[widx]
        if kind == "done":
            # results are valid whichever incarnation produced them; the
            # ack only throttles the current one
            for tid, wid, _key in msg[4]:
                self._results.setdefault(tid, wid)
            if current:
                self._outstanding[widx] = max(0, self._outstanding[widx] - 1)
        elif kind == "error":
            raise ClusterError(
                f"worker {widx} (incarnation {inc}) failed:\n{msg[3]}"
            )
        elif not current:
            pass  # stale barrier ack from a crashed incarnation
        elif kind == "ready":
            self._ready.add(msg[3])
        elif kind == "snapshot":
            self._snapshot_inbox[msg[3]] = msg[4]
        elif kind == "flushed":
            self._flushed.add(widx)
        elif kind == "report":
            self._report_inbox[widx] = msg[3]

    def _wait(self, predicate, what: str) -> None:
        deadline = time.monotonic() + self.liveness_timeout
        while not predicate():
            if self._pump(block=True):
                deadline = time.monotonic() + self.liveness_timeout
            if time.monotonic() > deadline:
                raise ClusterError(f"timed out waiting for {what}")

    # ------------------------------------------------------------------ #
    # telemetry                                                           #
    # ------------------------------------------------------------------ #

    def _flush_barrier(self) -> None:
        """Flush every pending cohort and wait until all workers confirm."""
        self._flushed.clear()
        self._awaiting_flush = set(range(self.n_workers))
        for widx in range(self.n_workers):
            self._cmd_qs[widx].put(("flush",))
        self._wait(
            lambda: self._flushed >= set(range(self.n_workers)),
            "end-of-stream flush",
        )
        self._awaiting_flush = set()

    def report(
        self, wall_seconds: float = float("nan"), *, flush: bool = True
    ) -> ServiceReport:
        """Gather all shard metrics into one :class:`ServiceReport`.

        Latency quantiles are computed from the pooled raw samples shipped
        by the workers, exactly like the single-process engine's report.
        ``flush=False`` skips the end-of-stream flush barrier for callers
        (like :meth:`run`) that just completed one.
        """
        self.start()
        if flush:
            self._flush_barrier()
        self._report_inbox.clear()
        self._awaiting_report = set(range(self.n_workers))
        for widx in range(self.n_workers):
            self._cmd_qs[widx].put(("report",))
        self._wait(
            lambda: set(self._report_inbox) >= set(range(self.n_workers)),
            "shard metric reports",
        )
        self._awaiting_report = set()
        merged: dict[str, dict] = {}
        for per_shard in self._report_inbox.values():
            merged.update(per_shard)
        keys = sorted(merged, key=key_order)
        latencies = [v for k in keys for v in merged[k]["latencies_s"]]
        return build_report(
            (merged[k]["snapshot"] for k in keys),
            latencies,
            (),
            wall_seconds=wall_seconds,
            sim_duration=self.now,
            distance_stats=(
                sum(merged[k]["distance_total"] for k in keys),
                sum(merged[k]["distance_count"] for k in keys),
            ),
        )

    # ------------------------------------------------------------------ #
    # test hooks                                                          #
    # ------------------------------------------------------------------ #

    def inject_crash(self, widx: int) -> None:
        """Make one worker process die abruptly (failover testing)."""
        self._cmd_qs[widx].put(("crash",))
