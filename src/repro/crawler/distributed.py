"""Distributed multi-process snowball crawl: supervisor + leased shards.

The single-process :class:`~repro.crawler.snowball.SnowballCrawler` is
capped by one process's throughput against a latency-bound API. This
module shards the BFS frontier across N ``multiprocessing`` workers,
each running its own :class:`~repro.api.resilient.ResilientYoutubeClient`
(own :class:`~repro.resilience.RetryPolicy` and
:class:`~repro.resilience.CircuitBreaker`), its own CRC-framed
:class:`~repro.durability.journal.CheckpointJournal`, and its own
WAL-mode :class:`~repro.datamodel.store.VideoStore` connection.

Architecture (see GUIDE §9):

- The **supervisor** owns the only :class:`BFSFrontier` (lifetime
  dedup), seeds it through its own resilient client, and hands frontier
  entries to workers as **leases** (:mod:`repro.crawler.leases`) —
  deadline-bound shard ownership, renewed by heartbeats.
- **Workers** visit their leased entries in order through the shared
  :class:`~repro.crawler.step.CrawlStep` (fetch with retries, decode
  the popularity chart, page the related feed), write the video to the
  shared store (*idempotent* upsert — cross-worker dedup never aborts a
  crawl), then journal the visit, then heartbeat.
  Store-before-journal ordering means a journaled visit is always
  store-durable.
- A worker's **death** is detected through its process sentinel (no
  timing dependence); a **hang** through lease expiry on the injectable
  :class:`~repro.clock.Clock` seam. Either way the supervisor revokes
  the lease, replays the worker's journal, requeues the unacked shard,
  and respawns a fresh generation with a fresh journal directory.
- **Exactly-once collection** = at-least-once visiting + idempotent
  store writes + supervisor-side warm start: a requeued entry already
  present in the store is completed without a network fetch (its
  related ids are admitted from the stored record), so any sequence of
  worker kills converges to the same video set as a fault-free
  single-process run.
- **Backpressure**: per-worker token buckets at ``rate / workers`` keep
  the aggregate request rate polite, and a client-side
  :class:`~repro.api.quota.QuotaTracker` stops granting leases when the
  estimated remaining quota cannot cover another shard.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.api.quota import UNLIMITED, QuotaTracker
from repro.api.resilient import ResilientYoutubeClient
from repro.clock import SYSTEM_CLOCK, ClockLike, now_fn
from repro.crawler.checkpoint import CrawlCheckpoint
from repro.crawler.frontier import BFSFrontier
from repro.crawler.leases import Entry, LeaseManager
from repro.crawler.snowball import CrawlResult
from repro.crawler.stats import CrawlStats
from repro.crawler.step import CrawlStep
from repro.datamodel.store import VideoStore
from repro.datamodel.video import Video
from repro.durability.journal import CheckpointJournal
from repro.errors import (
    CheckpointError,
    ConfigError,
    CrawlError,
    QuotaExceededError,
)
from repro.resilience import CircuitBreaker, RetryPolicy
from repro.world.countries import SEED_COUNTRIES, default_registry


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker process needs, picklable across the spawn.

    The worker builds its own client, breaker, journal, and store
    connection from these plain values — no live objects cross the
    process boundary.
    """

    worker_id: int
    generation: int
    host: str
    port: int
    store_path: str
    journal_dir: str
    timeout: float = 5.0
    request_deadline: Optional[float] = None
    retry_attempts: int = 6
    retry_backoff_base: float = 0.01
    retry_backoff_cap: float = 0.05
    retry_jitter: float = 0.2
    breaker_threshold: int = 2
    breaker_reset: float = 0.05
    max_depth: Optional[int] = None
    related_page_size: int = 25
    max_related_per_video: int = 50
    #: Per-worker politeness rate (the supervisor divides the aggregate
    #: budget by the worker count); ``None`` disables throttling.
    requests_per_second: Optional[float] = None
    politeness_burst: int = 1
    #: Journal flush cadence, in completed visits (1 = every visit).
    checkpoint_every: int = 8
    #: Test seam: ``os._exit(17)`` after this many visits (generation 0
    #: only, so the respawned worker survives).
    kill_after_visits: Optional[int] = None
    #: Test seam: stop heartbeating and spin after this many visits.
    hang_after_visits: Optional[int] = None


#: Exit code used by the scripted-kill test seam.
KILLED_EXIT_CODE = 17


def _retry_policy(knobs: Dict) -> RetryPolicy:
    """The ``retry_*`` worker knobs as a policy that really sleeps.

    The resilient client and the crawl step above it each get one.
    """
    return RetryPolicy(
        max_attempts=knobs["retry_attempts"],
        backoff_base=knobs["retry_backoff_base"],
        backoff_cap=knobs["retry_backoff_cap"],
        jitter=knobs["retry_jitter"],
        clock=SYSTEM_CLOCK,
    )


class _WorkerState:
    """A worker process's mutable crawl state (journal view + stats)."""

    def __init__(self, config: WorkerConfig):
        self.config = config
        registry = default_registry()
        self.store = VideoStore(config.store_path, registry)
        self.journal = CheckpointJournal(config.journal_dir)
        knobs = vars(config)
        self.client = ResilientYoutubeClient(
            config.host,
            config.port,
            registry=registry,
            timeout=config.timeout,
            retry=_retry_policy(knobs),
            breaker=CircuitBreaker(
                failure_threshold=config.breaker_threshold,
                reset_timeout=config.breaker_reset,
            ),
            request_deadline=config.request_deadline,
        )
        #: Lifetime stats, journaled cumulatively (replay keeps the last).
        self.stats = CrawlStats()
        self.step = CrawlStep(
            self.client,
            self.stats,
            _retry_policy(knobs),
            SYSTEM_CLOCK,
            requests_per_second=config.requests_per_second,
            politeness_burst=max(1, config.politeness_burst),
            max_depth=config.max_depth,
            related_page_size=config.related_page_size,
            max_related_per_video=config.max_related_per_video,
        )
        #: The journal's replay view: what a reader of this worker's
        #: journal would reconstruct. Kept in memory so compaction can
        #: fold it into a full snapshot without dropping anything.
        self.jadmitted: Set[str] = set()
        self.jpending: Deque[Entry] = deque()
        self.jvideos: List[Video] = []
        # Batch delta accumulated since the last journal flush.
        self.delta_popped = 0
        self.delta_admitted: List[Entry] = []
        self.delta_videos: List[Video] = []
        self.visits = 0

    # -- journaling -----------------------------------------------------------

    def journal_lease(self, entries: Sequence[Entry]) -> None:
        """Durably record a lease grant before any visiting starts.

        A re-granted entry (requeued after an earlier failure) is
        already in this journal's admitted set and must not be admitted
        twice — replay would ignore the duplicate and throw pop
        accounting off.
        """
        for entry in entries:
            if entry[0] not in self.jadmitted:
                self.jadmitted.add(entry[0])
                self.jpending.append(entry)
                self.delta_admitted.append(entry)
        self.flush()

    def journal_visit(self, video: Optional[Video]) -> None:
        """Record one completed visit (popped; recorded unless 404)."""
        self.delta_popped += 1
        if self.jpending:
            self.jpending.popleft()
        if video is not None:
            self.delta_videos.append(video)
            self.jvideos.append(video)
        if self.delta_popped >= self.config.checkpoint_every:
            self.flush()

    def flush(self) -> None:
        if not (self.delta_popped or self.delta_admitted or self.delta_videos):
            return
        self.stats.checkpoints_written += 1
        self.journal.append_batch(
            popped=self.delta_popped,
            admitted=self.delta_admitted,
            videos=self.delta_videos,
            stats=self.stats,
            seeded=True,
        )
        self.delta_popped = 0
        self.delta_admitted = []
        self.delta_videos = []
        self.journal.maybe_compact(self.checkpoint)

    def checkpoint(self) -> CrawlCheckpoint:
        """The journal's full replay view, for compaction snapshots."""
        return CrawlCheckpoint(
            pending=list(self.jpending),
            admitted=sorted(self.jadmitted),
            videos=list(self.jvideos),
            stats=CrawlStats.from_dict(self.stats.to_dict()),
            seeded=True,
        )

    # -- visiting -------------------------------------------------------------

    def visit(self, video_id: str, depth: int) -> Tuple[bool, Optional[Video]]:
        """Visit one entry through the crawl step, then store and journal it.

        Returns the step's ``(completed, video)``: a 404 completes the
        entry without a video; ``(False, None)`` means retries ran out
        (the supervisor requeues the entry, so it is not journaled). The
        store write happens *before* the journal append, so a journaled
        visit is always store-durable.
        """
        completed, video = self.step.visit(video_id, depth)
        if video is not None:
            self.store.add(video)
            self.stats.record_fetch(depth)
        if completed:
            self.journal_visit(video)
        return completed, video

    def close(self) -> None:
        self.flush()
        self.journal.close()
        self.store.close()
        self.client.close()


def _stats_delta(before: Dict, after: Dict) -> Dict:
    """Per-lease stats delta (numeric counters only; fetch accounting
    belongs to the supervisor, which owns entry depths)."""
    delta = CrawlStats()
    for name in CrawlStats._ADDITIVE:
        setattr(delta, name, after.get(name, 0) - before.get(name, 0))
    delta.fetched = 0
    delta.fetched_by_depth = {}
    return delta.to_dict()


def _worker_main(config: WorkerConfig, tasks, results) -> None:
    """Worker process entry point: lease → visit loop → report.

    Messages out (``results``): ``("heartbeat", wid, gen, lease_id,
    vid, recorded)`` after every visit; ``("done" | "quota", wid, gen,
    lease_id, payload)`` at lease end; ``("error", wid, gen, lease_id,
    text)`` on an unexpected exception (the worker survives and waits
    for its next lease). Messages in (``tasks``): ``("lease",
    lease_id, entries)`` and ``("stop",)``.
    """
    state = _WorkerState(config)
    wid, gen = config.worker_id, config.generation
    try:
        while True:
            message = tasks.get()
            if message[0] == "stop":
                break
            _, lease_id, entries = message
            before = state.stats.to_dict()
            state.step.requests = {}
            payload = {
                "completed": [],  # [vid, depth] visited to completion
                "recorded": [],  # [vid, depth] that produced a video
                "failed": [],  # [vid, depth] abandoned (retries gone)
                "admitted": [],  # [vid, depth] related discoveries
                "requests": state.step.requests,  # estimated quota spend
                "stats": {},
            }
            kind = "done"
            try:
                state.journal_lease(entries)
                for video_id, depth in entries:
                    completed, video = state.visit(video_id, depth)
                    if completed:
                        payload["completed"].append([video_id, depth])
                        if video is not None:
                            payload["recorded"].append([video_id, depth])
                            payload["admitted"].extend(
                                [rid, depth + 1] for rid in video.related_ids
                            )
                    else:
                        payload["failed"].append([video_id, depth])
                    state.visits += 1
                    results.put(
                        ("heartbeat", wid, gen, lease_id, video_id,
                         completed, completed and video is not None)
                    )
                    _maybe_kill(state)
                    _maybe_hang(state)
            except QuotaExceededError:
                state.stats.stopped_by_quota = True
                kind = "quota"
            except Exception:  # noqa: BLE001 — reported, worker survives
                state.flush()
                results.put(
                    ("error", wid, gen, lease_id, traceback.format_exc())
                )
                continue
            state.flush()
            payload["stats"] = _stats_delta(before, state.stats.to_dict())
            results.put((kind, wid, gen, lease_id, payload))
    finally:
        state.close()


def _maybe_kill(state: _WorkerState) -> None:
    config = state.config
    if (
        config.kill_after_visits is not None
        and config.generation == 0
        and state.visits >= config.kill_after_visits
    ):
        # Abrupt death: no flush, no cleanup — exactly what a kill -9
        # looks like to the supervisor (minus the exit code).
        os._exit(KILLED_EXIT_CODE)


def _maybe_hang(state: _WorkerState) -> None:
    config = state.config
    if (
        config.hang_after_visits is not None
        and config.generation == 0
        and state.visits >= config.hang_after_visits
    ):
        while True:  # no heartbeats ever again; supervisor must revoke
            time.sleep(0.05)


# ---------------------------------------------------------------------------
# Journal merging
# ---------------------------------------------------------------------------

def merge_worker_checkpoints(
    checkpoints: Sequence[CrawlCheckpoint],
) -> CrawlCheckpoint:
    """Merge per-worker journal checkpoints, order-independently.

    Videos union by id (a divergent payload under one id raises
    :class:`~repro.errors.CheckpointError` — that is corruption, the
    same invariant the store enforces); admitted sets union; pending
    entries that no worker recorded survive, deduplicated at their
    minimum depth; stats accumulate. Everything is canonically sorted,
    so replaying N journals in any order yields the same merged state.
    """
    videos: Dict[str, Video] = {}
    for checkpoint in checkpoints:
        for video in checkpoint.videos:
            existing = videos.get(video.video_id)
            if existing is not None and existing != video:
                raise CheckpointError(
                    f"divergent video {video.video_id!r} across worker "
                    "journals"
                )
            videos[video.video_id] = video
    admitted: Set[str] = set()
    pending_depth: Dict[str, int] = {}
    stats = CrawlStats()
    seeded = False
    for checkpoint in checkpoints:
        admitted.update(checkpoint.admitted)
        seeded = seeded or checkpoint.seeded
        stats.accumulate(checkpoint.stats)
        for video_id, depth in checkpoint.pending:
            if video_id in videos:
                continue  # another worker finished it
            best = pending_depth.get(video_id)
            if best is None or depth < best:
                pending_depth[video_id] = depth
    pending = sorted(pending_depth.items(), key=lambda kv: (kv[1], kv[0]))
    return CrawlCheckpoint(
        pending=[(video_id, depth) for video_id, depth in pending],
        admitted=sorted(admitted),
        videos=[videos[video_id] for video_id in sorted(videos)],
        stats=stats,
        seeded=seeded,
    )


# ---------------------------------------------------------------------------
# Supervisor side
# ---------------------------------------------------------------------------

class _WorkerHandle:
    """The supervisor's view of one worker slot."""

    def __init__(self, worker_id: int):
        self.worker_id = worker_id
        self.generation = -1
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.tasks = None
        self.idle = False
        self.stopping = False

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class DistributedCrawlSupervisor:
    """Shard a snowball crawl across supervised worker processes.

    The supervisor is the single owner of the frontier and the lease
    table; workers only ever see the entries leased to them. Crawl
    output accumulates in the shared WAL-mode store at ``store_path``
    (must be a real file — cross-process dedup needs a disk path).

    Args:
        host / port: The API server (or a
            :class:`~repro.api.chaos.ChaosProxy` in front of it).
        store_path: Shared :class:`~repro.datamodel.store.VideoStore`
            file; created if missing, reused if present (warm start).
        workdir: Directory for the supervisor journal
            (``<workdir>/supervisor``) and per-generation worker
            journals (``<workdir>/worker-<id>-gen-<n>``). A previous
            run's supervisor journal is replayed automatically, which
            is what ``repro resume --workers N`` relies on.
        workers: Worker process count.
        seed_countries / seeds_per_country / max_videos / max_depth /
            related_page_size / max_related_per_video: As in
            :class:`~repro.crawler.snowball.SnowballCrawler`.
        lease_size: Frontier entries per lease.
        lease_timeout: Heartbeat-silence seconds after which a lease is
            revoked (hang detection). Measured on ``clock``.
        clock: Time source for lease deadlines — inject a
            :class:`~repro.clock.ManualClock` (plus ``tick_hook``) to
            test expiry without real waiting. Worker *death* is
            detected via the process sentinel and needs no clock.
        requests_per_second: Aggregate politeness budget; each worker
            gets ``rate / workers``.
        quota_limit: Client-side quota estimate for backpressure
            (:class:`~repro.api.quota.QuotaTracker`); granting stops
            when another shard may not fit.
        max_entry_attempts: Times one entry may be leased before it is
            dropped as poison (counted in ``retries_exhausted``).
        max_restarts: Total worker respawns allowed across the run.
        timeout / request_deadline / retry_* / breaker_*: Per-worker
            client resilience knobs (see :class:`WorkerConfig`).
        checkpoint_every: Worker journal flush cadence, in visits.
        snapshot_every: Supervisor journal snapshot cadence, in
            completed leases.
        kill_plan / hang_plan: Test seams — ``{worker_id:
            after_visits}`` applied to generation 0 only.
        poll_interval: Real seconds the control loop blocks on the
            result queue per iteration.
        tick_hook: Called once per control-loop iteration (tests use it
            to advance a ``ManualClock``).
        mp_context: ``multiprocessing`` start method; ``fork`` (the
            platform default here) keeps worker startup cheap.
    """

    def __init__(
        self,
        host: str,
        port: int,
        store_path: str,
        workdir: str,
        workers: int = 4,
        seed_countries: Sequence[str] = SEED_COUNTRIES,
        seeds_per_country: int = 10,
        max_videos: int = 1_000,
        max_depth: Optional[int] = None,
        related_page_size: int = 25,
        max_related_per_video: int = 50,
        lease_size: int = 8,
        lease_timeout: float = 30.0,
        clock: ClockLike = SYSTEM_CLOCK,
        requests_per_second: Optional[float] = None,
        politeness_burst: int = 5,
        quota_limit: float = UNLIMITED,
        max_entry_attempts: int = 8,
        max_restarts: int = 8,
        timeout: float = 5.0,
        request_deadline: Optional[float] = None,
        retry_attempts: int = 6,
        retry_backoff_base: float = 0.01,
        retry_backoff_cap: float = 0.05,
        retry_jitter: float = 0.2,
        breaker_threshold: int = 2,
        breaker_reset: float = 0.05,
        checkpoint_every: int = 8,
        snapshot_every: int = 4,
        kill_plan: Optional[Dict[int, int]] = None,
        hang_plan: Optional[Dict[int, int]] = None,
        poll_interval: float = 0.02,
        tick_hook: Optional[Callable[[], None]] = None,
        mp_context: str = "fork",
    ):
        if workers < 1:
            raise ConfigError("workers must be >= 1")
        if lease_size < 1:
            raise ConfigError("lease_size must be >= 1")
        if max_videos < 1:
            raise ConfigError("max_videos must be >= 1")
        if str(store_path) == ":memory:":
            raise ConfigError(
                "distributed crawl needs an on-disk store for "
                "cross-process dedup"
            )
        self.host = host
        self.port = port
        self.store_path = str(store_path)
        self.workdir = str(workdir)
        self.workers = workers
        self.seed_countries = list(seed_countries)
        self.seeds_per_country = seeds_per_country
        self.max_videos = max_videos
        self.max_depth = max_depth
        self.related_page_size = related_page_size
        self.max_related_per_video = max_related_per_video
        self.lease_size = lease_size
        self.max_entry_attempts = max_entry_attempts
        self.max_restarts = max_restarts
        self.snapshot_every = snapshot_every
        self.kill_plan = dict(kill_plan or {})
        self.hang_plan = dict(hang_plan or {})
        self.poll_interval = poll_interval
        self.tick_hook = tick_hook
        self._clock = clock
        self._now = now_fn(clock)

        self._worker_knobs = dict(
            timeout=timeout,
            request_deadline=request_deadline,
            retry_attempts=retry_attempts,
            retry_backoff_base=retry_backoff_base,
            retry_backoff_cap=retry_backoff_cap,
            retry_jitter=retry_jitter,
            breaker_threshold=breaker_threshold,
            breaker_reset=breaker_reset,
            max_depth=max_depth,
            related_page_size=related_page_size,
            max_related_per_video=max_related_per_video,
            requests_per_second=(
                requests_per_second / workers
                if requests_per_second is not None
                else None
            ),
            politeness_burst=max(1, politeness_burst // workers),
            checkpoint_every=checkpoint_every,
        )

        try:
            self._ctx = multiprocessing.get_context(mp_context)
        except ValueError:
            self._ctx = multiprocessing.get_context()
        self.registry = default_registry()
        self.store = VideoStore(self.store_path, self.registry)
        self.journal = CheckpointJournal(
            os.path.join(self.workdir, "supervisor")
        )
        self.quota = QuotaTracker(quota_limit)
        self.leases = LeaseManager(lease_timeout, clock=clock)
        self._frontier = BFSFrontier()
        #: Entries to re-lease (already admitted; failures and revoked
        #: shards land here and are granted before fresh frontier work).
        self._retry_queue: Deque[Entry] = deque()
        self._attempts: Dict[str, int] = {}
        #: Ids already counted into ``stats.fetched`` (dedup guard for
        #: at-least-once visiting).
        self._counted: Set[str] = set()
        self._stats = CrawlStats()
        self._seeded = False
        self._quota_hit = False
        self._handles: Dict[int, _WorkerHandle] = {}
        self._results = None
        self._restarts_used = 0
        self._leases_since_snapshot = 0
        #: Tracebacks reported by workers (the crawl survives them).
        self.worker_errors: List[str] = []

    # -- public API -----------------------------------------------------------

    @property
    def stats(self) -> CrawlStats:
        return self._stats

    @property
    def collected(self) -> int:
        return len(self.store)

    def run(self) -> CrawlResult:
        """Seed (or resume), supervise workers to completion, report."""
        self._load_or_init()
        # The stop flags describe this run; the counters stay cumulative.
        self._stats.stopped_by_budget = False
        self._stats.stopped_by_quota = False
        if not self._seeded and not self._quota_hit:
            self._seed()
            self._snapshot()
        if not self._quota_hit and self._work_remains():
            self._results = self._ctx.Queue()
            for worker_id in range(self.workers):
                self._handles[worker_id] = _WorkerHandle(worker_id)
                self._spawn(self._handles[worker_id])
            try:
                self._control_loop()
            finally:
                self._shutdown()
        if self._quota_hit:
            self._stats.stopped_by_quota = True
        if self.collected >= self.max_videos:
            self._stats.stopped_by_budget = True
        self._snapshot()
        return CrawlResult(self.store.to_dataset(), self._stats)

    def checkpoint(self) -> CrawlCheckpoint:
        """Supervisor state: leased-but-unacked + requeued + queued.

        Videos live in the store (the source of truth), not in the
        snapshot — distributed checkpoints stay small.
        """
        seen: Set[str] = set()
        pending: List[Entry] = []
        for lease in list(self.leases._leases.values()):
            for entry in lease.unacked():
                if entry[0] not in seen:
                    seen.add(entry[0])
                    pending.append(entry)
        for entry in list(self._retry_queue) + self._frontier.pending():
            if entry[0] not in seen:
                seen.add(entry[0])
                pending.append(entry)
        return CrawlCheckpoint(
            pending=pending,
            admitted=sorted(self._frontier.admitted()),
            videos=[],
            stats=CrawlStats.from_dict(self._stats.to_dict()),
            seeded=self._seeded,
        )

    def close(self) -> None:
        self.journal.close()
        self.store.close()

    def __enter__(self) -> "DistributedCrawlSupervisor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- lifecycle ------------------------------------------------------------

    def _load_or_init(self) -> None:
        checkpoint = self.journal.load(registry=self.registry, recover=True)
        self._stats.artifacts_quarantined += len(self.journal.quarantined)
        if checkpoint is None:
            self.journal.reset()
            return
        self._frontier = BFSFrontier.restore(
            checkpoint.pending, checkpoint.admitted
        )
        self._stats = CrawlStats.from_dict(checkpoint.stats.to_dict())
        self._stats.journal_replays += 1
        self._seeded = checkpoint.seeded

    def _seed(self) -> None:
        knobs = self._worker_knobs
        client = ResilientYoutubeClient(
            self.host,
            self.port,
            registry=self.registry,
            timeout=knobs["timeout"],
            retry=_retry_policy(knobs),
        )
        retry = _retry_policy(knobs)
        step = CrawlStep(client, self._stats, retry, SYSTEM_CLOCK)
        try:
            for country in self.seed_countries:
                self.quota.note("most_popular")
                try:
                    seeds = step.seed(country, self.seeds_per_country)
                except QuotaExceededError:
                    self._quota_hit = True
                    break
                if seeds is not None:
                    self._frontier.push_all(seeds, 0)
            self._seeded = True
        finally:
            client.close()

    def _spawn(self, handle: _WorkerHandle) -> None:
        handle.generation += 1
        generation = handle.generation
        journal_dir = os.path.join(
            self.workdir,
            f"worker-{handle.worker_id:02d}-gen-{generation}",
        )
        config = WorkerConfig(
            worker_id=handle.worker_id,
            generation=generation,
            host=self.host,
            port=self.port,
            store_path=self.store_path,
            journal_dir=journal_dir,
            kill_after_visits=self.kill_plan.get(handle.worker_id),
            hang_after_visits=self.hang_plan.get(handle.worker_id),
            **self._worker_knobs,
        )
        handle.tasks = self._ctx.Queue()
        handle.process = self._ctx.Process(
            target=_worker_main,
            args=(config, handle.tasks, self._results),
            name=f"crawl-worker-{handle.worker_id}",
            daemon=True,
        )
        handle.journal_dir = journal_dir
        handle.idle = True
        handle.stopping = False
        handle.process.start()
        self._stats.workers_spawned += 1

    def _shutdown(self) -> None:
        for handle in self._handles.values():
            if handle.alive and handle.tasks is not None:
                handle.stopping = True
                try:
                    handle.tasks.put(("stop",))
                except (OSError, ValueError):
                    pass
        for handle in self._handles.values():
            if handle.process is not None:
                handle.process.join(timeout=5.0)
                if handle.process.is_alive():
                    handle.process.terminate()
                    handle.process.join(timeout=5.0)
        if self._results is not None:
            self._results.cancel_join_thread()

    # -- control loop ---------------------------------------------------------

    def _work_remains(self) -> bool:
        return bool(
            self._retry_queue
            or self._frontier
            or self.leases.outstanding
        )

    def _budget_reached(self) -> bool:
        return self.collected >= self.max_videos

    def _control_loop(self) -> None:
        while True:
            if self.tick_hook is not None:
                self.tick_hook()
            self._reap_dead_workers()
            self._revoke_expired_leases()
            if not self._quota_hit and not self._budget_reached():
                self._grant_leases()
            if self.leases.outstanding == 0:
                if self._quota_hit or self._budget_reached():
                    return
                if not self._work_remains():
                    return
                if not any(h.alive for h in self._handles.values()):
                    raise CrawlError(
                        "all crawl workers lost (restart budget "
                        f"{self.max_restarts} exhausted) with "
                        f"{len(self._retry_queue) + len(self._frontier)} "
                        "entries outstanding"
                    )
            try:
                message = self._results.get(timeout=self.poll_interval)
            except queue_module.Empty:
                continue
            self._handle_message(message)

    def _next_entry(self) -> Optional[Entry]:
        if self._retry_queue:
            return self._retry_queue.popleft()
        if self._frontier:
            return self._frontier.pop()
        return None

    def _admit(self, entries: Sequence[Entry]) -> None:
        for video_id, depth in entries:
            if self.max_depth is not None and depth > self.max_depth:
                continue
            self._frontier.push(video_id, int(depth))

    def _warm_start(self, video_id: str, depth: int) -> None:
        """Complete an already-stored entry without a network visit."""
        video = self.store.get(video_id)
        if video_id not in self._counted:
            self._counted.add(video_id)
            self._stats.record_fetch(depth)
        if self.max_depth is None or depth < self.max_depth:
            self._admit([(rid, depth + 1) for rid in video.related_ids])

    def _build_shard(self) -> List[Entry]:
        shard: List[Entry] = []
        while len(shard) < self.lease_size:
            if self._budget_reached():
                break
            entry = self._next_entry()
            if entry is None:
                break
            video_id, depth = entry
            if video_id in self.store:
                self._warm_start(video_id, depth)
                continue
            shard.append(entry)
        return shard

    def _grant_leases(self) -> None:
        for handle in self._handles.values():
            if not (handle.idle and handle.alive):
                continue
            if self._quota_hit or self._budget_reached():
                return
            if not (self._retry_queue or self._frontier):
                return
            estimated = self.quota.estimate_shard_cost(
                self.lease_size,
                related_pages=max(
                    1,
                    -(-self.max_related_per_video // self.related_page_size),
                ),
            )
            if self.quota.remaining < estimated:
                # Backpressure: stop granting before workers slam into
                # the server-side quota wall mid-shard.
                self._quota_hit = True
                return
            shard = self._build_shard()
            if not shard:
                return
            lease = self.leases.grant(handle.worker_id, shard)
            handle.idle = False
            handle.tasks.put(("lease", lease.lease_id, lease.entries))

    # -- failure handling -----------------------------------------------------

    def _reap_dead_workers(self) -> None:
        for handle in self._handles.values():
            if handle.process is None or handle.alive or handle.stopping:
                continue
            self._reclaim(handle, respawn=True)

    def _revoke_expired_leases(self) -> None:
        for lease in self.leases.expired(self._now()):
            handle = self._handles.get(lease.worker_id)
            if handle is None:
                continue
            # A hung worker may still be writing: kill it before
            # replaying its journal or requeuing its shard.
            if handle.alive:
                handle.process.terminate()
                handle.process.join(timeout=5.0)
            self._reclaim(handle, respawn=True)

    def _reclaim(self, handle: _WorkerHandle, respawn: bool) -> None:
        """Revoke a dead/hung worker's lease, replay its journal,
        requeue the unacked shard, and (budget allowing) respawn."""
        handle.stopping = True  # sentinel checks skip it from here on
        lease = self.leases.for_worker(handle.worker_id)
        if lease is not None:
            self.leases.revoke(lease.lease_id)
            self._stats.leases_revoked += 1
            recorded = self._replay_worker_journal(handle, lease)
            # Walk *every* lease entry, not just the unacked ones: an
            # acked entry's related-video discoveries only travel in
            # the final "done" payload, which a dead worker never sent —
            # the warm start re-admits them from the stored record.
            unacked = set(lease.unacked())
            for entry in lease.entries:
                if entry[0] in recorded or entry[0] in self.store:
                    self._warm_start(entry[0], entry[1])
                elif entry in unacked:
                    self._requeue(entry)
                # else: acked 404 — complete, nothing to expand
        if respawn and self._restarts_used < self.max_restarts:
            self._restarts_used += 1
            self._stats.workers_restarted += 1
            self._spawn(handle)

    def _replay_worker_journal(self, handle: _WorkerHandle, lease) -> Set[str]:
        """Recover a dead worker's durable progress; returns recorded ids."""
        journal_dir = getattr(handle, "journal_dir", None)
        if journal_dir is None:
            return set()
        journal = CheckpointJournal(journal_dir)
        try:
            checkpoint = journal.load(registry=self.registry, recover=True)
        finally:
            self._stats.artifacts_quarantined += len(journal.quarantined)
            journal.close()
        if checkpoint is None:
            return set()
        self._stats.journal_replays += 1
        return {video.video_id for video in checkpoint.videos}

    def _requeue(self, entry: Entry) -> None:
        attempts = self._attempts.get(entry[0], 0) + 1
        self._attempts[entry[0]] = attempts
        if attempts > self.max_entry_attempts:
            # Poison entry: dropping it is the only way to converge.
            self._stats.retries_exhausted += 1
            return
        self._retry_queue.appendleft(entry)
        self._stats.shards_requeued += 1

    # -- message handling -----------------------------------------------------

    def _handle_message(self, message: Tuple) -> None:
        kind = message[0]
        if kind == "heartbeat":
            (_, worker_id, generation, lease_id, video_id,
             completed, recorded) = message
            if not self._current(worker_id, generation):
                return
            lease = self.leases.get(lease_id)
            if lease is None:
                return
            self.leases.renew(lease_id)
            if completed:
                # Only a durably completed entry is acked — a failed
                # one must survive revocation and be requeued.
                self.leases.ack(lease_id, video_id)
            if recorded and video_id not in self._counted:
                depth = dict(lease.entries).get(video_id, 0)
                self._counted.add(video_id)
                self._stats.record_fetch(depth)
        elif kind in ("done", "quota"):
            _, worker_id, generation, lease_id, payload = message
            if not self._current(worker_id, generation):
                return
            self._finish_lease(worker_id, lease_id, payload)
            if kind == "quota":
                self._quota_hit = True
        elif kind == "error":
            _, worker_id, generation, lease_id, text = message
            self.worker_errors.append(text)
            if not self._current(worker_id, generation):
                return
            lease = self.leases.get(lease_id)
            if lease is not None:
                self.leases.revoke(lease_id)
                self._stats.leases_revoked += 1
                unacked = set(lease.unacked())
                for entry in lease.entries:
                    if entry[0] in self.store:
                        self._warm_start(entry[0], entry[1])
                    elif entry in unacked:
                        self._requeue(entry)
            handle = self._handles.get(worker_id)
            if handle is not None:
                handle.idle = True

    def _current(self, worker_id: int, generation: int) -> bool:
        handle = self._handles.get(worker_id)
        return handle is not None and handle.generation == generation

    def _finish_lease(self, worker_id: int, lease_id: int, payload) -> None:
        lease = self.leases.get(lease_id)
        handle = self._handles.get(worker_id)
        if handle is not None:
            handle.idle = True
        if lease is None:
            return  # revoked earlier; entries already requeued
        entry_depth = dict(lease.entries)
        for video_id, depth in payload.get("recorded", []):
            if video_id not in self._counted:
                self._counted.add(video_id)
                self._stats.record_fetch(
                    entry_depth.get(video_id, int(depth))
                )
        self._admit(
            [(vid, int(depth)) for vid, depth in payload.get("admitted", [])]
        )
        for video_id, depth in payload.get("completed", []):
            self.leases.ack(lease_id, video_id)
        self.leases.complete(lease_id)
        for video_id, depth in payload.get("failed", []):
            self._requeue((video_id, int(depth)))
        self.quota.note_many(payload.get("requests", {}))
        delta = CrawlStats.from_dict(payload.get("stats", {}))
        delta.fetched = 0
        delta.fetched_by_depth = {}
        self._stats.accumulate(delta)
        self._leases_since_snapshot += 1
        if self._leases_since_snapshot >= self.snapshot_every:
            self._snapshot()

    def _snapshot(self) -> None:
        self._stats.checkpoints_written += 1
        self.journal.write_snapshot(self.checkpoint())
        self._leases_since_snapshot = 0
