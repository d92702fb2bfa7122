"""The breadth-first snowball crawl loop (the paper's §2 methodology).

Seeding: the top ``seeds_per_country`` videos from the most-popular feed
of each seed country (paper: 10 videos × 25 countries). Expansion: BFS
over related-video lists up to ``max_depth``, stopping at ``max_videos``
or on quota exhaustion.

Per-video work mirrors the 2011 tooling: fetch metadata (with
retry/backoff on transient failures), *decode the popularity world map
from its chart URL* (the paper's 0–61 extraction), page through the
related feed — the shared :class:`~repro.crawler.step.CrawlStep` —
then record the video and enqueue its neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.api.service import YoutubeService
from repro.clock import ManualClock
from repro.crawler.checkpoint import CrawlCheckpoint
from repro.crawler.frontier import BFSFrontier
from repro.crawler.stats import CrawlStats
from repro.crawler.step import CrawlStep
from repro.datamodel.dataset import Dataset
from repro.datamodel.video import Video
from repro.durability.journal import CheckpointJournal
from repro.errors import ConfigError, QuotaExceededError
from repro.resilience import RetryPolicy
from repro.world.countries import SEED_COUNTRIES


@dataclass(frozen=True)
class CrawlResult:
    """Outcome of a crawl run: the collected dataset plus accounting."""

    dataset: Dataset
    stats: CrawlStats


class SnowballCrawler:
    """Breadth-first snowball sampler over the (simulated) YouTube API.

    Args:
        service: The API to crawl.
        seed_countries: Countries whose most-popular feeds seed the BFS
            (default: the paper's 25).
        seeds_per_country: Seeds taken per country (paper: 10).
        max_videos: Stop after recording this many videos.
        max_depth: Maximum BFS depth (seeds are depth 0); ``None`` for
            unbounded (the video budget still applies).
        max_retries: Transient-failure retries per request.
        backoff_base: First retry's simulated sleep, in seconds; doubles
            per retry (exponential backoff). Time is accounted in
            :class:`CrawlStats`, not actually slept.
        retry_policy: Optional :class:`~repro.resilience.RetryPolicy`
            overriding ``max_retries``/``backoff_base``. The default
            policy routes its sleeps through the crawler's simulated
            clock (no real waiting) with zero jitter, and additionally
            treats :class:`~repro.errors.TransportError` and
            :class:`~repro.errors.CircuitOpenError` as retryable so
            crawls over the TCP transport survive connection trouble.
        related_page_size: Page size for related-video feeds.
        max_related_per_video: Cap on neighbours expanded per video.
        requests_per_second: Optional politeness limit. Waiting happens in
            simulated time and is accounted in
            :attr:`CrawlStats.politeness_wait_seconds`, not slept.
        politeness_burst: Token-bucket depth for the politeness limiter.
        journal: Optional
            :class:`~repro.durability.journal.CheckpointJournal` the
            crawl writes through. Combined with ``checkpoint_every``,
            every batch of completed visits becomes a durable, fsync'd
            delta record, so a killed crawl resumes from the last batch
            boundary (see :meth:`resume_from_journal`) instead of the
            last manual :meth:`checkpoint` save.
        checkpoint_every: Flush a journal batch after this many
            completed visits (requires ``journal``). The seed step is
            always flushed as its own batch.
    """

    def __init__(
        self,
        service: YoutubeService,
        seed_countries: Sequence[str] = SEED_COUNTRIES,
        seeds_per_country: int = 10,
        max_videos: int = 1_000,
        max_depth: Optional[int] = None,
        max_retries: int = 3,
        backoff_base: float = 0.5,
        related_page_size: int = 25,
        max_related_per_video: int = 50,
        requests_per_second: Optional[float] = None,
        politeness_burst: int = 5,
        retry_policy: Optional[RetryPolicy] = None,
        journal: Optional[CheckpointJournal] = None,
        checkpoint_every: Optional[int] = None,
    ):
        if seeds_per_country < 1:
            raise ConfigError("seeds_per_country must be >= 1")
        if max_videos < 1:
            raise ConfigError("max_videos must be >= 1")
        if max_depth is not None and max_depth < 0:
            raise ConfigError("max_depth must be >= 0")
        if max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if backoff_base < 0:
            raise ConfigError("backoff_base must be >= 0")
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ConfigError("checkpoint_every must be >= 1")
        if checkpoint_every is not None and journal is None:
            raise ConfigError("checkpoint_every requires a journal")
        self.service = service
        self.seed_countries = list(seed_countries)
        self.seeds_per_country = seeds_per_country
        self.max_videos = max_videos
        self.max_depth = max_depth
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.related_page_size = related_page_size
        self.max_related_per_video = max_related_per_video

        self._frontier = BFSFrontier()
        self._videos: List[Video] = []
        self._stats = CrawlStats()
        self._seeded = False

        self._journal = journal
        self.checkpoint_every = checkpoint_every
        # Batch deltas accumulated since the last journal flush.
        self._delta_popped = 0
        self._delta_admitted: List[Tuple[str, int]] = []
        self._delta_videos: List[Video] = []

        # Crawl time is simulated: backoff and politeness waits advance
        # this clock and are accounted in the stats, never slept.
        clock = ManualClock()
        if retry_policy is None:
            retry_policy = RetryPolicy(
                max_attempts=max_retries + 1,
                backoff_base=backoff_base,
                backoff_cap=float("inf"),
                jitter=0.0,
                clock=clock,
            )
        self._step = CrawlStep(
            service,
            self._stats,
            retry_policy,
            clock,
            requests_per_second=requests_per_second,
            politeness_burst=politeness_burst,
            max_depth=max_depth,
            related_page_size=related_page_size,
            max_related_per_video=max_related_per_video,
        )

    # -- public API -------------------------------------------------------------

    def run(self) -> CrawlResult:
        """Crawl until the budget, the frontier, or the quota runs out."""
        # The stop flags describe this run; the counters stay cumulative.
        self._stats.stopped_by_budget = False
        self._stats.stopped_by_quota = False
        if not self._seeded:
            self._seed()
        while self._frontier and len(self._videos) < self.max_videos:
            video_id, depth = self._frontier.pop()
            try:
                self._visit(video_id, depth)
            except QuotaExceededError:
                # Unfinished: a resumed crawl must visit it again.
                self._frontier.requeue(video_id, depth)
                self._stats.stopped_by_quota = True
                break
            self._delta_popped += 1
            if (
                self.checkpoint_every is not None
                and self._delta_popped >= self.checkpoint_every
            ):
                self._flush_journal()
        if len(self._videos) >= self.max_videos:
            self._stats.stopped_by_budget = True
        self._merge_resilience()
        self._flush_journal()
        registry = self.service.registry
        return CrawlResult(Dataset(self._videos, registry), self._stats)

    def _merge_resilience(self) -> None:
        """Surface a resilient client's counters in the crawl stats."""
        snapshot = getattr(self.service, "resilience_snapshot", None)
        if callable(snapshot):
            self._stats.merge_resilience(snapshot())

    def checkpoint(self) -> CrawlCheckpoint:
        """Capture the crawl's current state (frontier, videos, stats)."""
        return CrawlCheckpoint(
            pending=self._frontier.pending(),
            admitted=sorted(self._frontier.admitted()),
            videos=list(self._videos),
            stats=CrawlStats.from_dict(self._stats.to_dict()),
            seeded=self._seeded,
        )

    @classmethod
    def resume(
        cls, service: YoutubeService, checkpoint: CrawlCheckpoint, **kwargs
    ) -> "SnowballCrawler":
        """Rebuild a crawler from a checkpoint (same config kwargs)."""
        crawler = cls(service, **kwargs)
        crawler._frontier = checkpoint.restore_frontier()
        crawler._videos = list(checkpoint.videos)
        crawler._stats = crawler._step.stats = CrawlStats.from_dict(
            checkpoint.stats.to_dict()
        )
        crawler._seeded = checkpoint.seeded
        return crawler

    @classmethod
    def resume_from_journal(
        cls,
        service: YoutubeService,
        journal: CheckpointJournal,
        recover: bool = True,
        **kwargs,
    ) -> "SnowballCrawler":
        """Resume from a journal's last durable state (or start fresh).

        Replays the journal (snapshot + WAL deltas); when it holds no
        durable state — a brand-new directory, or everything quarantined
        during recovery — the returned crawler starts from scratch,
        writing through the same journal. ``checkpoint_every`` defaults
        to 25 unless overridden in ``kwargs``.
        """
        kwargs.setdefault("checkpoint_every", 25)
        checkpoint = journal.load(registry=service.registry, recover=recover)
        if checkpoint is None:
            journal.reset()
            crawler = cls(service, journal=journal, **kwargs)
        else:
            crawler = cls.resume(service, checkpoint, journal=journal, **kwargs)
            crawler._stats.journal_replays += 1
        crawler._stats.artifacts_quarantined += len(journal.quarantined)
        return crawler

    def _flush_journal(self) -> None:
        """Durably append the accumulated batch delta (if any)."""
        if self._journal is None:
            return
        if not (self._delta_popped or self._delta_admitted or self._delta_videos):
            return
        self._stats.checkpoints_written += 1
        self._journal.append_batch(
            popped=self._delta_popped,
            admitted=self._delta_admitted,
            videos=self._delta_videos,
            stats=self._stats,
            seeded=self._seeded,
        )
        self._delta_popped = 0
        self._delta_admitted = []
        self._delta_videos = []
        self._journal.maybe_compact(self.checkpoint)

    @property
    def stats(self) -> CrawlStats:
        return self._stats

    @property
    def collected(self) -> int:
        """Videos recorded so far."""
        return len(self._videos)

    # -- crawl mechanics ----------------------------------------------------------

    def _seed(self) -> None:
        """Fill the frontier from the per-country most-popular feeds."""
        for country in self.seed_countries:
            try:
                seeds = self._step.seed(country, self.seeds_per_country)
            except QuotaExceededError:
                self._stats.stopped_by_quota = True
                break
            if seeds is not None:
                self._admit(seeds, depth=0)
        else:
            # Only a seeding the quota did not cut short is complete; a
            # resume re-reads every feed (admitted seeds are deduplicated).
            self._seeded = True
        # Seeds become durable immediately: a crash during the first
        # batch then resumes from the seeded frontier, not from zero.
        self._flush_journal()

    def _admit(self, video_ids: Sequence[str], depth: int) -> None:
        """Push ids onto the frontier, recording the journal delta."""
        admitted = self._frontier.admit_all(video_ids, depth)
        if self._journal is not None and admitted:
            self._delta_admitted.extend((vid, depth) for vid in admitted)

    def _visit(self, video_id: str, depth: int) -> None:
        """Fetch, record, and expand one video."""
        _, video = self._step.visit(video_id, depth)
        if video is None:
            return
        self._videos.append(video)
        if self._journal is not None:
            self._delta_videos.append(video)
        self._stats.record_fetch(depth)
        self._admit(video.related_ids, depth + 1)
