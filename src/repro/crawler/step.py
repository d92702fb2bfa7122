"""The crawl step: one seed page or one video, under retry and politeness.

Per-video work mirrors the 2011 tooling: fetch the metadata, *decode the
popularity world map from its chart URL* (the paper's 0–61 extraction),
page through the related feed. :class:`CrawlStep` holds that work once;
the in-process :class:`~repro.crawler.snowball.SnowballCrawler`, the
distributed workers and the distributed supervisor's seeding all call
it. Every wait goes through a :class:`~repro.clock.Clock`: simulated in
the in-process crawler (accounted, never slept), real in the workers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.chartmap.mapchart import parse_map_chart_url, popularity_from_chart
from repro.clock import Clock
from repro.crawler.politeness import TokenBucket
from repro.crawler.stats import CrawlStats
from repro.datamodel.video import Video
from repro.errors import ChartError, TransientAPIError, VideoNotFoundError
from repro.resilience import RetryPolicy


class CrawlStep:
    """Fetch, decode and expand, counting everything in ``stats``.

    Args:
        service: The API: an in-process service or a network client.
        stats: Where pages, failures, 404s and waits are counted.
        retry: Retry policy for every request; it pays its backoff
            (through ``clock``, for the crawlers' own policies).
        clock: Time source the politeness limiter reads and pays
            its waits through.
        requests_per_second / politeness_burst: Optional politeness
            token bucket; ``None`` disables throttling.
        max_depth / related_page_size / max_related_per_video: As in
            :class:`~repro.crawler.snowball.SnowballCrawler`; a video at
            ``max_depth`` is recorded without its related feed.
    """

    def __init__(
        self,
        service,
        stats: CrawlStats,
        retry: RetryPolicy,
        clock: Clock,
        requests_per_second: Optional[float] = None,
        politeness_burst: int = 5,
        max_depth: Optional[int] = None,
        related_page_size: int = 25,
        max_related_per_video: int = 50,
    ):
        self.service = service
        self.stats = stats
        self.retry = retry
        self.clock = clock
        self.rate_limiter: Optional[TokenBucket] = None
        if requests_per_second is not None:
            self.rate_limiter = TokenBucket(
                requests_per_second, politeness_burst
            )
        self.max_depth = max_depth
        self.related_page_size = related_page_size
        self.max_related_per_video = max_related_per_video
        #: Requests issued per API method, retries not counted: the
        #: quota estimate a distributed worker reports per lease.
        self.requests: Dict[str, int] = {}

    def seed(self, country: str, count: int) -> Optional[Sequence[str]]:
        """The first ``count`` ids of ``country``'s most-popular feed, or
        ``None`` when retries ran out; quota exhaustion propagates."""
        page = self._call(
            "most_popular",
            lambda: self.service.most_popular(
                country, max_results=min(count, 50)
            ),
        )
        if page is None:
            return None
        self.stats.seed_pages += 1
        return page.items[:count]

    def visit(self, video_id: str, depth: int) -> Tuple[bool, Optional[Video]]:
        """Fetch, decode and expand one video.

        Returns ``(True, video)``; ``(True, None)`` for a 404, which
        completes the entry; ``(False, None)`` when retries ran out.
        Quota exhaustion propagates.
        """
        try:
            resource = self._call(
                "get_video", lambda: self.service.get_video(video_id)
            )
        except VideoNotFoundError:
            self.stats.not_found += 1
            return True, None
        if resource is None:
            return False, None
        # The paper's extraction step: chart URL -> popularity vector.
        popularity = None
        if resource.stats_map_url is not None:
            try:
                chart = parse_map_chart_url(resource.stats_map_url)
                registry = self.service.registry
                popularity = popularity_from_chart(chart, registry)
            except ChartError:
                self.stats.map_decode_failures += 1
        related: Tuple[str, ...] = ()
        if self.max_depth is None or depth < self.max_depth:
            related = self._related(video_id)
        return True, Video(
            video_id=resource.video_id,
            title=resource.title,
            uploader=resource.uploader,
            upload_date=resource.upload_date,
            views=resource.view_count,
            tags=resource.tags,
            popularity=popularity,
            related_ids=related,
        )

    def _related(self, video_id: str) -> Tuple[str, ...]:
        """Page through the related feed up to ``max_related_per_video``."""
        collected: List[str] = []
        token: Optional[str] = None
        while len(collected) < self.max_related_per_video:
            page = self._call(
                "related_videos",
                lambda token=token: self.service.related_videos(
                    video_id,
                    page_token=token,
                    max_results=self.related_page_size,
                ),
            )
            if page is None:
                break
            self.stats.related_pages += 1
            collected.extend(page.items)
            token = page.next_page_token
            if token is None:
                break
        return tuple(collected[: self.max_related_per_video])

    def _call(self, method: str, request):
        """Run ``request`` politely under the retry policy; ``None`` when
        retries ran out. Errors the policy does not retry propagate."""
        self.requests[method] = self.requests.get(method, 0) + 1

        def attempt():
            self._throttle()
            return request()

        try:
            return self.retry.run(attempt, on_failure=self._note_failure)
        except self.retry.retryable:
            self.stats.retries_exhausted += 1
            return None

    def _note_failure(self, exc, attempt, delay) -> None:
        if isinstance(exc, TransientAPIError):
            self.stats.transient_errors += 1
        else:
            self.stats.transport_errors += 1
        if delay is not None:  # the policy sleeps this long, then retries
            self.stats.backoff_seconds += delay

    def _throttle(self) -> None:
        """Take a politeness token, paying any wait through the clock."""
        if self.rate_limiter is None:
            return
        wait = self.rate_limiter.acquire(self.clock.now())
        if wait > 0:
            self.clock.sleep(wait)
            self.stats.politeness_wait_seconds += wait
