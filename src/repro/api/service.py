"""The simulated YouTube service facade.

Serves a :class:`~repro.synth.Universe` through the three endpoints the
paper's crawl used. Fidelity points that matter downstream:

- Video resources carry the popularity map as a **Google chart URL**
  (``stats_map_url``); clients must decode it with
  :mod:`repro.chartmap.mapchart` — the library's crawler does, keeping the
  paper's extraction step on the critical path. Videos whose map the
  universe withheld get ``stats_map_url=None`` (YouTube hid the statistics
  panel on many videos).
- Related-video lists and most-popular feeds are paginated with opaque
  tokens.
- Every request is charged against a :class:`~repro.api.QuotaBudget` and
  passed through a :class:`~repro.api.FaultInjector` first, so quota
  exhaustion and transient errors surface exactly where a real client
  would see them.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.api.faults import FaultInjector
from repro.api.pagination import Page, paginate
from repro.api.quota import QuotaBudget
from repro.chartmap.mapchart import build_map_chart_url
from repro.errors import BadRequestError, VideoNotFoundError
from repro.synth.universe import Universe

#: The GData feed page-size cap.
MAX_RESULTS_CAP = 50


@dataclass(frozen=True)
class VideoResource:
    """The wire-format video entity returned by the service.

    Mirrors a 2011 GData video entry: identity, metadata, counters, the
    uploader's raw tag strings, and the statistics-panel map chart URL
    (or ``None`` when YouTube hid it).
    """

    video_id: str
    title: str
    uploader: str
    upload_date: str
    view_count: int
    tags: Tuple[str, ...]
    stats_map_url: Optional[str]


class YoutubeService:
    """In-process stand-in for the 2011 YouTube Data API.

    The service is thread-safe: admission bookkeeping (quota, fault
    injection, counters) is serialized under an internal lock, while the
    simulated network latency is slept *outside* it — concurrent clients
    overlap their waiting exactly as they would against a remote API.

    Args:
        universe: The synthetic world to serve.
        quota: Request budget (default: unlimited).
        faults: Transient-fault injector (default: no faults).
        latency_seconds: Simulated per-request round-trip time (default 0;
            the latency-bound crawl benchmark and examples use a few ms).
    """

    def __init__(
        self,
        universe: Universe,
        quota: Optional[QuotaBudget] = None,
        faults: Optional[FaultInjector] = None,
        latency_seconds: float = 0.0,
    ):
        if latency_seconds < 0:
            raise BadRequestError("latency_seconds must be >= 0")
        self.universe = universe
        self.quota = quota if quota is not None else QuotaBudget()
        self.faults = faults if faults is not None else FaultInjector(rate=0.0)
        self.latency_seconds = latency_seconds
        self._request_count = 0
        self._admission_lock = threading.Lock()

    @property
    def registry(self):
        """The country registry clients should decode popularity against.

        Part of the client-facing surface (shared with
        :class:`~repro.api.transport.RemoteYoutubeClient`), so crawlers
        never need to touch the universe directly.
        """
        return self.universe.registry

    # -- endpoints -----------------------------------------------------------

    def get_video(self, video_id: str) -> VideoResource:
        """Fetch one video's metadata. 404-analogue on unknown ids."""
        self._admit("get_video", video_id)
        if video_id not in self.universe:
            raise VideoNotFoundError(video_id)
        synth = self.universe.get(video_id)
        if synth.popularity is not None and not synth.popularity.is_empty():
            map_url = build_map_chart_url(synth.popularity)
        else:
            map_url = None
        return VideoResource(
            video_id=synth.video_id,
            title=synth.title,
            uploader=synth.uploader,
            upload_date=synth.upload_date,
            view_count=synth.views,
            tags=synth.tags,
            stats_map_url=map_url,
        )

    def related_videos(
        self,
        video_id: str,
        page_token: Optional[str] = None,
        max_results: int = 25,
    ) -> Page[str]:
        """The related-videos feed for ``video_id`` (ids only, paginated)."""
        self._admit("related_videos", video_id)
        if video_id not in self.universe:
            raise VideoNotFoundError(video_id)
        if max_results > MAX_RESULTS_CAP:
            raise BadRequestError(
                f"max_results may not exceed {MAX_RESULTS_CAP}, got {max_results}"
            )
        related = self.universe.get(video_id).related_ids
        return paginate(related, f"related:{video_id}", page_token, max_results)

    def most_popular(
        self,
        country_code: str,
        page_token: Optional[str] = None,
        max_results: int = 10,
    ) -> Page[str]:
        """The per-country "most popular videos" feed (ids, paginated).

        This is the feed the paper seeded its crawl from: "the 10 most
        popular videos in 25 different countries".
        """
        self._admit("most_popular", country_code)
        if max_results > MAX_RESULTS_CAP:
            raise BadRequestError(
                f"max_results may not exceed {MAX_RESULTS_CAP}, got {max_results}"
            )
        # Serve a generous fixed-depth chart, like the real feed (it was
        # capped, not corpus-wide).
        ranking = self.universe.most_popular(country_code, count=100)
        return paginate(
            ranking, f"most_popular:{country_code}", page_token, max_results
        )

    # -- bookkeeping -----------------------------------------------------------

    @property
    def requests_served(self) -> int:
        """Requests admitted past quota and fault checks."""
        return self._request_count

    def _admit(self, kind: str, detail: str) -> None:
        # Latency is paid outside the lock so concurrent clients overlap.
        if self.latency_seconds > 0:
            time.sleep(self.latency_seconds)
        with self._admission_lock:
            # Quota is charged before fault injection: a failed request
            # still consumed API quota in the GData model.
            self.quota.charge(kind)
            self.faults.before_request(f"{kind}({detail})")
            self._request_count += 1
