"""Windowed trending detection over the incremental engine's delta flow.

"Trending" here is the related-work notion (Trending Videos:
Measurement and Analysis, PAPERS.md): not *most viewed* but *most
moving* — where are views landing right now, and in which countries?
The :class:`TrendingDetector` consumes the
:class:`~repro.engine.incremental.ApplyResult` of every batch the
:class:`~repro.engine.incremental.IncrementalEngine` absorbs and
maintains exponentially decayed per-country view-delta rates for every
video row:

- a batch adds ``row_views_added[i]`` views to row *i*; the detector
  spreads that impulse across countries proportional to the row's
  *current* Eq. (1)–(2) estimate shares (the engine just recomputed
  them, so the split reflects the video's geography as reconstructed
  from its popularity map);
- all scores decay with a half-life: an impulse of *w* views observed
  ``Δt`` seconds ago is worth ``w · 2^(−Δt / half_life)`` now.

A tag's score mirrors Eq. (3): it is the sum of its member videos'
decayed scores, summed at read time over the engine's row→tag CSR. The
detector keeps no per-tag state. Every score decays with the same
half-life, so decay distributes over the sum, and the result equals
depositing each batch's impulse onto every tag of its rows. That
identity assumes a video's tags are fixed at arrival (the engine's
row→tag CSR is append-only); an operation that changed a video's tags
later would re-attribute its past impulses and break it.

Decay is applied lazily — each row stores raw accumulated impulse plus
its last-touch timestamp, and queries fold the elapsed decay in — so
:meth:`~TrendingDetector.update` costs O(touched rows), never O(V), and
a tag read costs O(row→tag entries).

The output side feeds serving: :meth:`~TrendingDetector.top_tags` /
:meth:`~TrendingDetector.top_videos` answer "what is moving in
country *c*?", and :meth:`~TrendingDetector.demand_vector` hands the
per-country totals to
:meth:`~repro.serving.planner.AdaptiveTagPlanner.observe_demand` as
pre-warm hints, so replicas warm toward where views are heading before
the requests arrive.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.errors import AnalysisError

if TYPE_CHECKING:  # avoid analysis ↔ engine import cycle at runtime
    from repro.engine.incremental import ApplyResult, IncrementalEngine

__all__ = ["TrendingDetector", "TrendingEntry"]

#: One ranked trending result: (name, decayed views-per-window score).
TrendingEntry = Tuple[str, float]


class TrendingDetector:
    """Decayed per-region delta rates for videos; tags sum their members.

    Args:
        engine: The live engine whose batches this detector follows.
        half_life: Seconds for a view impulse to lose half its weight.

    Feed every :meth:`~repro.engine.incremental.IncrementalEngine.apply`
    result to :meth:`update` (same order); query any time.
    """

    def __init__(self, engine: IncrementalEngine, half_life: float = 3600.0):
        if not half_life > 0.0:
            raise AnalysisError(f"half_life must be > 0, got {half_life}")
        self.engine = engine
        self.half_life = float(half_life)
        self._code_index = {code: i for i, code in enumerate(engine.codes)}
        self._video_rate = np.zeros((0, engine.n_countries), dtype=np.float64)
        self._video_last = np.zeros(0, dtype=np.float64)
        self._now: Optional[float] = None
        self.batches_observed = 0

    # -- ingestion -----------------------------------------------------------

    def update(self, result: ApplyResult) -> None:
        """Absorb one batch's :class:`ApplyResult` (call after ``apply``).

        Deposits each moving row's impulse on that row only: O(touched
        rows). Tags need no deposit (see :meth:`tag_scores`).
        """
        if self._now is not None and result.timestamp < self._now:
            raise AnalysisError(
                f"time ran backwards: result at t={result.timestamp} after "
                f"t={self._now}"
            )
        self._now = result.timestamp
        self._grow()
        self.batches_observed += 1
        rows = result.touched_rows
        added = result.row_views_added
        moving = added > 0
        if not np.any(moving):
            return
        rows, added = rows[moving], added[moving]

        # Spread each row's impulse across countries by its current
        # estimate shares (uniform when the row estimate is all-zero).
        est = self.engine.est[rows]
        totals = est.sum(axis=1, keepdims=True)
        n_c = est.shape[1]
        shares = np.where(totals > 0.0, est / np.where(totals > 0.0, totals, 1.0), 1.0 / n_c)
        impulse = added[:, None] * shares

        rate, last = self._video_rate, self._video_last
        decay = np.exp2(-(self._now - last[rows]) / self.half_life)
        rate[rows] = rate[rows] * decay[:, None] + impulse
        last[rows] = self._now

    def _grow(self) -> None:
        n = self.engine.n_videos
        if n > len(self._video_rate):
            cap = max(n, 2 * len(self._video_rate), 1024)
            rate = np.zeros((cap, self.engine.n_countries), dtype=np.float64)
            rate[: len(self._video_rate)] = self._video_rate
            # Unseen rows decay from the current time, not t=0.
            last = np.full(cap, self._now or 0.0, dtype=np.float64)
            last[: len(self._video_last)] = self._video_last
            self._video_rate, self._video_last = rate, last

    # -- queries -------------------------------------------------------------

    def video_scores(self, country: Optional[str] = None) -> np.ndarray:
        """Decayed delta-rate score per engine row (global or one country)."""
        n = self.engine.n_videos
        if self._now is None or not n:
            return np.zeros(n, dtype=np.float64)
        self._grow()
        if country is None:
            raw = self._video_rate[:n].sum(axis=1)
        else:
            try:
                raw = self._video_rate[:n, self._code_index[country]]
            except KeyError:
                raise AnalysisError(
                    f"unknown country code {country!r}"
                ) from None
        decay = np.exp2(-(self._now - self._video_last[:n]) / self.half_life)
        return raw * decay

    def tag_scores(self, country: Optional[str] = None) -> np.ndarray:
        """Decayed delta-rate score per tag id (global or one country).

        A tag's score is the sum of its member videos'
        :meth:`video_scores`, taken in one pass over the engine's
        row→tag CSR: O(row→tag entries) per call.
        """
        indptr, tag_ids = self.engine.video_tag_csr
        per_entry = np.repeat(self.video_scores(country), np.diff(indptr))
        return np.bincount(
            tag_ids, weights=per_entry, minlength=self.engine.n_tags
        )

    def top_videos(
        self, country: Optional[str] = None, count: int = 10
    ) -> List[TrendingEntry]:
        """The ``count`` fastest-moving videos, best first.

        Zero-score videos never appear; ties break on row order
        (earlier arrival wins) so results are deterministic.
        """
        scores = self.video_scores(country)
        ids = self.engine.video_ids
        return [(ids[i], float(scores[i])) for i in self._rank(scores, count)]

    def top_tags(
        self, country: Optional[str] = None, count: int = 10
    ) -> List[TrendingEntry]:
        """The ``count`` fastest-moving tags, best first (see
        :meth:`top_videos` for tie/zero semantics)."""
        scores = self.tag_scores(country)
        tags = self.engine.tags
        return [(tags[i], float(scores[i])) for i in self._rank(scores, count)]

    @staticmethod
    def _rank(scores: np.ndarray, count: int) -> np.ndarray:
        if count < 0:
            raise AnalysisError(f"count must be >= 0, got {count}")
        count = min(count, len(scores))
        if not count:
            return np.empty(0, dtype=np.int64)
        # Only rows at or above the count-th largest score (and above
        # zero) are sorted; a stable sort keeps row order among equals.
        kth = np.partition(scores, len(scores) - count)[len(scores) - count]
        rows = np.flatnonzero(scores >= kth if kth > 0.0 else scores > 0.0)
        return rows[np.argsort(-scores[rows], kind="stable")][:count]

    def demand_vector(self) -> np.ndarray:
        """Per-country decayed delta totals, aligned with ``engine.codes``.

        This is the pre-warm hint vector for
        :meth:`~repro.serving.planner.AdaptiveTagPlanner.observe_demand`:
        country *c*'s entry is the decayed rate of views currently
        landing there, summed over all videos.
        """
        if self._now is None:
            return np.zeros(self.engine.n_countries, dtype=np.float64)
        n = self.engine.n_videos
        decay = np.exp2(-(self._now - self._video_last[:n]) / self.half_life)
        return decay @ self._video_rate[:n]
