"""Predicting a new video's geographic view distribution from its tags.

This is the operational form of the paper's conjecture: given only the
metadata an uploader provides (the tag list), predict where the video's
views will come from, using the Eq. (3) geography of previously observed
videos. Cold-start behaviour — a video whose tags were never seen —
falls back to the worldwide traffic prior, which is what a tag-agnostic
system would use anyway.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.conjecture import predict_from_tags
from repro.datamodel.video import Video
from repro.reconstruct.tagviews import TagViewsTable
from repro.world.countries import CountryRegistry


class TagGeoPredictor:
    """Tag-mixture geographic predictor with prior fallback.

    Args:
        table: The Eq. (3) tag view table learned from history.
        weighting: Mixture weighting scheme (see
            :func:`repro.analysis.conjecture.predict_from_tags`).
    """

    def __init__(self, table: TagViewsTable, weighting: str = "position"):
        self.table = table
        self.weighting = weighting
        self._prior = table.reconstructor.traffic.as_vector()
        self._matrix_videos: Optional[Tuple[Video, ...]] = None
        self._matrix: Optional[np.ndarray] = None

    @property
    def registry(self) -> CountryRegistry:
        return self.table.registry

    def predict_shares(self, video: Video) -> np.ndarray:
        """Predicted per-country view-share vector (sums to 1)."""
        prediction = predict_from_tags(video, self.table, self.weighting)
        if prediction is None:
            return self._prior.copy()
        return prediction

    def predict_matrix(self, catalogue: Iterable[Video]) -> np.ndarray:
        """Read-only ``(videos × countries)`` stack of
        :meth:`predict_shares` rows, built once per catalogue: the last
        call's videos are kept and compared, so any other catalogue (even
        one at a recycled address, or a list edited in place) gets its own.
        """
        videos = tuple(catalogue)
        if videos != self._matrix_videos:
            matrix = np.empty((len(videos), len(self.registry)))
            for row, video in enumerate(videos):
                matrix[row] = self.predict_shares(video)
            matrix.flags.writeable = False
            self._matrix_videos, self._matrix = videos, matrix
        return self._matrix

    def is_cold_start(self, video: Video) -> bool:
        """True when none of the video's tags are in the learned table."""
        return predict_from_tags(video, self.table, self.weighting) is None

    def top_countries(self, video: Video, count: int) -> List[str]:
        """The ``count`` countries predicted to watch the video most."""
        shares = self.predict_shares(video)
        order = np.argsort(-shares)[:count]
        codes = self.registry.codes()
        return [codes[int(i)] for i in order]
