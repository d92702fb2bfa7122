"""Eq. (1)–(2): reconstructing per-country views from popularity vectors.

Derivation (paper §3). Eq. (1) defines the intensity

    pop(v)[c] = views(v)[c] / ytube[c] × K(v)

with ``K(v)`` an unknown per-video scale chosen by YouTube so the map
peaks at 61. Eq. (2) approximates ``ytube[c] = p̂_yt[c] × T_yt``. Then

    views(v)[c] = pop(v)[c] × p̂_yt[c] × T_yt / K(v)

and since ``Σ_c views(v)[c] = views(v)`` (the video's known total),

    views(v)[c] = views(v) × ( pop(v)[c] · p̂_yt[c] ) / Σ_c' pop(v)[c'] · p̂_yt[c']

— both unknowns cancel. That weighted renormalization is the whole
estimator; its quality rests on the intensity interpretation and on the
Alexa prior, which :mod:`repro.reconstruct.validation` quantifies.

The *naive* alternative — reading ``pop(v)[c]`` directly as a view share,
``views(v)[c] ∝ pop(v)[c]`` — is also provided. The paper rejects it with
the Justin-Bieber example: the USA and Singapore share intensity 61, yet
cannot plausibly have equal view counts; the naive readout would say they
do.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.datamodel.dataset import Dataset
from repro.datamodel.popularity import PopularityVector
from repro.datamodel.video import Video
from repro.errors import ReconstructionError
from repro.world.countries import CountryRegistry, default_registry
from repro.world.traffic import TrafficModel, default_traffic_model


def reconstruct_views(
    popularity: PopularityVector,
    total_views: int,
    traffic: TrafficModel,
) -> np.ndarray:
    """Eq. (1)–(2): estimated per-country views (float, sums to total).

    Args:
        popularity: The video's decoded popularity vector.
        total_views: The video's known worldwide view count.
        traffic: The Alexa-style traffic prior ``p̂_yt``.

    Returns:
        A vector on the traffic model's registry axis whose entries sum
        to ``total_views``.

    Raises:
        ReconstructionError: If the popularity vector is empty (nothing to
            renormalize — the paper filters such videos out) or the total
            view count is negative.
    """
    if popularity.is_empty():
        raise ReconstructionError("cannot reconstruct from an empty popularity vector")
    if total_views < 0:
        raise ReconstructionError(f"total_views must be >= 0, got {total_views}")
    intensities = popularity.as_array().astype(float)
    prior = traffic.as_vector()
    if len(intensities) != len(prior):
        raise ReconstructionError(
            f"axis mismatch: popularity over {len(intensities)} countries, "
            f"traffic model over {len(prior)}"
        )
    weights = intensities * prior
    denominator = weights.sum()
    if denominator <= 0:
        raise ReconstructionError("popularity × traffic weights sum to zero")
    return total_views * weights / denominator


def reconstruct_views_naive(
    popularity: PopularityVector,
    total_views: int,
) -> np.ndarray:
    """The naive readout: intensities themselves as view shares.

    The strawman the paper's USA-vs-Singapore argument dismisses; kept as
    the baseline for benchmark V1.
    """
    if popularity.is_empty():
        raise ReconstructionError("cannot reconstruct from an empty popularity vector")
    if total_views < 0:
        raise ReconstructionError(f"total_views must be >= 0, got {total_views}")
    intensities = popularity.as_array().astype(float)
    return total_views * intensities / intensities.sum()


def reconstruct_views_smoothed(
    popularity: PopularityVector,
    total_views: int,
    traffic: TrafficModel,
    smoothing: float,
) -> np.ndarray:
    """Eq. (1)–(2) with additive intensity smoothing.

    The Chart API rounds small intensities to 0, so the plain estimator
    assigns *exactly zero* views to every uncoloured country — yet real
    videos always collect a trickle of views everywhere (diaspora,
    embeds). Smoothing adds ``smoothing`` pseudo-intensity to every
    country before the Eq. (1) inversion, recovering that floor mass:

        views(v)[c] ∝ (pop(v)[c] + λ) × p̂_yt[c]

    ``smoothing=0`` reduces exactly to :func:`reconstruct_views`. Values
    around the quantization step (λ ≈ 0.5) are the natural choice; the A4
    benchmark sweeps λ.
    """
    if smoothing < 0:
        raise ReconstructionError(f"smoothing must be >= 0, got {smoothing}")
    if popularity.is_empty():
        raise ReconstructionError("cannot reconstruct from an empty popularity vector")
    if total_views < 0:
        raise ReconstructionError(f"total_views must be >= 0, got {total_views}")
    intensities = popularity.as_array().astype(float) + smoothing
    prior = traffic.as_vector()
    weights = intensities * prior
    denominator = weights.sum()
    if denominator <= 0:
        raise ReconstructionError("popularity × traffic weights sum to zero")
    return total_views * weights / denominator


class ViewReconstructor:
    """Dataset-scale Eq. (1)–(2) reconstruction.

    Per-video calls (:meth:`for_video`) run the estimators above.
    Dataset-scale calls (:meth:`for_dataset`, :meth:`matrix_for_dataset`)
    run the columnar engine (:mod:`repro.engine`): one materialization,
    then every video in a handful of vectorized numpy ops. The traffic
    prior and the registry axis are resolved once at construction and
    cached — never per call.

    Args:
        traffic: The traffic prior; defaults to the library's 2011-flavour
            model.
        naive: Use the naive share readout instead of the intensity
            interpretation (baseline mode).
        smoothing: Additive intensity smoothing λ (see
            :func:`reconstruct_views_smoothed`); 0 = the paper's plain
            estimator. Ignored in naive mode.
    """

    def __init__(
        self,
        traffic: Optional[TrafficModel] = None,
        naive: bool = False,
        smoothing: float = 0.0,
    ):
        if smoothing < 0:
            raise ReconstructionError(f"smoothing must be >= 0, got {smoothing}")
        self.traffic = traffic if traffic is not None else default_traffic_model()
        self.naive = naive
        self.smoothing = smoothing
        self._prior = self.traffic.as_vector()
        self._codes = tuple(self.traffic.registry.codes())

    @property
    def registry(self) -> CountryRegistry:
        return self.traffic.registry

    @property
    def prior(self) -> np.ndarray:
        """The cached traffic prior ``p̂_yt`` (read-only view)."""
        view = self._prior.view()
        view.flags.writeable = False
        return view

    def for_video(self, video: Video) -> np.ndarray:
        """Reconstructed per-country views for one video."""
        if video.popularity is None:
            raise ReconstructionError(
                f"video {video.video_id} has no popularity vector"
            )
        if self.naive:
            return reconstruct_views_naive(video.popularity, video.views)
        if self.smoothing > 0:
            return reconstruct_views_smoothed(
                video.popularity, video.views, self.traffic, self.smoothing
            )
        return reconstruct_views(video.popularity, video.views, self.traffic)

    def shares_for_video(self, video: Video) -> np.ndarray:
        """Reconstructed view *shares* (sum to 1) for one video."""
        views = self.for_video(video)
        total = views.sum()
        if total <= 0:
            # A zero-view video has well-defined shares from its weights;
            # re-run with a fictitious single view to obtain them.
            if self.naive:
                return reconstruct_views_naive(video.popularity, 1)
            if self.smoothing > 0:
                return reconstruct_views_smoothed(
                    video.popularity, 1, self.traffic, self.smoothing
                )
            return reconstruct_views(video.popularity, 1, self.traffic)
        return views / total

    def matrix_for_columnar(
        self,
        columnar,
        chunk_rows: Optional[int] = None,
        dtype=None,
    ) -> np.ndarray:
        """Vectorized Eq. (1)–(2) over a prebuilt columnar dataset.

        ``columnar`` is a :class:`~repro.engine.columnar.ColumnarDataset`
        (imported lazily to keep this module free of engine dependencies
        at import time). Returns the ``(V, C)`` matrix of reconstructed
        views, rows aligned with ``columnar.video_ids``.

        ``chunk_rows`` computes the matrix in fixed-size row chunks —
        bit-identical float64 output, bounded temporaries; the natural
        mode for memmap-backed datasets. ``dtype`` selects the compute
        precision (``"float32"`` trades ≤1e-4 relative error for half
        the memory; see :func:`repro.engine.compute.resolve_dtype`).
        """
        from repro.engine.compute import reconstruct_all

        if tuple(columnar.codes) != self._codes:
            raise ReconstructionError(
                "columnar dataset was built on a different country axis"
            )
        return reconstruct_all(
            columnar.pop,
            columnar.views,
            self._prior,
            naive=self.naive,
            smoothing=self.smoothing,
            chunk_rows=chunk_rows,
            dtype=dtype,
        )

    def for_dataset(self, dataset: Dataset) -> Dict[str, np.ndarray]:
        """Reconstruct every eligible video in ``dataset``.

        Videos without a valid popularity vector are skipped (they do not
        survive the paper's filter anyway). Returns ``{video_id: vector}``.
        """
        ids, matrix = self.matrix_for_dataset(dataset)
        return dict(zip(ids, matrix))

    def matrix_for_dataset(
        self, dataset: Dataset
    ) -> Tuple[List[str], np.ndarray]:
        """Dense ``(ids, matrix)`` of reconstructed views (rows = videos)."""
        from repro.engine.columnar import build_columnar

        columnar = build_columnar(dataset, self.registry)
        if columnar.n_videos == 0:
            return [], np.zeros((0, len(self.registry)))
        return list(columnar.video_ids), self.matrix_for_columnar(columnar)
