"""Property tests: the columnar engine against the scalar oracle.

The contract: for any dataset, the vectorized Eq. (1)–(3) path agrees
with the per-video scalar reference (``tests/oracles.py``) within 1e-9
— in plain, naive and smoothed modes, zero-view videos included. The
chunked/streaming variants carry a stronger contract: **bit-identical**
float64 output for any chunk size (1 row, a prime, larger than the
dataset), and ≤1e-4 relative in float32.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datamodel.dataset import Dataset
from repro.datamodel.popularity import PopularityVector
from repro.datamodel.video import Video
from repro.reconstruct.tagviews import TagViewsTable
from repro.reconstruct.views import ViewReconstructor
from repro.world.countries import default_registry
from repro.world.traffic import default_traffic_model
from tests.oracles import scalar_for_dataset, scalar_tag_table

RTOL = 1e-9

#: A small sub-axis keeps example generation fast while still exercising
#: sparse vectors on the full 62-country registry.
_CODES = default_registry().codes()[:12]
_TAGS = ("a", "b", "c", "d", "e")


def _video(i, views, tags, pop):
    return Video(
        video_id=f"AAAAAAAAA{i:02d}",
        title="t",
        uploader="u",
        upload_date="2010-01-01",
        views=views,
        tags=tags,
        popularity=PopularityVector(pop) if pop is not None else None,
    )


@st.composite
def datasets(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    videos = []
    for i in range(n):
        intensities = draw(
            st.dictionaries(
                st.sampled_from(_CODES),
                st.integers(min_value=0, max_value=61),
                max_size=6,
            )
        )
        # PopularityVector drops zeros itself; an empty dict models the
        # paper's "empty popularity vector" reject case.
        pop = intensities if draw(st.booleans()) else None
        views = draw(st.sampled_from((0, 1, 17, 1_000, 2_000_000_000)))
        tags = tuple(
            draw(st.lists(st.sampled_from(_TAGS), max_size=4))
        )
        videos.append(_video(i, views, tags, pop))
    return Dataset(videos)


def _reconstructor(mode):
    traffic = default_traffic_model()
    if mode == "naive":
        return ViewReconstructor(traffic, naive=True)
    if mode == "smoothed":
        return ViewReconstructor(traffic, smoothing=0.7)
    return ViewReconstructor(traffic)


@pytest.mark.parametrize("mode", ["plain", "naive", "smoothed"])
class TestReconstructionEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(dataset=datasets())
    def test_for_dataset_matches_oracle(self, mode, dataset):
        reconstructor = _reconstructor(mode)
        scalar = scalar_for_dataset(reconstructor, dataset)
        columnar = reconstructor.for_dataset(dataset)
        assert set(scalar) == set(columnar)
        for video_id, expected in scalar.items():
            np.testing.assert_allclose(
                columnar[video_id], expected, rtol=RTOL, atol=RTOL
            )

    @settings(max_examples=40, deadline=None)
    @given(dataset=datasets())
    def test_tag_table_matches_oracle(self, mode, dataset):
        reconstructor = _reconstructor(mode)
        scalar = scalar_tag_table(dataset, reconstructor)
        columnar = TagViewsTable(dataset, reconstructor, engine="columnar")
        assert scalar.tags() == columnar.tags()
        np.testing.assert_allclose(
            columnar.views_matrix(),
            scalar.views_matrix(),
            rtol=RTOL,
            atol=RTOL,
        )
        np.testing.assert_array_equal(
            columnar.video_counts(), scalar.video_counts()
        )


class TestEdgeCases:
    def test_zero_view_videos_reconstruct_to_zero_rows(self):
        dataset = Dataset(
            [
                _video(0, 0, ("a",), {"BR": 61}),
                _video(1, 500, ("a", "b"), {"US": 40}),
            ]
        )
        reconstructor = ViewReconstructor(default_traffic_model())
        for result in (
            scalar_for_dataset(reconstructor, dataset),
            reconstructor.for_dataset(dataset),
        ):
            assert result["AAAAAAAAA00"].sum() == 0.0
            assert result["AAAAAAAAA01"].sum() == pytest.approx(500)

    def test_smoothing_spreads_mass_identically(self):
        dataset = Dataset([_video(0, 1000, ("a",), {"SG": 61})])
        reconstructor = ViewReconstructor(
            default_traffic_model(), smoothing=0.5
        )
        scalar = scalar_for_dataset(reconstructor, dataset)
        columnar = reconstructor.for_dataset(dataset)
        row = columnar["AAAAAAAAA00"]
        np.testing.assert_allclose(
            row, scalar["AAAAAAAAA00"], rtol=RTOL, atol=RTOL
        )
        # Smoothing leaks mass to every country, not just the coloured one.
        assert np.all(row > 0)

    def test_tiny_pipeline_tables_agree(self, tiny_dataset, tiny_reconstructor):
        scalar = scalar_tag_table(tiny_dataset, tiny_reconstructor)
        columnar = TagViewsTable(
            tiny_dataset, tiny_reconstructor, engine="columnar"
        )
        np.testing.assert_allclose(
            columnar.views_matrix(), scalar.views_matrix(), rtol=RTOL
        )


#: Chunk/block sizes the streaming contracts must be invariant under —
#: degenerate (one row/entry at a time), an awkward prime, and "bigger
#: than anything the strategies generate" (the single-chunk fast path).
_CHUNKINGS = (1, 3, 10_000)


@pytest.mark.parametrize("mode", ["plain", "naive", "smoothed"])
class TestChunkedEquivalence:
    """The chunked engine is *bit-identical* to dense float64 — not
    merely close: both run :func:`repro.engine.compute.reconstruct_rows`
    on the same rows, so any drift is a kernel bug, not roundoff."""

    @settings(max_examples=30, deadline=None)
    @given(dataset=datasets())
    def test_chunked_matrix_bitwise_equal(self, mode, dataset):
        from repro.engine.columnar import build_columnar

        reconstructor = _reconstructor(mode)
        columnar = build_columnar(dataset, reconstructor.registry)
        dense = reconstructor.matrix_for_columnar(columnar)
        for chunk_rows in _CHUNKINGS:
            chunked = reconstructor.matrix_for_columnar(
                columnar, chunk_rows=chunk_rows
            )
            np.testing.assert_array_equal(chunked, dense)

    @settings(max_examples=30, deadline=None)
    @given(dataset=datasets())
    def test_chunked_table_bitwise_equal(self, mode, dataset):
        reconstructor = _reconstructor(mode)
        dense = TagViewsTable(dataset, reconstructor, engine="columnar")
        for block_entries in _CHUNKINGS:
            chunked = TagViewsTable(
                dataset,
                reconstructor,
                engine="chunked",
                block_entries=block_entries,
            )
            assert chunked.tags() == dense.tags()
            np.testing.assert_array_equal(
                chunked.views_matrix(), dense.views_matrix()
            )
            np.testing.assert_array_equal(
                chunked.video_counts(), dense.video_counts()
            )

    @settings(max_examples=30, deadline=None)
    @given(dataset=datasets())
    def test_float32_within_documented_bound(self, mode, dataset):
        reconstructor = _reconstructor(mode)
        dense = TagViewsTable(dataset, reconstructor, engine="columnar")
        for engine in ("columnar", "chunked"):
            f32 = TagViewsTable(
                dataset, reconstructor, engine=engine, dtype="float32"
            )
            a = f32.views_matrix()
            b = dense.views_matrix()
            mask = np.abs(b) > 0
            if mask.any():
                rel = np.max(np.abs(a[mask] - b[mask]) / np.abs(b[mask]))
                assert rel <= 1e-4
            # Exact zeros stay exact zeros in float32.
            np.testing.assert_array_equal(a[~mask], b[~mask])


class TestRowKernelChunking:
    """Every row kernel is chunk-size invariant, including the metric
    kernels the streaming row-metrics path composes."""

    @settings(max_examples=25, deadline=None)
    @given(dataset=datasets())
    def test_row_metrics_streaming_matches_dense(self, dataset):
        from repro.engine.columnar import build_columnar
        from repro.engine.compute import (
            entropy_rows,
            gini_rows,
            herfindahl_rows,
            rows_to_distributions,
            top_k_share_rows,
        )
        from repro.engine.outofcore import row_metrics_streaming

        reconstructor = _reconstructor("plain")
        columnar = build_columnar(dataset, reconstructor.registry)
        shares = rows_to_distributions(
            reconstructor.matrix_for_columnar(columnar)
        )
        expected = {
            "entropy": entropy_rows(shares),
            "gini": gini_rows(shares),
            "hhi": herfindahl_rows(shares),
            "top_k_share": top_k_share_rows(shares, k=1),
        }
        for chunk_rows in _CHUNKINGS:
            got = row_metrics_streaming(
                columnar,
                prior=reconstructor.prior,
                chunk_rows=chunk_rows,
            )
            for key, want in expected.items():
                np.testing.assert_array_equal(got[key], want)
