"""Unit tests for the columnar materialization and its Eq. (3) sums."""

import numpy as np
import pytest

from repro.datamodel.dataset import Dataset
from repro.datamodel.popularity import PopularityVector
from repro.datamodel.video import Video
from repro.engine import ColumnarDataset, build_columnar
from repro.engine.compute import tag_segment_sums
from repro.errors import ReconstructionError

IDS = [f"AAAAAAAAA{i:02d}" for i in range(12)]


def video(video_id, views, tags, pop):
    return Video(
        video_id=video_id,
        title="t",
        uploader="u",
        upload_date="2010-01-01",
        views=views,
        tags=tags,
        popularity=PopularityVector(pop) if pop is not None else None,
    )


@pytest.fixture()
def small_dataset():
    return Dataset(
        [
            video(IDS[0], 100, ("a", "b"), {"BR": 61}),
            video(IDS[1], 50, ("b",), {"US": 61, "BR": 10}),
            video(IDS[2], 10, ("c",), None),  # no map → no row
            video(IDS[3], 7, (), {"US": 61}),  # tagless → row, no CSR entry
            video(IDS[4], 3, ("a",), {"JP": 30}),
        ]
    )


class TestBuild:
    def test_rows_are_eligible_videos_in_order(self, small_dataset, registry):
        columnar = build_columnar(small_dataset, registry)
        assert columnar.video_ids == (IDS[0], IDS[1], IDS[3], IDS[4])
        assert columnar.n_videos == 4
        assert columnar.n_countries == len(registry)
        np.testing.assert_array_equal(columnar.views, [100, 50, 7, 3])

    def test_pop_matrix_matches_popularity_vectors(
        self, small_dataset, registry
    ):
        columnar = build_columnar(small_dataset, registry)
        assert columnar.pop[0, registry.index_of("BR")] == 61
        assert columnar.pop[1, registry.index_of("US")] == 61
        assert columnar.pop[1, registry.index_of("BR")] == 10
        assert columnar.pop[3, registry.index_of("JP")] == 30
        # Exactly the five recorded intensities were scattered in.
        assert np.count_nonzero(columnar.pop) == 5

    def test_csr_groups_videos_by_tag(self, small_dataset, registry):
        columnar = build_columnar(small_dataset, registry)
        assert columnar.tags == ("a", "b")  # "c"'s only video had no map
        segments = {
            tag: list(
                columnar.indices[
                    columnar.indptr[i]:columnar.indptr[i + 1]
                ]
            )
            for i, tag in enumerate(columnar.tags)
        }
        # Rows: 0 = IDS[0], 1 = IDS[1], 2 = IDS[3] (tagless), 3 = IDS[4].
        assert segments == {"a": [0, 3], "b": [0, 1]}
        np.testing.assert_array_equal(columnar.tag_video_counts(), [2, 2])

    def test_tagless_row_in_no_segment(self, small_dataset, registry):
        columnar = build_columnar(small_dataset, registry)
        assert 2 not in set(columnar.indices)

    def test_duplicate_tags_counted_once(self, registry):
        clean = video(IDS[0], 100, ("a",), {"BR": 61})
        object.__setattr__(clean, "tags", ("a", "a", "a"))
        columnar = build_columnar([clean], registry)
        assert columnar.tags == ("a",)
        np.testing.assert_array_equal(columnar.tag_video_counts(), [1])

    def test_sharded_build_identical_to_serial(self, tiny_dataset, registry):
        serial = build_columnar(tiny_dataset, registry, workers=1)
        sharded = build_columnar(tiny_dataset, registry, workers=4)
        assert serial.video_ids == sharded.video_ids
        assert serial.tags == sharded.tags
        np.testing.assert_array_equal(serial.pop, sharded.pop)
        np.testing.assert_array_equal(serial.views, sharded.views)
        np.testing.assert_array_equal(serial.indptr, sharded.indptr)
        np.testing.assert_array_equal(serial.indices, sharded.indices)

    @pytest.mark.parametrize("parallel", ["process"])
    def test_parallel_fill_identical_to_serial(
        self, tiny_dataset, registry, parallel
    ):
        serial = build_columnar(
            tiny_dataset, registry, workers=1, parallel="serial"
        )
        filled = build_columnar(
            tiny_dataset, registry, workers=2, parallel=parallel
        )
        assert serial.video_ids == filled.video_ids
        assert serial.tags == filled.tags
        np.testing.assert_array_equal(serial.pop, filled.pop)
        np.testing.assert_array_equal(serial.views, filled.views)
        np.testing.assert_array_equal(serial.indptr, filled.indptr)
        np.testing.assert_array_equal(serial.indices, filled.indices)

    def test_bad_worker_count_rejected(self, small_dataset, registry):
        with pytest.raises(ReconstructionError, match="workers"):
            build_columnar(small_dataset, registry, workers=0)

    def test_bad_parallel_mode_rejected(self, small_dataset, registry):
        with pytest.raises(ReconstructionError, match="parallel"):
            build_columnar(small_dataset, registry, parallel="gpu")

    def test_validate_catches_structural_damage(self, small_dataset, registry):
        good = build_columnar(small_dataset, registry)
        good.validate()  # sane as built
        bad = ColumnarDataset(
            video_ids=good.video_ids,
            pop=good.pop,
            views=good.views,
            tags=good.tags,
            indptr=good.indptr,
            indices=good.indices + good.n_videos,  # out of row range
            codes=good.codes,
        )
        with pytest.raises(ReconstructionError, match="indices"):
            bad.validate()


class TestSegmentSums:
    def test_matches_python_accumulation_across_block_sizes(self):
        rng = np.random.default_rng(7)
        matrix = rng.random((23, 5))
        # Incidence with empty segments at the front, middle and end.
        indptr = np.array([0, 0, 4, 4, 4, 9, 10, 10, 23, 23], dtype=np.int64)
        indices = rng.integers(0, 23, size=23).astype(np.int64)
        expected = np.zeros((len(indptr) - 1, 5))
        for t in range(len(indptr) - 1):
            for v in indices[indptr[t]:indptr[t + 1]]:
                expected[t] += matrix[v]
        for block in (1, 2, 5, 7, 1000):
            got = tag_segment_sums(matrix, indptr, indices, block_entries=block)
            np.testing.assert_allclose(got, expected, rtol=1e-12)

