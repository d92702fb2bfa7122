"""Unit tests for the Eq. (3) tag view table."""

import numpy as np
import pytest

from repro.datamodel.dataset import Dataset
from repro.datamodel.popularity import PopularityVector
from repro.datamodel.video import Video
from repro.errors import AnalysisError
from repro.reconstruct.tagviews import TagViewsTable
from repro.reconstruct.views import ViewReconstructor
from tests.oracles import scalar_tag_table

IDS = [f"AAAAAAAAA{i:02d}" for i in range(10)]


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
def small_table(traffic):
    dataset = Dataset(
        [
            video(IDS[0], 100, ("a", "b"), {"BR": 61}),
            video(IDS[1], 50, ("b",), {"US": 61}),
            video(IDS[2], 10, ("c",), None),  # no map → ignored
            video(IDS[3], 10, (), {"US": 61}),  # no tags → ignored
        ]
    )
    return TagViewsTable(dataset, ViewReconstructor(traffic))


class TestEquationThree:
    def test_aggregation_is_sum_over_videos(self, small_table, registry):
        views_b = small_table.views_for("b")
        # b carries video0 (100 views, all BR) + video1 (50 views, all US).
        assert views_b[registry.index_of("BR")] == pytest.approx(100)
        assert views_b[registry.index_of("US")] == pytest.approx(50)
        assert small_table.total_views("b") == pytest.approx(150)

    def test_single_video_tag(self, small_table, registry):
        views_a = small_table.views_for("a")
        assert views_a[registry.index_of("BR")] == pytest.approx(100)
        assert small_table.video_count("a") == 1

    def test_ineligible_videos_excluded(self, small_table):
        assert "c" not in small_table  # its only video had no map
        assert len(small_table) == 2

    def test_unknown_tag_rejected(self, small_table):
        with pytest.raises(AnalysisError):
            small_table.views_for("zzz")

    def test_shares_normalized(self, small_table):
        assert small_table.shares_for("b").sum() == pytest.approx(1.0)

    def test_views_for_returns_copy(self, small_table):
        first = small_table.views_for("a")
        first[0] = 1e9
        assert small_table.views_for("a")[0] != 1e9

    def test_top_country(self, small_table):
        assert small_table.top_country("a") == "BR"

    def test_top_tags_by_views_ordering(self, small_table):
        ranking = small_table.top_tags_by_views(5)
        assert ranking[0][0] == "b"
        values = [views for _, views in ranking]
        assert values == sorted(values, reverse=True)

    @pytest.mark.parametrize("engine", ["scalar", "columnar"])
    def test_duplicate_tags_counted_once(self, traffic, engine):
        """Regression: a video listing the same tag twice must contribute
        its views to that tag once, not twice.

        ``normalize_tags`` dedupes at construction, so the duplicate is
        forced past it — modelling records that bypass normalization.
        """
        dup = video(IDS[0], 100, ("a",), {"BR": 61})
        object.__setattr__(dup, "tags", ("a", "a", "b", "a"))
        build = scalar_tag_table if engine == "scalar" else TagViewsTable
        table = build(Dataset([dup]), ViewReconstructor(traffic))
        assert table.total_views("a") == pytest.approx(100)
        assert table.video_count("a") == 1
        assert table.tags() == ["a", "b"]


class TestOnPipelineData:
    def test_table_covers_all_filtered_tags(self, tiny_pipeline):
        table = tiny_pipeline.tag_table
        dataset_tags = set()
        for video_record in tiny_pipeline.dataset:
            dataset_tags.update(video_record.tags)
        assert set(table.tags()) == dataset_tags

    def test_total_mass_equals_tag_weighted_views(self, tiny_pipeline):
        # Σ_t Σ_c views(t)[c] = Σ_v |tags(v)| × views(v) over eligible
        # videos (each video counted once per carried tag).
        table = tiny_pipeline.tag_table
        total_table = sum(vec.sum() for _, vec in table.items())
        expected = sum(
            len(v.tags) * v.views for v in tiny_pipeline.dataset
        )
        assert total_table == pytest.approx(expected, rel=1e-9)

    def test_video_counts_match_dataset_index(self, tiny_pipeline):
        table = tiny_pipeline.tag_table
        freq = tiny_pipeline.dataset.tag_frequencies()
        for tag in list(table.tags())[:50]:
            assert table.video_count(tag) == freq[tag]
