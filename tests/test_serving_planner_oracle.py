"""The tag planners' array path against the per-video loop it replaced.

:class:`~repro.serving.planner.TagAwarePlanner` and
:class:`~repro.serving.planner.AdaptiveTagPlanner` plan with matrix
operations over the catalogue's predicted-share matrix. The oracle here
is the loop they used to run: per video, predict its shares, tilt them,
sum them onto each country's nearest replica, nominate the top replicas
with a stable argsort, discount each further copy, then sort every
candidate on (−score, video id, replica id) and fill replicas greedily.

The oracle's one departure from that loop is the per-replica sum. The
loop summed with a BLAS matrix-vector product (``aggregate @ shares``),
whose summation order is a kernel detail that no batched reduction
reproduces. On a one-replica fleet every video's demand is its views
times a share sum that equals 1 up to rounding, so videos with equal
views would be ordered by that rounding. The oracle therefore spells
the sum out as the array path defines it: country by country in
registry order. With that, every plan must be equal to the oracle's:
the same replica keys in the same order, each with the same list.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.conjecture import WEIGHTINGS
from repro.datamodel.dataset import Dataset
from repro.datamodel.video import Video
from repro.errors import ServingError
from repro.placement.cache import LRUCache
from repro.placement.predictor import TagGeoPredictor
from repro.serving import AdaptiveTagPlanner, TagAwarePlanner
from repro.serving.replica import Replica
from repro.world.geo import distance_matrix


class LoopPlanning:
    """The per-video ``_score`` and ``_fill`` as an oracle planner."""

    def _plan(self, catalogue, fleet, capacity, weights=None):
        candidates = self._score(catalogue, fleet, weights)
        return self._fill(candidates, fleet, capacity)

    @staticmethod
    def _fill(
        candidates: Sequence[Tuple[float, str, str]],
        fleet: Sequence[Replica],
        capacity: int,
    ) -> Dict[str, List[str]]:
        """Global greedy: best-scored candidates claim capacity first."""
        plan: Dict[str, List[str]] = {
            replica.replica_id: [] for replica in fleet
        }
        for score, video_id, replica_id in candidates:
            target = plan[replica_id]
            if len(target) < capacity:
                target.append(video_id)
        return plan

    def _score(
        self,
        catalogue,
        fleet,
        weights: Optional[np.ndarray] = None,
    ) -> List[Tuple[float, str, str]]:
        registry = self.predictor.registry
        codes = registry.codes()
        code_index = {code: i for i, code in enumerate(codes)}
        for replica in fleet:
            if replica.country not in code_index:
                raise ServingError(
                    f"replica {replica.replica_id!r} in unknown country "
                    f"{replica.country!r}"
                )

        # Country → nearest replica. Ties break on fleet order (stable
        # argmin).
        distances = distance_matrix(registry)
        replica_columns = [code_index[replica.country] for replica in fleet]
        to_replica = distances[:, replica_columns]  # (C, R)
        nearest = np.argmin(to_replica, axis=1)  # (C,)

        # Each video's k-th best replica (by predicted absorbed demand)
        # becomes a candidate worth demand · discount^k. ``weights``
        # (registry-ordered, per-country) tilts the predicted shares
        # toward observed demand before aggregation.
        candidates: List[Tuple[float, str, str]] = []
        for video in catalogue:
            shares = self.predictor.predict_shares(video)
            if weights is not None:
                shares = shares * weights
            demand = np.zeros(len(fleet))
            for country, replica in enumerate(nearest):
                demand[replica] += shares[country]
            demand = demand * float(video.views)  # (R,)
            order = np.argsort(-demand, kind="stable")[: self.replicas_per_video]
            for copy, position in enumerate(order):
                score = float(demand[int(position)]) * self.copy_discount**copy
                if score <= 0.0:
                    continue
                candidates.append(
                    (score, video.video_id, fleet[int(position)].replica_id)
                )

        candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
        return candidates


class LoopTagPlanner(LoopPlanning, TagAwarePlanner):
    pass


class LoopAdaptiveTagPlanner(LoopPlanning, AdaptiveTagPlanner):
    pass


def _assert_same_plan(got, expected):
    assert list(got.items()) == list(expected.items())


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

#: Views drawn from a few values, so equal views are common.
_VIEWS = (0, 1, 7, 1_000, 123_457, 10**9)
_UNSEEN_TAGS = ("zz unseen one", "zz unseen two")


def _synthetic_id(i: int) -> str:
    return f"zzOracle{i:03d}"


@st.composite
def catalogues(draw, pipeline):
    """A list or Dataset of real and synthetic videos.

    Synthetic videos draw views and tag lists from small pools, so equal
    views, equal tag lists and whole duplicates are common; tags mix
    table tags with unseen ones, and a catalogue may hold only
    cold-start videos (no table tag: the traffic prior) or none at all.
    """
    real = list(pipeline.dataset)
    known = pipeline.tag_table.tags()[:12]
    cold_only = draw(st.booleans())
    tag_pool = list(_UNSEEN_TAGS) + ([] if cold_only else known)
    tag_lists = draw(
        st.lists(
            st.lists(st.sampled_from(tag_pool), max_size=4),
            min_size=1,
            max_size=4,
        )
    )
    videos = []
    for i in range(draw(st.integers(min_value=0, max_value=14))):
        videos.append(
            Video(
                video_id=_synthetic_id(i),
                title="",
                uploader="oracle",
                upload_date="2014-01-01",
                views=draw(st.sampled_from(_VIEWS)),
                tags=tuple(draw(st.sampled_from(tag_lists))),
            )
        )
    if not cold_only:
        picks = draw(
            st.lists(
                st.integers(min_value=0, max_value=len(real) - 1),
                max_size=10,
                unique=True,
            )
        )
        videos.extend(real[i] for i in picks)
    videos = draw(st.permutations(videos))
    if draw(st.booleans()):
        return Dataset(videos)
    return list(videos)


@st.composite
def fleets(draw, registry):
    """Replicas in drawn countries; some share a country, some are dead."""
    codes = draw(
        st.lists(
            st.sampled_from(registry.codes()),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
    sharing = draw(st.lists(st.sampled_from(codes), max_size=2))
    fleet = [
        Replica(f"edge-{i}-{code}", code, LRUCache(1))
        for i, code in enumerate(codes + sharing)
    ]
    fleet = draw(st.permutations(fleet))
    for replica in fleet:
        if draw(st.booleans()) and draw(st.booleans()):
            replica.fail()
    return fleet


def _knobs(draw, fleet, catalogue):
    return {
        "capacity": draw(
            st.integers(min_value=0, max_value=len(catalogue) + 2)
        ),
        "replicas_per_video": draw(
            st.integers(min_value=1, max_value=len(fleet) + 2)
        ),
        "copy_discount": draw(
            st.one_of(
                st.sampled_from((1.0, 0.5)),
                st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
            )
        ),
    }


# ---------------------------------------------------------------------------
# Plans equal the loop's
# ---------------------------------------------------------------------------


@given(data=st.data())
def test_static_plan_matches_loop(tiny_pipeline, data):
    draw = data.draw
    predictor = TagGeoPredictor(
        tiny_pipeline.tag_table, weighting=draw(st.sampled_from(WEIGHTINGS))
    )
    catalogue = draw(catalogues(tiny_pipeline))
    fleet = draw(fleets(predictor.registry))
    knobs = _knobs(draw, fleet, catalogue)
    capacity = knobs.pop("capacity")
    planner = TagAwarePlanner(predictor, **knobs)
    oracle = LoopTagPlanner(predictor, **knobs)
    _assert_same_plan(
        planner.plan(catalogue, fleet, capacity),
        oracle.plan(catalogue, fleet, capacity),
    )


@given(data=st.data())
def test_adaptive_replans_match_loop(tiny_pipeline, data):
    """Re-plans under observed demand, failures and catalogue changes."""
    draw = data.draw
    predictor = TagGeoPredictor(tiny_pipeline.tag_table)
    codes = predictor.registry.codes()
    fleet = draw(fleets(predictor.registry))
    catalogue = draw(catalogues(tiny_pipeline))
    knobs = _knobs(draw, fleet, catalogue)
    capacity = knobs.pop("capacity")
    knobs["demand_boost"] = draw(st.sampled_from((0.0, 1.0, 4.0, 50.0)))
    knobs["decay"] = draw(st.sampled_from((0.0, 0.5, 1.0)))
    planner = AdaptiveTagPlanner(predictor, **knobs)
    oracle = LoopAdaptiveTagPlanner(predictor, **knobs)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        requests = draw(
            st.lists(st.sampled_from(codes[:8] + ["XX"]), max_size=6)
        )
        demand = draw(
            st.one_of(
                st.none(),
                st.lists(
                    st.sampled_from((0.0, 0.25, 3.0, 1e6)),
                    min_size=len(codes),
                    max_size=len(codes),
                ),
            )
        )
        for target in (planner, oracle):
            for country in requests:
                target.observe_request(country)
            if demand is not None:
                target.observe_demand(demand)
        if draw(st.booleans()):
            replica = draw(st.sampled_from(fleet))
            if replica.alive:
                replica.fail()
            else:
                replica.recover()
        if draw(st.booleans()):
            catalogue = draw(catalogues(tiny_pipeline))
        expected = oracle.plan(catalogue, fleet, capacity)
        _assert_same_plan(planner.plan(catalogue, fleet, capacity), expected)
        assert planner.observed_total == oracle.observed_total
    assert planner.replans == oracle.replans


def test_plans_match_loop_on_the_whole_catalogue(tiny_pipeline):
    predictor = TagGeoPredictor(tiny_pipeline.tag_table)
    fleet = [
        Replica(f"edge-{code}", code, LRUCache(1))
        for code in ("US", "JP", "BR", "DE", "IN", "GB")
    ]
    catalogue = tiny_pipeline.dataset
    for capacity in (0, 5, 40, len(catalogue)):
        for copies in (1, 2, 6):
            knobs = {"replicas_per_video": copies}
            _assert_same_plan(
                TagAwarePlanner(predictor, **knobs).plan(
                    catalogue, fleet, capacity
                ),
                LoopTagPlanner(predictor, **knobs).plan(
                    catalogue, fleet, capacity
                ),
            )


# ---------------------------------------------------------------------------
# The predicted-share matrix and its memo
# ---------------------------------------------------------------------------


class TestPredictMatrix:
    def test_rows_are_predict_shares(self, tiny_pipeline):
        predictor = TagGeoPredictor(tiny_pipeline.tag_table)
        catalogue = tiny_pipeline.dataset
        matrix = predictor.predict_matrix(catalogue)
        assert matrix.shape == (len(catalogue), len(predictor.registry))
        for row, video in zip(matrix, catalogue):
            assert np.array_equal(row, predictor.predict_shares(video))

    def test_read_only_and_reused(self, tiny_pipeline):
        predictor = TagGeoPredictor(tiny_pipeline.tag_table)
        videos = list(tiny_pipeline.dataset)
        matrix = predictor.predict_matrix(Dataset(videos))
        assert not matrix.flags.writeable
        assert predictor.predict_matrix(videos) is matrix
        assert predictor.predict_matrix(videos[:-1]) is not matrix

    def test_empty_catalogue(self, tiny_pipeline):
        predictor = TagGeoPredictor(tiny_pipeline.tag_table)
        matrix = predictor.predict_matrix([])
        assert matrix.shape == (0, len(predictor.registry))


def _fleet():
    return [
        Replica(f"edge-{code}", code, LRUCache(1))
        for code in ("US", "JP", "BR", "DE")
    ]


def _placed(plan):
    return {video_id for ids in plan.values() for video_id in ids}


@pytest.mark.parametrize("kind", [TagAwarePlanner, AdaptiveTagPlanner])
class TestNoStalePlan:
    """A re-plan never returns another catalogue's plan."""

    def test_new_catalogue_at_a_freed_address(self, tiny_pipeline, kind):
        videos = list(tiny_pipeline.dataset)
        planner = kind(TagGeoPredictor(tiny_pipeline.tag_table))
        fleet = _fleet()
        first = Dataset(videos[:100])
        planner.plan(first, fleet, 50)
        del first
        second = Dataset(videos[100:200])  # often lands at first's address
        plan = planner.plan(second, fleet, 50)
        assert _placed(plan)
        assert _placed(plan) <= set(second.video_ids())
        fresh = kind(TagGeoPredictor(tiny_pipeline.tag_table))
        _assert_same_plan(plan, fresh.plan(second, fleet, 50))

    def test_list_edited_in_place(self, tiny_pipeline, kind):
        videos = list(tiny_pipeline.dataset)
        planner = kind(TagGeoPredictor(tiny_pipeline.tag_table))
        fleet = _fleet()
        catalogue = videos[:100]
        planner.plan(catalogue, fleet, 50)
        catalogue[:] = videos[100:200]
        plan = planner.plan(catalogue, fleet, 50)
        assert _placed(plan)
        assert _placed(plan) <= {video.video_id for video in catalogue}
        fresh = kind(TagGeoPredictor(tiny_pipeline.tag_table))
        _assert_same_plan(plan, fresh.plan(catalogue, fleet, 50))
