"""Tests for the serving-distance evaluator."""

import pytest

from repro.errors import PlacementError
from repro.placement.distance import evaluate_serving_distance
from repro.placement.policies import (
    NoPlacement,
    OraclePlacement,
    PriorPlacement,
    TagPredictivePlacement,
)
from repro.placement.simulator import budgeted_placements


@pytest.fixture(scope="module")
def distance_setup(tiny_pipeline, tiny_predictor, tiny_trace):
    universe = tiny_pipeline.universe
    return universe, tiny_pipeline.dataset, tiny_trace(5000, seed=77), tiny_predictor


class TestBudgetedPlacements:
    def test_capacity_respected(self, distance_setup):
        universe, dataset, _, predictor = distance_setup
        placements = budgeted_placements(
            dataset,
            TagPredictivePlacement(predictor, replicas=5),
            capacity=12,
            registry=universe.registry,
        )
        for country, video_ids in placements.items():
            assert len(video_ids) <= 12
            assert len(video_ids) == len(set(video_ids))

    def test_top_scores_win(self, distance_setup):
        universe, dataset, _, _ = distance_setup
        placements = budgeted_placements(
            dataset,
            OraclePlacement(universe, replicas=3),
            capacity=5,
            registry=universe.registry,
        )
        # In a country's list, the kept videos are those with the highest
        # oracle scores: check US keeps views-heavy videos.
        if "US" in placements:
            kept = placements["US"]
            index = universe.registry.index_of("US")
            kept_scores = [
                universe.get(vid).views * universe.get(vid).true_shares[index]
                for vid in kept
            ]
            assert min(kept_scores) > 0

    def test_empty_policy_places_nothing(self, distance_setup):
        universe, dataset, _, _ = distance_setup
        assert (
            budgeted_placements(
                dataset, NoPlacement(), capacity=5, registry=universe.registry
            )
            == {}
        )


class TestServingDistance:
    def test_report_fractions_sum_to_one(self, distance_setup):
        universe, dataset, trace, predictor = distance_setup
        report = evaluate_serving_distance(
            dataset,
            trace,
            TagPredictivePlacement(predictor, replicas=6),
            capacity=20,
            registry=universe.registry,
        )
        total = (
            report.local_fraction
            + report.remote_fraction
            + report.origin_fraction
        )
        assert total == pytest.approx(1.0)
        assert report.requests == len(trace)

    def test_no_placement_all_origin(self, distance_setup):
        universe, dataset, trace, _ = distance_setup
        report = evaluate_serving_distance(
            dataset, trace, NoPlacement(), capacity=20, registry=universe.registry
        )
        assert report.origin_fraction == 1.0
        assert report.local_fraction == 0.0
        assert report.mean_km > 1000

    def test_policy_ordering_by_distance(self, distance_setup):
        universe, dataset, trace, predictor = distance_setup
        def km(policy):
            return evaluate_serving_distance(
                dataset, trace, policy, capacity=20, registry=universe.registry
            ).mean_km

        none_km = km(NoPlacement())
        prior_km = km(PriorPlacement(universe.traffic, 6))
        tags_km = km(TagPredictivePlacement(predictor, 6))
        oracle_km = km(OraclePlacement(universe, 6))
        assert oracle_km <= tags_km < prior_km < none_km

    def test_local_serving_is_free(self, distance_setup):
        universe, dataset, trace, _ = distance_setup
        # With infinite capacity, the oracle pins every requested video in
        # its top countries; mean distance must drop far below no-placement.
        report = evaluate_serving_distance(
            dataset,
            trace,
            OraclePlacement(universe, replicas=10),
            capacity=10**9,
            registry=universe.registry,
        )
        assert report.local_fraction > 0.5

    def test_unknown_origin_rejected(self, distance_setup):
        universe, dataset, trace, _ = distance_setup
        with pytest.raises(PlacementError):
            evaluate_serving_distance(
                dataset,
                trace,
                NoPlacement(),
                capacity=5,
                registry=universe.registry,
                origin="XX",
            )
