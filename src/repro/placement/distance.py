"""Serving-distance evaluation of proactive placements.

Hit rate treats all misses alike; backbone cost does not. This evaluator
scores a placement by *where each request is served from*:

- the requesting country holds a replica → local, 0 km;
- otherwise the nearest country holding a replica → its centroid
  distance;
- otherwise origin — the provider's core datacenter (defaults to the
  US, where YouTube's 2011 origin sat).

The resulting mean kilometres-per-request is the transit-cost proxy a
CDN planner optimizes; the V6 benchmark shows tag-predictive placement
cutting it well below the content-blind baseline even where their hit
rates look similar.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.datamodel.dataset import Dataset
from repro.errors import PlacementError
from repro.placement.policies import PlacementPolicy
from repro.placement.simulator import budgeted_placements
from repro.placement.workload import RequestTrace
from repro.world.countries import CountryRegistry
from repro.world.geo import distance_matrix


@dataclass(frozen=True)
class ServingDistanceReport:
    """Distance profile of one placement under one trace.

    Attributes:
        policy: Placement policy name.
        requests: Requests evaluated.
        mean_km: Mean serving distance per request.
        local_fraction: Requests served from the requesting country.
        remote_fraction: Requests served from another replica country.
        origin_fraction: Requests that fell through to origin.
    """

    policy: str
    requests: int
    mean_km: float
    local_fraction: float
    remote_fraction: float
    origin_fraction: float

    def as_rows(self) -> List[Tuple[str, object]]:
        return [
            ("policy", self.policy),
            ("requests", self.requests),
            ("mean serving distance (km)", round(self.mean_km, 1)),
            ("served locally", f"{self.local_fraction:.1%}"),
            ("served from remote replica", f"{self.remote_fraction:.1%}"),
            ("served from origin", f"{self.origin_fraction:.1%}"),
        ]


def evaluate_serving_distance(
    catalogue: Dataset,
    trace: RequestTrace,
    policy: PlacementPolicy,
    capacity: int,
    registry: CountryRegistry,
    origin: str = "US",
) -> ServingDistanceReport:
    """Score ``policy`` by mean serving distance (see module docstring).

    Args:
        catalogue: The uploaded videos.
        trace: The request workload.
        policy: Placement policy under test.
        capacity: Per-country proactive storage budget (videos).
        registry: Country axis.
        origin: Country code hosting the provider's origin datacenter.
    """
    if origin not in registry:
        raise PlacementError(f"unknown origin country: {origin!r}")
    distances = distance_matrix(registry)
    codes = registry.codes()
    index = {code: i for i, code in enumerate(codes)}

    placements = budgeted_placements(catalogue, policy, capacity, registry)
    # Invert: video -> countries holding it.
    holders: Dict[str, List[int]] = {}
    for country, video_ids in placements.items():
        country_index = index[country]
        for video_id in video_ids:
            holders.setdefault(video_id, []).append(country_index)

    origin_index = index[origin]
    total_km = 0.0
    local = 0
    remote = 0
    fell_through = 0
    for request in trace:
        requester = index[request.country]
        holding = holders.get(request.video_id)
        if holding and requester in holding:
            local += 1
        elif holding:
            total_km += min(distances[requester][h] for h in holding)
            remote += 1
        else:
            total_km += distances[requester][origin_index]
            fell_through += 1

    count = len(trace)
    return ServingDistanceReport(
        policy=policy.name,
        requests=count,
        mean_km=total_km / count if count else 0.0,
        local_fraction=local / count if count else 0.0,
        remote_fraction=remote / count if count else 0.0,
        origin_fraction=fell_through / count if count else 0.0,
    )
