"""Warm-placement planners: what each replica holds before traffic.

A planner looks at the catalogue and the replica fleet and produces a
*placement plan* — ``{replica_id: [video_id, ...]}`` — that the
controller pushes before serving starts. The three planners mirror the
policy families the offline placement benchmark compares, recast for a
replica fleet:

- :class:`ReactiveOnlyPlanner` — push nothing; caches fill purely from
  misses (the deployed-default baseline);
- :class:`RoundRobinPlanner` — deal the most-viewed videos across
  replicas in rotation, blind to geography (the architecture baseline —
  this is what the snippet-style controller did);
- :class:`TagAwarePlanner` — the paper's proposal operationalized: for
  each video, predict its per-country view shares from its tags
  (Eq. (3) mixture), aggregate the predicted demand onto each country's
  *nearest replica*, and give every replica the videos it is predicted
  to serve most;
- :class:`AdaptiveTagPlanner` — the tag planner with a feedback loop:
  it observes the countries actually requesting, reweights the Eq. (3)
  demand toward where traffic *is* (flash crowds), and plans only over
  replicas that are still alive (regional blackouts) — so a re-warm
  after chaos pushes the lost region's catalogue onto the survivors
  nearest the shifted demand.

Plans are deterministic: ties break on video id / replica id, never on
hash order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.datamodel.dataset import Dataset
from repro.errors import ServingError
from repro.placement.predictor import TagGeoPredictor
from repro.serving.replica import Replica
from repro.world.geo import distance_matrix


class ServingPlanner:
    """Interface: build a placement plan for a replica fleet."""

    #: Human-readable planner name (subclasses override).
    name = "abstract"

    def plan(
        self,
        catalogue: Dataset,
        replicas: Sequence[Replica],
        capacity: int,
    ) -> Dict[str, List[str]]:
        """``{replica_id: ordered video ids}``, each list ≤ ``capacity``."""
        raise NotImplementedError

    @staticmethod
    def _check(replicas: Sequence[Replica], capacity: int) -> List[Replica]:
        if capacity < 0:
            raise ServingError(f"capacity must be >= 0, got {capacity}")
        fleet = list(replicas)
        if not fleet:
            raise ServingError("cannot plan for an empty replica fleet")
        return fleet


class ReactiveOnlyPlanner(ServingPlanner):
    """Push nothing: caches start cold and fill reactively."""

    name = "reactive"

    def plan(self, catalogue, replicas, capacity):
        fleet = self._check(replicas, capacity)
        return {replica.replica_id: [] for replica in fleet}


class RoundRobinPlanner(ServingPlanner):
    """Deal globally popular videos across replicas in rotation.

    Geography-blind: replica *k* gets the (k, k+R, k+2R, ...)-th most
    viewed videos. Every replica ends up with a popularity-stratified
    slice of the catalogue regardless of where its viewers are.
    """

    name = "round-robin"

    def plan(self, catalogue, replicas, capacity):
        fleet = self._check(replicas, capacity)
        ranked = sorted(
            catalogue, key=lambda video: (-video.views, video.video_id)
        )
        plan: Dict[str, List[str]] = {
            replica.replica_id: [] for replica in fleet
        }
        position = 0
        for video in ranked:
            if all(len(vids) >= capacity for vids in plan.values()):
                break
            for _ in range(len(fleet)):
                target = plan[fleet[position % len(fleet)].replica_id]
                position += 1
                if len(target) < capacity:
                    target.append(video.video_id)
                    break
        return plan


class TagAwarePlanner(ServingPlanner):
    """Place each video where its tags predict its viewers are.

    For video *v* with predicted share vector *s_v* (Eq. (3) tag
    mixture, worldwide prior on cold start) and total views *V_v*, the
    demand replica *r* would absorb is ``d_r(v) = V_v · Σ_{c → r}
    s_v[c]`` where *c → r* means replica *r* is the nearest replica to
    country *c* (centroid distance — the same geography the serving
    report scores against). Each video nominates its top
    ``replicas_per_video`` replicas by demand; each replica keeps its
    ``capacity`` highest-demand nominations.

    Budgeting is a single global greedy pass: all (video, replica)
    candidates compete on *discounted* demand — a video's k-th copy is
    worth ``copy_discount^k`` of its raw demand — so a second copy of a
    popular video must beat the *first* copy of a less popular one.
    This trades locality against catalogue coverage explicitly instead
    of letting duplicates silently crowd out coverage.

    The shares come from :meth:`TagGeoPredictor.predict_matrix`, built
    once per catalogue, so a re-plan over the same videos is array
    operations only.

    Args:
        predictor: Tag → geography predictor (Eq. (3) table).
        replicas_per_video: Candidate copies per video before capacity
            budgeting (≥ 1).
        copy_discount: Multiplier applied per additional copy of the
            same video, in (0, 1].
    """

    name = "tags"

    def __init__(
        self,
        predictor: TagGeoPredictor,
        replicas_per_video: int = 2,
        copy_discount: float = 0.5,
    ):
        if replicas_per_video < 1:
            raise ServingError(
                f"replicas_per_video must be >= 1, got {replicas_per_video}"
            )
        if not 0.0 < copy_discount <= 1.0:
            raise ServingError(
                f"copy_discount must be in (0, 1], got {copy_discount}"
            )
        self.predictor = predictor
        self.replicas_per_video = replicas_per_video
        self.copy_discount = copy_discount

    def plan(self, catalogue, replicas, capacity):
        return self._plan(catalogue, self._check(replicas, capacity), capacity)

    def _plan(
        self,
        catalogue,
        fleet: Sequence[Replica],
        capacity: int,
        weights: Optional[np.ndarray] = None,
    ) -> Dict[str, List[str]]:
        registry = self.predictor.registry
        code_index = {code: i for i, code in enumerate(registry.codes())}
        for replica in fleet:
            if replica.country not in code_index:
                raise ServingError(
                    f"replica {replica.replica_id!r} in unknown country "
                    f"{replica.country!r}"
                )

        # Country → nearest replica; ties break on fleet order (argmin).
        columns = [code_index[replica.country] for replica in fleet]
        nearest = np.argmin(distance_matrix(registry)[:, columns], axis=1)

        # Demand per (video, replica): the catalogue's share matrix,
        # tilted by ``weights`` (per country, registry order) toward
        # observed demand, summed onto each country's nearest replica
        # one column at a time (each row on its own, so equal rows tie
        # exactly), times views.
        videos = tuple(catalogue)
        shares = self.predictor.predict_matrix(videos)
        if weights is not None:
            shares = shares * weights
        demand = np.zeros((len(videos), len(fleet)))
        for country, replica in enumerate(nearest):
            demand[:, replica] += shares[:, country]
        demand *= np.array([video.views for video in videos], float)[:, None]

        # Each video's k-th best replica becomes a candidate worth
        # demand · discount^k; zero-demand candidates are dropped.
        copies = min(self.replicas_per_video, len(fleet))
        best = np.argsort(-demand, axis=1, kind="stable")[:, :copies]
        discounts = [self.copy_discount**copy for copy in range(copies)]
        scores = (np.take_along_axis(demand, best, axis=1) * discounts).ravel()
        keep = scores > 0.0
        video_of = np.repeat(np.arange(len(videos)), copies)[keep]
        replica_of = best.ravel()[keep]

        # The global greedy fill: candidates claim capacity best-first,
        # ties on video id. A candidate's fate depends only on those
        # before it at its own replica, so sorting with the replica
        # first lists each replica's candidates in fill order, and the
        # fill is a cut at ``capacity``.
        ids = [video.video_id for video in videos]
        rank = np.unique(np.array(ids, dtype=str), return_inverse=True)[1]
        order = np.lexsort((rank[video_of], -scores[keep], replica_of))
        bounds = np.searchsorted(replica_of[order], np.arange(len(fleet) + 1))
        plan: Dict[str, List[str]] = {}
        for index, replica in enumerate(fleet):
            start = bounds[index]
            stop = min(bounds[index + 1], start + capacity)
            plan[replica.replica_id] = [
                ids[video] for video in video_of[order[start:stop]]
            ]
        return plan


class AdaptiveTagPlanner(TagAwarePlanner):
    """The tag planner that re-plans against demand *as observed*.

    The static :class:`TagAwarePlanner` answers "where will this video's
    viewers be, according to its tags?" — a prior. This subclass folds in
    the posterior: the cluster feeds it every requesting country via
    :meth:`observe_request`, and at the next ``plan()`` (a periodic
    re-warm, or one forced by a chaos event):

    - the fleet is filtered to **live replicas only**, so a blacked-out
      region's share of the catalogue is re-placed onto survivors
      instead of being pushed at corpses;
    - predicted per-country shares are multiplied by ``1 +
      demand_boost · observed_share(country)``, so a flash crowd's
      country pulls its videos toward its nearest surviving replica;
    - the observation vector then decays by ``decay``, so the boost
      follows the crowd instead of remembering it forever.

    With no observations and a fully live fleet it degrades to exactly
    the static plan.

    Args:
        demand_boost: Strength of the observed-demand tilt (0 disables).
        decay: Multiplier applied to the observation vector after each
            plan, in [0, 1].
    """

    name = "tags-adaptive"

    def __init__(
        self,
        predictor,
        replicas_per_video: int = 2,
        copy_discount: float = 0.5,
        demand_boost: float = 4.0,
        decay: float = 0.5,
    ):
        super().__init__(
            predictor,
            replicas_per_video=replicas_per_video,
            copy_discount=copy_discount,
        )
        if demand_boost < 0:
            raise ServingError(
                f"demand_boost must be >= 0, got {demand_boost}"
            )
        if not 0.0 <= decay <= 1.0:
            raise ServingError(f"decay must be in [0, 1], got {decay}")
        self.demand_boost = demand_boost
        self.decay = decay
        codes = predictor.registry.codes()
        self._code_index = {code: i for i, code in enumerate(codes)}
        self._observed = np.zeros(len(codes))
        self.replans = 0

    def observe_request(self, country: str) -> None:
        """Record one offered request's origin country (cheap, O(1))."""
        index = self._code_index.get(country)
        if index is not None:
            self._observed[index] += 1.0

    def observe_demand(self, weights) -> None:
        """Fold a whole per-country demand vector into the observations.

        The batch counterpart of :meth:`observe_request` — pre-warm
        hints land here. The intended feeder is a trending detector's
        :meth:`~repro.analysis.trending.TrendingDetector.demand_vector`
        (decayed per-country view-delta rates), so the next re-warm
        tilts placement toward where views are *moving*, before the
        requests themselves arrive. ``weights`` must align with the
        predictor registry's country order and be nonnegative; the
        caller chooses the scale (weights compete with raw request
        counts under the shared ``demand_boost`` normalization).
        """
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != self._observed.shape:
            raise ServingError(
                f"demand vector has shape {weights.shape}, expected "
                f"{self._observed.shape} (one weight per registry country)"
            )
        if not np.all(np.isfinite(weights)) or np.any(weights < 0.0):
            raise ServingError(
                "demand vector must be finite and nonnegative"
            )
        self._observed += weights

    @property
    def observed_total(self) -> float:
        """Un-decayed weight of observations currently influencing plans."""
        return float(self._observed.sum())

    def plan(self, catalogue, replicas, capacity):
        fleet = self._check(replicas, capacity)
        alive = [replica for replica in fleet if replica.alive]
        if alive:
            fleet = alive  # plan only onto replicas that can take a push
        self.replans += 1
        total = float(self._observed.sum())
        weights = None
        if total > 0.0 and self.demand_boost > 0.0:
            weights = 1.0 + self.demand_boost * (self._observed / total)
        plan = self._plan(catalogue, fleet, capacity, weights)
        self._observed *= self.decay
        return plan
