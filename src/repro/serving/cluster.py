"""EdgeCluster: one-stop assembly of origin + controller + replicas.

This is the level benchmarks and tests talk to: build a cluster from a
catalogue and a list of replica countries, ``warm()`` it with a
planner's placement plan, then ``serve_trace()`` a workload and read a
:class:`ServingReport` (hit ratio, serving-distance percentiles, origin
load, resilience counters).

Chaos is first-class: a :class:`ChaosSchedule` kills and revives
replicas at named request indices, deterministically, so "k of N edges
die mid-workload" is one reproducible test case rather than a flaky
thread race. :meth:`ChaosSchedule.regional_blackout` scripts the
hardest failure the roadmap calls for — every replica in a region goes
dark at once, recovering staggered — and
:func:`inject_flash_crowd` splices regional demand spikes into a base
trace, so "a video goes viral in one country while its region's edge is
down" is a single deterministic experiment.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.datamodel.dataset import Dataset
from repro.errors import ServingError
from repro.placement.cache import EdgeCache, LRUCache
from repro.placement.workload import Request
from repro.resilience import CircuitBreaker, RetryPolicy, _unit_uniform
from repro.serving.admission import (
    STANDARD,
    AdmissionController,
    AdmissionPolicy,
    AdmissionStats,
)
from repro.serving.controller import Controller, ControllerStats, HedgePolicy
from repro.serving.origin import Origin
from repro.serving.planner import ReactiveOnlyPlanner, ServingPlanner
from repro.serving.replica import Replica
from repro.synth.rng import spawn_rng
from repro.world.countries import CountryRegistry
from repro.world.traffic import TrafficModel

FAIL = "fail"
RECOVER = "recover"


@dataclass(frozen=True)
class ChaosAction:
    """Flip one replica's liveness just before request ``at_request``.

    ``cold`` only applies to ``recover`` actions: a cold recovery clears
    the replica's cache (the blackout took the processes down; a healed
    partition would recover warm).
    """

    at_request: int
    action: str  # "fail" | "recover"
    replica_id: str
    cold: bool = False


class ChaosSchedule:
    """An ordered, replayable list of liveness flips.

    ``apply(cluster, i)`` executes every not-yet-applied action with
    ``at_request <= i``; :meth:`reset` rewinds for a second run. The
    schedule is pure data — the same schedule against the same trace is
    the same experiment, every time.
    """

    def __init__(self, actions: Iterable[ChaosAction]):
        self._actions = sorted(
            actions, key=lambda a: (a.at_request, a.replica_id, a.action)
        )
        for action in self._actions:
            if action.action not in (FAIL, RECOVER):
                raise ServingError(
                    f"unknown chaos action {action.action!r}"
                )
            if action.at_request < 0:
                raise ServingError("at_request must be >= 0")
        self._position = 0

    @classmethod
    def kill(
        cls,
        replica_ids: Sequence[str],
        at_request: int,
        recover_at: Optional[int] = None,
    ) -> "ChaosSchedule":
        """Kill ``replica_ids`` at one index, optionally revive later."""
        actions = [
            ChaosAction(at_request, FAIL, rid) for rid in replica_ids
        ]
        if recover_at is not None:
            if recover_at <= at_request:
                raise ServingError("recover_at must come after at_request")
            actions += [
                ChaosAction(recover_at, RECOVER, rid) for rid in replica_ids
            ]
        return cls(actions)

    @classmethod
    def regional_blackout(
        cls,
        replica_regions: Dict[str, str],
        region: str,
        at_request: int,
        recover_at: Optional[int] = None,
        stagger: int = 0,
        cold_recovery: bool = True,
    ) -> "ChaosSchedule":
        """Kill every replica in ``region`` at once; recover staggered.

        ``replica_regions`` maps replica id → region key (see
        :meth:`EdgeCluster.replica_regions`). All of the region's
        replicas fail at ``at_request``; with ``recover_at`` set, the
        i-th replica (id order) recovers at ``recover_at + i·stagger`` —
        real regions come back rack by rack, not all at once, and the
        staggered schedule exercises routing against a half-recovered
        region.

        Blackout recoveries default to *cold* (``cold_recovery=True``):
        a region-wide power loss restarts the edge processes, so the
        replicas come back with empty caches and must be re-warmed —
        exactly the situation an adaptive planner exists for. Pass
        ``cold_recovery=False`` to model a pure network partition whose
        caches survive.
        """
        victims = sorted(
            rid for rid, reg in replica_regions.items() if reg == region
        )
        if not victims:
            raise ServingError(
                f"no replicas in region {region!r} "
                f"(regions present: {sorted(set(replica_regions.values()))})"
            )
        if stagger < 0:
            raise ServingError(f"stagger must be >= 0, got {stagger}")
        actions = [ChaosAction(at_request, FAIL, rid) for rid in victims]
        if recover_at is not None:
            if recover_at <= at_request:
                raise ServingError("recover_at must come after at_request")
            actions += [
                ChaosAction(
                    recover_at + i * stagger, RECOVER, rid, cold=cold_recovery
                )
                for i, rid in enumerate(victims)
            ]
        return cls(actions)

    @classmethod
    def merge(cls, *schedules: "ChaosSchedule") -> "ChaosSchedule":
        """Combine schedules (blackout + extra kills) into one timeline."""
        actions: List[ChaosAction] = []
        for schedule in schedules:
            actions.extend(schedule._actions)
        return cls(actions)

    def __len__(self) -> int:
        return len(self._actions)

    @property
    def exhausted(self) -> bool:
        return self._position >= len(self._actions)

    def reset(self) -> None:
        self._position = 0

    def apply(self, cluster: "EdgeCluster", request_index: int) -> int:
        """Execute every due action; returns how many fired (so a trace
        driver can react — e.g. force a re-warm after a chaos event)."""
        applied = 0
        while (
            self._position < len(self._actions)
            and self._actions[self._position].at_request <= request_index
        ):
            action = self._actions[self._position]
            replica = cluster.replica(action.replica_id)
            if action.action == FAIL:
                replica.fail()
            else:
                replica.recover(cold=action.cold)
            self._position += 1
            applied += 1
        return applied


@dataclass(frozen=True)
class FlashCrowdWave:
    """A regional demand spike: one country hammers a few videos.

    Attributes:
        at_request: Base-trace index where the wave starts.
        duration: How many base requests the wave overlaps.
        country: Where the crowd is.
        video_ids: What it wants (the viral set; typically the synth tag
            model's top videos for that country).
        intensity: Extra requests injected per base request inside the
            wave (2.0 = crowd traffic at twice the base rate).
    """

    at_request: int
    duration: int
    country: str
    video_ids: Tuple[str, ...]
    intensity: float

    def __post_init__(self):
        if self.at_request < 0:
            raise ServingError("at_request must be >= 0")
        if self.duration < 1:
            raise ServingError("duration must be >= 1")
        if not self.video_ids:
            raise ServingError("a flash crowd needs at least one video")
        if self.intensity <= 0:
            raise ServingError(
                f"intensity must be > 0, got {self.intensity}"
            )


def inject_flash_crowd(
    base: Iterable[Request],
    waves: Sequence[FlashCrowdWave],
    seed: int = 0,
) -> Iterable[Request]:
    """Splice flash-crowd waves into a base trace, deterministically.

    Inside each wave's ``[at_request, at_request + duration)`` window,
    every base request is followed by ``intensity`` crowd requests
    (fractional intensities accumulate — 0.5 injects one crowd request
    every other base request). Crowd requests pick from the wave's viral
    set via the keyed-hash stream, so the same seed replays the same
    spike. Yields plain :class:`~repro.placement.workload.Request`
    objects; downstream (chaos indices, admission, reports) sees one
    merged trace.
    """
    active = sorted(waves, key=lambda w: (w.at_request, w.country))
    carry = {id(wave): 0.0 for wave in active}
    emitted = 0
    for index, request in enumerate(base):
        yield request
        emitted += 1
        for wave in active:
            if not wave.at_request <= index < wave.at_request + wave.duration:
                continue
            key = id(wave)
            carry[key] += wave.intensity
            while carry[key] >= 1.0:
                carry[key] -= 1.0
                draw = _unit_uniform(f"flash:{seed}:{wave.country}:{emitted}")
                video_id = wave.video_ids[int(draw * len(wave.video_ids))]
                yield Request(video_id=video_id, country=wave.country)
                emitted += 1


@dataclass(frozen=True)
class ServingReport:
    """What one served workload looked like, end to end."""

    planner: str
    requests: int
    local_hits: int
    remote_hits: int
    origin_fetches: int
    failed: int
    #: Edge (home-PoP) hit ratio — the gated number.
    hit_ratio: float
    #: Served by any replica at all (edge or peer PoP).
    replica_hit_ratio: float
    mean_km: float
    p50_km: float
    p99_km: float
    virtual_seconds: float
    retries: int
    reroutes: int
    breaker_opens: int
    placed: int
    #: Overload/failover accounting (all zero for a gate-less,
    #: unhedged trace — pre-overload reports are unchanged).
    offered: int = 0  # requests presented to the admission gate
    shed: int = 0  # requests the gate refused (explicitly, counted)
    goodput: float = 1.0  # served / offered (1.0 with no gate)
    hedges: int = 0  # hedge probes fired
    hedge_wins: int = 0  # requests won by the hedge probe
    hedge_cancelled: int = 0  # losing probes cancelled + drained
    health_probes: int = 0  # active pings issued during the trace
    overload_rejections: int = 0  # replica-level sheds (slots+queue full)
    queued: int = 0  # requests that waited for a service slot
    rewarms: int = 0  # planner re-placements run during the trace

    @property
    def shed_fraction(self) -> float:
        if self.offered == 0:
            return 0.0
        return self.shed / self.offered

    def as_rows(self) -> List[Tuple[str, float]]:
        return [
            ("requests", float(self.requests)),
            ("hit_ratio", self.hit_ratio),
            ("replica_hit_ratio", self.replica_hit_ratio),
            ("local_hits", float(self.local_hits)),
            ("remote_hits", float(self.remote_hits)),
            ("origin_fetches", float(self.origin_fetches)),
            ("failed", float(self.failed)),
            ("mean_km", self.mean_km),
            ("p50_km", self.p50_km),
            ("p99_km", self.p99_km),
            ("virtual_seconds", self.virtual_seconds),
            ("retries", float(self.retries)),
            ("reroutes", float(self.reroutes)),
            ("breaker_opens", float(self.breaker_opens)),
            ("placed", float(self.placed)),
            ("offered", float(self.offered)),
            ("shed", float(self.shed)),
            ("shed_fraction", self.shed_fraction),
            ("goodput", self.goodput),
            ("hedges", float(self.hedges)),
            ("hedge_wins", float(self.hedge_wins)),
            ("hedge_cancelled", float(self.hedge_cancelled)),
            ("health_probes", float(self.health_probes)),
            ("overload_rejections", float(self.overload_rejections)),
            ("queued", float(self.queued)),
            ("rewarms", float(self.rewarms)),
        ]


class EdgeCluster:
    """Origin + replicas + controller, wired and ready to serve.

    Args:
        catalogue: What the origin holds (and planners plan over).
        registry: Country axis shared by all geographic math.
        replica_countries: One replica per listed country (ids become
            ``edge-<CC>``).
        capacity: Per-replica cache capacity (videos).
        planner: Warm-placement planner; default
            :class:`~repro.serving.planner.ReactiveOnlyPlanner`.
        cache_factory: Builds each replica's cache; default
            ``LRUCache(capacity)``.
        origin_country / origin_latency / replica_latency: Topology and
            simulated timing knobs.
        last_mile_km: Within-country dispersion — every served request
            adds a seeded uniform ``[0, last_mile_km)`` viewer→PoP
            distance on top of the country-level geodesic. The draw
            depends only on the request *index*, so identical traces
            through different policies stay a paired comparison, and
            percentiles become continuous instead of sitting on
            country-distance atoms. 0 (default) disables it.
        retry / breaker_factory / reactive_admission: Passed through to
            the :class:`~repro.serving.controller.Controller`.
        replica_concurrency / replica_queue_depth /
        replica_service_seconds: The per-replica bounded-capacity model
            (see :class:`~repro.serving.replica.Replica`); the default
            ``None`` keeps replicas unbounded, the pre-overload model.
        hedge: Optional :class:`~repro.serving.controller.HedgePolicy`
            enabling hedged requests in the controller.
        admission: Optional
            :class:`~repro.serving.admission.AdmissionPolicy`; when set,
            :meth:`serve_trace` routes every request through an
            :class:`~repro.serving.admission.AdmissionController` and
            the report gains offered/shed/goodput accounting.
    """

    def __init__(
        self,
        catalogue: Dataset,
        registry: CountryRegistry,
        replica_countries: Sequence[str],
        capacity: int,
        planner: Optional[ServingPlanner] = None,
        cache_factory: Optional[Callable[[], EdgeCache]] = None,
        origin_country: str = "US",
        origin_latency: float = 0.08,
        replica_latency: float = 0.01,
        last_mile_km: float = 0.0,
        retry: Optional[RetryPolicy] = None,
        breaker_factory: Optional[Callable[[], CircuitBreaker]] = None,
        reactive_admission: bool = True,
        replica_concurrency: Optional[int] = None,
        replica_queue_depth: int = 0,
        replica_service_seconds: float = 0.0,
        hedge: Optional[HedgePolicy] = None,
        admission: Optional[AdmissionPolicy] = None,
    ):
        if not replica_countries:
            raise ServingError("need at least one replica country")
        if len(set(replica_countries)) != len(replica_countries):
            raise ServingError("replica countries must be unique")
        if last_mile_km < 0:
            raise ServingError(
                f"last_mile_km must be >= 0, got {last_mile_km}"
            )
        if cache_factory is None:
            cache_factory = lambda: LRUCache(capacity)
        self.last_mile_km = last_mile_km
        self.catalogue = catalogue
        self.registry = registry
        self.capacity = capacity
        self.planner = planner if planner is not None else ReactiveOnlyPlanner()
        self.origin = Origin(
            catalogue, country=origin_country, latency_seconds=origin_latency
        )
        self._fleet = [
            Replica(
                replica_id=f"edge-{country}",
                country=country,
                cache=cache_factory(),
                latency_seconds=replica_latency,
                concurrency=replica_concurrency,
                queue_depth=replica_queue_depth,
                service_seconds=replica_service_seconds,
            )
            for country in replica_countries
        ]
        self.controller = Controller(
            origin=self.origin,
            replicas=self._fleet,
            registry=registry,
            retry=retry,
            breaker_factory=breaker_factory,
            reactive_admission=reactive_admission,
            hedge=hedge,
        )
        self.admission: Optional[AdmissionController] = (
            AdmissionController(self.controller, admission)
            if admission is not None
            else None
        )
        self._placed = 0
        self._rewarms = 0

    @staticmethod
    def top_markets(traffic: TrafficModel, count: int) -> List[str]:
        """The ``count`` biggest markets by worldwide traffic share —
        the natural places to put replicas."""
        shares = traffic.as_vector()
        codes = traffic.registry.codes()
        order = np.argsort(-shares, kind="stable")[:count]
        return [codes[int(i)] for i in order]

    # -- accessors -----------------------------------------------------------

    @property
    def replicas(self) -> List[Replica]:
        return list(self._fleet)

    def replica(self, replica_id: str) -> Replica:
        return self.controller.replica(replica_id)

    @property
    def placed(self) -> int:
        """Copies placed by the last :meth:`warm`."""
        return self._placed

    def replica_regions(self) -> Dict[str, str]:
        """Replica id → world-region key (for regional chaos scripts)."""
        return {
            replica.replica_id: self.registry.get(replica.country).region
            for replica in self._fleet
        }

    def blackout(
        self,
        region: str,
        at_request: int,
        recover_at: Optional[int] = None,
        stagger: int = 0,
        cold_recovery: bool = True,
    ) -> ChaosSchedule:
        """A :meth:`ChaosSchedule.regional_blackout` for this fleet."""
        return ChaosSchedule.regional_blackout(
            self.replica_regions(),
            region,
            at_request,
            recover_at,
            stagger,
            cold_recovery=cold_recovery,
        )

    # -- lifecycle -----------------------------------------------------------

    async def warm(self, catalogue=None) -> int:
        """Plan + push the warm placement; returns copies placed.

        ``catalogue`` restricts planning to a subset (e.g. the cohort
        of videos launched so far in a rollout workload); the origin
        always holds the full catalogue regardless.
        """
        source = self.catalogue if catalogue is None else catalogue
        plan = self.planner.plan(source, self._fleet, self.capacity)
        self._placed = await self.controller.place(plan)
        self._rewarms += 1
        return self._placed

    async def serve_trace(
        self,
        requests: Iterable[Request],
        concurrency: int = 1,
        chaos: Optional[ChaosSchedule] = None,
        rewarm_every: Optional[int] = None,
        catalogue_at: Optional[Callable[[int], object]] = None,
        priority_at: Optional[Callable[[int, Request], int]] = None,
        probe_every: Optional[int] = None,
        rewarm_on_chaos: bool = False,
        on_result: Optional[Callable[[int, object, float], None]] = None,
    ) -> ServingReport:
        """Serve a whole trace; returns the report *for this trace only*
        (stats are delta-measured, so repeated calls each report their
        own window).

        ``concurrency`` > 1 batches that many requests into
        ``asyncio.gather`` waves (chaos actions land on wave
        boundaries). ``rewarm_every`` re-runs the planner's placement
        every that-many requests — the periodic placement refresh a real
        CDN runs, without which reactive churn erodes any warm plan.
        ``catalogue_at`` (requires ``rewarm_every``) maps the request
        index to the catalogue the re-warm plans over — how a rollout
        workload tells the planner which videos have launched.

        Overload/failover knobs: ``priority_at(index, request)`` assigns
        each request an admission priority (requires the cluster's
        ``admission`` gate; default: all ``STANDARD``); ``probe_every``
        runs an active :meth:`Controller.probe_health` sweep every
        that-many requests, feeding the breakers out-of-band;
        ``rewarm_on_chaos`` re-runs the planner immediately after any
        chaos action fires (the adaptive failover path — with an
        :class:`~repro.serving.planner.AdaptiveTagPlanner` this re-places
        the lost region's catalogue onto survivors); ``on_result(index,
        result, distance_km)`` observes every outcome — ServeResult or
        ShedResult — in issue order; ``distance_km`` is the *charged*
        serving distance including last-mile jitter (exactly what the
        report aggregates; NaN for sheds), which is how the S3
        benchmark builds its recovery timeline.

        Every request produces exactly one outcome — served or shed —
        and an exception anywhere aborts the run loudly rather than
        dropping requests silently. When the cluster has a planner with
        ``observe_request`` (the adaptive planner), every offered
        request's country is fed to it, shed or not: shed traffic is
        still demand the next placement should chase.
        """
        if concurrency < 1:
            raise ServingError(f"concurrency must be >= 1, got {concurrency}")
        if rewarm_every is not None and rewarm_every < 1:
            raise ServingError(
                f"rewarm_every must be >= 1, got {rewarm_every}"
            )
        if catalogue_at is not None and rewarm_every is None:
            raise ServingError("catalogue_at requires rewarm_every")
        if priority_at is not None and self.admission is None:
            raise ServingError(
                "priority_at requires the cluster's admission gate "
                "(pass admission=AdmissionPolicy(...) to EdgeCluster)"
            )
        if probe_every is not None and probe_every < 1:
            raise ServingError(
                f"probe_every must be >= 1, got {probe_every}"
            )
        loop = asyncio.get_event_loop()
        started = loop.time()
        before = self.controller.stats.copy()
        admission_before = (
            self.admission.stats.copy() if self.admission is not None else None
        )
        replica_before = self._replica_counters()
        rewarms_before = self._rewarms
        distances: List[float] = []
        observe = getattr(self.planner, "observe_request", None)

        # Last-mile draws depend only on the request index (issue order),
        # so identical traces through different policies see identical
        # jitter — a paired comparison.
        jitter_rng = (
            spawn_rng(0, "last-mile") if self.last_mile_km > 0 else None
        )
        jitter_chunk = 65536
        jitter_buf = None

        async def serve_one(
            index: int, request: Request, extra_km: float, priority: int
        ) -> None:
            if self.admission is not None:
                result = await self.admission.get(
                    request.video_id, request.country, priority=priority
                )
            else:
                result = await self.controller.get(
                    request.video_id, request.country
                )
            charged_km = float("nan")
            if not result.shed:
                charged_km = result.distance_km + extra_km
                distances.append(charged_km)
            if on_result is not None:
                on_result(index, result, charged_km)

        batch: List = []

        async def flush() -> None:
            nonlocal batch
            if batch:
                await asyncio.gather(*batch)
                batch = []

        for index, request in enumerate(requests):
            if chaos is not None:
                fired = chaos.apply(self, index)
                if fired and rewarm_on_chaos:
                    await flush()
                    await self.warm(
                        catalogue_at(index) if catalogue_at is not None else None
                    )
            if rewarm_every is not None and index > 0 and index % rewarm_every == 0:
                await flush()
                await self.warm(
                    catalogue_at(index) if catalogue_at is not None else None
                )
            if probe_every is not None and index > 0 and index % probe_every == 0:
                await flush()
                await self.controller.probe_health()
            if observe is not None:
                observe(request.country)
            if jitter_rng is not None:
                offset = index % jitter_chunk
                if offset == 0:
                    jitter_buf = jitter_rng.random(jitter_chunk)
                extra_km = float(jitter_buf[offset]) * self.last_mile_km
            else:
                extra_km = 0.0
            priority = (
                priority_at(index, request) if priority_at is not None else STANDARD
            )
            if concurrency == 1:
                await serve_one(index, request, extra_km, priority)
            else:
                batch.append(serve_one(index, request, extra_km, priority))
                if len(batch) >= concurrency:
                    await flush()
        await flush()
        return self._report(
            before,
            admission_before,
            replica_before,
            rewarms_before,
            distances,
            loop.time() - started,
        )

    def _replica_counters(self) -> Tuple[int, int]:
        """Fleet-wide (overload rejections, queued) counter snapshot."""
        return (
            sum(r.stats.rejected_overload for r in self._fleet),
            sum(r.stats.queued for r in self._fleet),
        )

    def _report(
        self,
        before: "ControllerStats",
        admission_before: Optional["AdmissionStats"],
        replica_before: Tuple[int, int],
        rewarms_before: int,
        distances: Sequence[float],
        virtual_seconds: float,
    ) -> ServingReport:
        stats = self.controller.stats.delta(before)
        if distances:
            array = np.asarray(distances, dtype=float)
            mean_km = float(array.mean())
            p50_km = float(np.percentile(array, 50))
            p99_km = float(np.percentile(array, 99))
        else:
            mean_km = p50_km = p99_km = 0.0
        if admission_before is not None:
            admission = self.admission.stats.delta(admission_before)
            offered = admission.offered
            shed = admission.shed
            goodput = admission.goodput
        else:
            offered = stats.requests
            shed = 0
            goodput = 1.0 if stats.requests else 0.0
        overload_after, queued_after = self._replica_counters()
        return ServingReport(
            planner=self.planner.name,
            requests=stats.requests,
            local_hits=stats.local_hits,
            remote_hits=stats.remote_hits,
            origin_fetches=stats.origin_fetches,
            failed=stats.failed,
            hit_ratio=stats.hit_ratio,
            replica_hit_ratio=stats.replica_hit_ratio,
            mean_km=mean_km,
            p50_km=p50_km,
            p99_km=p99_km,
            virtual_seconds=virtual_seconds,
            retries=stats.retries,
            reroutes=stats.reroutes,
            breaker_opens=self.controller.breaker_opens(),
            placed=self._placed,
            offered=offered,
            shed=shed,
            goodput=goodput,
            hedges=stats.hedges,
            hedge_wins=stats.hedge_wins,
            hedge_cancelled=stats.hedge_cancelled,
            health_probes=stats.health_probes,
            overload_rejections=overload_after - replica_before[0],
            queued=queued_after - replica_before[1],
            rewarms=self._rewarms - rewarms_before,
        )
