"""The controller: tag-aware request routing with failure awareness.

The CDN-architecture sketch this realizes is origin → controller →
replicas, but where the sketch's controller picked replicas round-robin,
this one routes on *placement knowledge and geography*:

1. the requesting country's *home* replica — the nearest replica to
   that country, the PoP its viewers attach to — if the routing index
   says it holds the video (a **local** hit, the CDN's edge-hit);
2. otherwise the nearest other live replica holding it (a **remote**
   hit: served from a peer PoP over the backbone);
3. otherwise the origin (the cost placement failed to avoid).

Every replica call goes through a per-replica
:class:`~repro.resilience.CircuitBreaker` and the shared
:class:`~repro.resilience.RetryPolicy` (async flavour): transient faults
are retried, a dead replica trips its breaker after a few failures and
is skipped at ~zero cost until its (virtual-time) reset timeout, and the
request reroutes down the candidate list — the origin always answers, so
**no request ever fails** while the origin lives.

The routing index is deliberately a *superset* hint, never ground truth:
pushes and reactive admissions add entries through the controller, but
LRU evictions happen silently inside replicas. A probe that misses
removes the stale entry (self-healing), and the invariant the test suite
enforces is exactly ``index ⊇ actual cache contents``.

Two optional tail-latency defences layer on top of the basic route:

- **hedged requests** (:class:`HedgePolicy`) — when the first-choice
  probe has not answered within an adaptive deadline (an EWMA of
  observed probe latency times a multiplier), a second probe fires at
  the next candidate; first hit wins, the loser is cancelled via
  :func:`~repro.serving.simtime.cancel_and_wait` and accounted (never
  double-served, never leaked);
- **active health probes** (:meth:`Controller.probe_health`) — cheap
  pings that feed the per-replica breakers out-of-band, so a recovered
  replica's breaker closes on probe traffic instead of burning a user
  request, and a dead one's breaker opens before users find it.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, fields, replace
from typing import (
    Callable,
    ClassVar,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import (
    CircuitOpenError,
    ConfigError,
    ReplicaDownError,
    ReplicaOverloadedError,
    ServingError,
    TransientAPIError,
)
from repro.resilience import CircuitBreaker, RetryPolicy
from repro.serving.origin import Origin
from repro.serving.replica import Replica, ReplicaHealth
from repro.serving.simtime import cancel_and_wait, running_loop_time
from repro.world.countries import CountryRegistry
from repro.world.geo import distance_matrix

#: Where a request was ultimately served from.
LOCAL = "local"
REMOTE = "remote"
ORIGIN = "origin"


def default_probe_retry_policy(seed: int = 0) -> RetryPolicy:
    """Retry transient replica faults once, with a short virtual backoff.

    Only :class:`~repro.errors.TransientAPIError` is retried: a dead
    replica (``ReplicaDownError``) or an open breaker means *reroute*,
    not retry — the next candidate is cheaper than waiting.
    """
    return RetryPolicy(
        max_attempts=2,
        backoff_base=0.02,
        backoff_cap=0.1,
        seed=seed,
        retryable=(TransientAPIError,),
    )


def default_breaker_factory() -> CircuitBreaker:
    """Per-replica breaker: opens after 3 straight failures, probes again
    after 5 (virtual) seconds."""
    return CircuitBreaker(
        failure_threshold=3, reset_timeout=5.0, clock=running_loop_time
    )


class HedgePolicy:
    """Adaptive hedging deadline: EWMA of probe latency × multiplier.

    The hedge deadline tracks what probes *normally* take, so hedges
    fire only when a probe is genuinely slow (queued behind a saturated
    replica, mid-outage) rather than on every request. Google's classic
    tail-at-scale recipe: hedge at ~p95-equivalent latency, pay a few
    percent duplicate work, cut the tail.

    Args:
        multiplier: Deadline = ``multiplier × ewma(latency)``.
        min_deadline: Floor, so near-zero service times cannot make
            every request hedge.
        initial_deadline: Used until the first latency observation.
        alpha: EWMA weight of the newest observation.
    """

    def __init__(
        self,
        multiplier: float = 2.0,
        min_deadline: float = 0.005,
        initial_deadline: float = 0.04,
        alpha: float = 0.2,
    ):
        if multiplier <= 0:
            raise ConfigError("multiplier must be > 0")
        if min_deadline < 0:
            raise ConfigError("min_deadline must be >= 0")
        if initial_deadline <= 0:
            raise ConfigError("initial_deadline must be > 0")
        if not 0.0 < alpha <= 1.0:
            raise ConfigError(f"alpha must be in (0, 1], got {alpha}")
        self.multiplier = multiplier
        self.min_deadline = min_deadline
        self.initial_deadline = initial_deadline
        self.alpha = alpha
        self._ewma: Optional[float] = None

    @property
    def observed_latency(self) -> Optional[float]:
        """Current EWMA of successful probe latency (None before any)."""
        return self._ewma

    def observe(self, latency: float) -> None:
        """Feed one completed probe's latency into the EWMA."""
        if latency < 0:
            return
        if self._ewma is None:
            self._ewma = latency
        else:
            self._ewma = self.alpha * latency + (1 - self.alpha) * self._ewma

    def deadline(self) -> float:
        """How long to wait for the primary before firing the hedge."""
        if self._ewma is None:
            return max(self.min_deadline, self.initial_deadline)
        return max(self.min_deadline, self.multiplier * self._ewma)


@dataclass(frozen=True)
class ServeResult:
    """Outcome of one ``get``: exactly one per request, always.

    Attributes:
        video_id / country: The request.
        source: ``"local"`` (home-PoP hit), ``"remote"`` (peer replica),
            or ``"origin"``.
        served_by: Serving replica id, or ``"origin"``.
        distance_km: Viewer-country → serving-node centroid distance.
        probes: Replica probes attempted (successful or not).
        hedged: True when a hedge fired anywhere along this request's
            route (whichever candidate ultimately won).
    """

    video_id: str
    country: str
    source: str
    served_by: str
    distance_km: float
    probes: int
    hedged: bool = False

    #: Discriminator shared with
    #: :class:`~repro.serving.admission.ShedResult`: a served result is
    #: never a shed one.
    shed: ClassVar[bool] = False

    @property
    def hit(self) -> bool:
        """True when a replica cache served the request."""
        return self.source != ORIGIN


@dataclass
class ControllerStats:
    """Controller-level counters (replica/cache counters live on each
    replica)."""

    requests: int = 0
    local_hits: int = 0
    remote_hits: int = 0
    origin_fetches: int = 0
    failed: int = 0
    retries: int = 0
    reroutes: int = 0
    admissions: int = 0
    pushes: int = 0
    push_failures: int = 0
    hedges: int = 0  # hedge probes fired (deadline expired)
    hedge_wins: int = 0  # requests the hedge probe won
    hedge_cancelled: int = 0  # losing probes cancelled and drained
    health_probes: int = 0  # active pings sent by probe_health()
    health_probe_failures: int = 0  # pings that found a dead replica

    @property
    def served(self) -> int:
        return self.local_hits + self.remote_hits + self.origin_fetches

    @property
    def hit_ratio(self) -> float:
        """Edge (home-PoP) hit ratio: the fraction of requests the
        viewer's own attachment point served. Remote hits are *backbone
        fills*, not edge hits — a CDN that serves everything from the
        wrong continent has a 100% any-replica ratio and terrible
        serving distance, so the any-replica number is reported via
        :attr:`replica_hit_ratio`, never gated."""
        if self.served == 0:
            return 0.0
        return self.local_hits / self.served

    @property
    def replica_hit_ratio(self) -> float:
        """Fraction served by *any* replica (edge or peer) vs origin."""
        if self.served == 0:
            return 0.0
        return (self.local_hits + self.remote_hits) / self.served

    def copy(self) -> "ControllerStats":
        """Snapshot (for before/after deltas around one workload)."""
        return replace(self)

    def delta(self, since: "ControllerStats") -> "ControllerStats":
        """Counter-wise ``self - since``: what happened after the snapshot."""
        return ControllerStats(
            **{
                f.name: getattr(self, f.name) - getattr(since, f.name)
                for f in fields(self)
            }
        )


class Controller:
    """Routes requests across replicas; owns the routing index.

    Args:
        origin: The always-hit fallback.
        replicas: The edge fleet — at most one replica per country.
        registry: Country axis (distances, validation).
        retry: Probe retry policy; default
            :func:`default_probe_retry_policy`.
        breaker_factory: Builds one breaker per replica; default
            :func:`default_breaker_factory` (virtual-time clock).
        reactive_admission: After a miss served remotely or from origin,
            insert the video into the requester's home replica (the
            copy rides back on the response).
        hedge: Optional :class:`HedgePolicy`; when set, slow probes are
            hedged against the next candidate, first hit wins.
    """

    def __init__(
        self,
        origin: Origin,
        replicas: Sequence[Replica],
        registry: CountryRegistry,
        retry: Optional[RetryPolicy] = None,
        breaker_factory: Optional[Callable[[], CircuitBreaker]] = None,
        reactive_admission: bool = True,
        hedge: Optional[HedgePolicy] = None,
    ):
        if origin.country not in registry:
            raise ServingError(f"unknown origin country {origin.country!r}")
        self.origin = origin
        self.registry = registry
        self.retry = retry if retry is not None else default_probe_retry_policy()
        if breaker_factory is None:
            breaker_factory = default_breaker_factory
        self.reactive_admission = reactive_admission
        self.hedge = hedge

        self._replicas: Dict[str, Replica] = {}
        self._by_country: Dict[str, Replica] = {}
        for replica in replicas:
            if replica.replica_id in self._replicas:
                raise ServingError(
                    f"duplicate replica id {replica.replica_id!r}"
                )
            if replica.country not in registry:
                raise ServingError(
                    f"replica {replica.replica_id!r} in unknown country "
                    f"{replica.country!r}"
                )
            if replica.country in self._by_country:
                raise ServingError(
                    f"two replicas in {replica.country!r}: "
                    f"{self._by_country[replica.country].replica_id!r} and "
                    f"{replica.replica_id!r}"
                )
            self._replicas[replica.replica_id] = replica
            self._by_country[replica.country] = replica

        self._breakers: Dict[str, CircuitBreaker] = {
            replica_id: breaker_factory() for replica_id in self._replicas
        }
        self._distances = distance_matrix(registry)
        self._code_index = {
            code: i for i, code in enumerate(registry.codes())
        }
        #: country -> home replica: the nearest PoP, where its viewers
        #: attach (their own country's replica when one exists).
        self._home: Dict[str, Replica] = {}
        for code in registry.codes():
            self._home[code] = min(
                self._replicas.values(),
                key=lambda r: (self._distance(code, r.country), r.replica_id),
            )
        #: video_id -> replica ids believed to hold it (superset hint).
        self._index: Dict[str, Set[str]] = {}
        self.stats = ControllerStats()

    # -- introspection -------------------------------------------------------

    @property
    def replicas(self) -> List[Replica]:
        return list(self._replicas.values())

    def replica(self, replica_id: str) -> Replica:
        try:
            return self._replicas[replica_id]
        except KeyError:
            raise ServingError(f"unknown replica {replica_id!r}") from None

    def breaker(self, replica_id: str) -> CircuitBreaker:
        try:
            return self._breakers[replica_id]
        except KeyError:
            raise ServingError(f"unknown replica {replica_id!r}") from None

    def breaker_opens(self) -> int:
        """Total open transitions across all per-replica breakers."""
        return sum(b.opens for b in self._breakers.values())

    def home(self, country: str) -> Replica:
        """The home (nearest) replica that ``country``'s viewers attach to."""
        try:
            return self._home[country]
        except KeyError:
            raise ServingError(f"unknown country {country!r}") from None

    def holders(self, video_id: str) -> Set[str]:
        """Replica ids the routing index lists for ``video_id``."""
        return set(self._index.get(video_id, ()))

    def routing_index(self) -> Dict[str, Set[str]]:
        """Copy of the whole index (video -> replica ids)."""
        return {vid: set(rids) for vid, rids in self._index.items()}

    def _distance(self, country_a: str, country_b: str) -> float:
        return float(
            self._distances[self._code_index[country_a]][
                self._code_index[country_b]
            ]
        )

    # -- placement path ------------------------------------------------------

    async def push(self, replica_id: str, video_id: str) -> bool:
        """Push one copy to one replica; True when it actually landed.

        Raises :class:`~repro.errors.ReplicaDownError` /
        :class:`~repro.errors.CircuitOpenError` when the replica (or its
        breaker) refuses — callers placing a whole plan count and move
        on; callers pushing a single video see the failure.
        """
        replica = self.replica(replica_id)
        breaker = self._breakers[replica_id]
        breaker.allow()
        try:
            await replica.push(video_id)
        except Exception:
            breaker.record_failure()
            self.stats.push_failures += 1
            raise
        breaker.record_success()
        # A pin-only cache past budget skips silently; only index what
        # the replica verifiably holds.
        if video_id in replica.cache:
            self._index.setdefault(video_id, set()).add(replica_id)
            self.stats.pushes += 1
            return True
        return False

    async def place(self, plan: Dict[str, List[str]]) -> int:
        """Push a whole placement plan; returns copies actually placed.

        Unreachable replicas are skipped (their videos stay origin-served
        until the next placement round) — a warm-up must not die because
        one edge is down.
        """
        placed = 0
        for replica_id in sorted(plan):
            for video_id in plan[replica_id]:
                try:
                    if await self.push(replica_id, video_id):
                        placed += 1
                except (
                    ReplicaDownError,
                    CircuitOpenError,
                    ReplicaOverloadedError,
                ):
                    self.stats.reroutes += 1
                    break  # this replica is unreachable; skip its list
        return placed

    # -- serving path --------------------------------------------------------

    async def get(self, video_id: str, country: str) -> ServeResult:
        """Serve one request; exactly one result, never silently dropped."""
        if country not in self._code_index:
            raise ServingError(f"request from unknown country {country!r}")
        self.stats.requests += 1
        try:
            return await self._route(video_id, country)
        except BaseException:
            self.stats.failed += 1
            raise

    async def _route(self, video_id: str, country: str) -> ServeResult:
        home = self._home[country]
        holders = self._index.get(video_id, ())

        candidates: List[Tuple[float, str, Replica]] = []
        if home.replica_id in holders:
            candidates.append(
                (self._distance(country, home.country), LOCAL, home)
            )
        remote = [
            (self._distance(country, self._replicas[rid].country), rid)
            for rid in holders
            if rid != home.replica_id
        ]
        for distance, rid in sorted(remote):
            candidates.append((distance, REMOTE, self._replicas[rid]))

        probes = 0
        hedged = False
        if self.hedge is None:
            # Sequential route: probe candidates nearest-first.
            for distance, source, replica in candidates:
                probes += 1
                try:
                    hit = await self._probe(replica, video_id)
                except (ReplicaDownError, CircuitOpenError, TransientAPIError):
                    self.stats.reroutes += 1
                    continue
                if hit:
                    return self._account_hit(
                        video_id, country, home, distance, source, replica,
                        probes, hedged,
                    )
                # The index lied (eviction since placement) — self-heal.
                self._unindex(video_id, replica.replica_id)
        else:
            # Hedged route: probe pairs, hedge on a slow primary.
            position = 0
            while position < len(candidates):
                primary = candidates[position]
                secondary = (
                    candidates[position + 1]
                    if position + 1 < len(candidates)
                    else None
                )
                resolved, winner, fired, hedge_won = await self._hedged_pair(
                    video_id, primary, secondary
                )
                probes += 2 if fired else 1
                hedged = hedged or fired
                for (_, _, replica), outcome in resolved:
                    if outcome == "miss":
                        self._unindex(video_id, replica.replica_id)
                    else:
                        self.stats.reroutes += 1
                if winner is not None:
                    if hedge_won:
                        self.stats.hedge_wins += 1
                    distance, source, replica = winner
                    return self._account_hit(
                        video_id, country, home, distance, source, replica,
                        probes, hedged,
                    )
                # Only candidates that definitively answered (miss or
                # error) are consumed; an unfired secondary stays next.
                position += max(1, len(resolved))

        await self.origin.fetch(video_id)
        self.stats.origin_fetches += 1
        self._admit_home(home, video_id)
        return ServeResult(
            video_id=video_id,
            country=country,
            source=ORIGIN,
            served_by=ORIGIN,
            distance_km=self._distance(country, self.origin.country),
            probes=probes,
            hedged=hedged,
        )

    def _account_hit(
        self,
        video_id: str,
        country: str,
        home: Replica,
        distance: float,
        source: str,
        replica: Replica,
        probes: int,
        hedged: bool,
    ) -> ServeResult:
        """Count one replica hit and build its result."""
        if source == LOCAL:
            self.stats.local_hits += 1
        else:
            self.stats.remote_hits += 1
            self._admit_home(home, video_id)
        return ServeResult(
            video_id=video_id,
            country=country,
            source=source,
            served_by=replica.replica_id,
            distance_km=distance,
            probes=probes,
            hedged=hedged,
        )

    async def _hedged_pair(
        self,
        video_id: str,
        primary: Tuple[float, str, Replica],
        secondary: Optional[Tuple[float, str, Replica]],
    ):
        """Race the primary candidate against a late-fired hedge.

        Fire the primary probe; if it has not answered within the
        adaptive deadline and a secondary candidate exists, fire that
        too and take the **first hit** — the loser is cancelled and
        fully drained (its slot releases and breaker bookkeeping run
        before we return, so nothing races the next request). Completed
        tasks are processed primary-first for determinism when both
        finish in the same virtual instant.

        Returns ``(resolved, winner, fired, hedge_won)`` where
        ``resolved`` lists candidates that definitively answered with a
        miss or a routing error (never the winner, never a cancelled
        loser).
        """
        loop = asyncio.get_event_loop()
        tasks: Dict[asyncio.Task, Tuple[float, str, Replica]] = {}

        def spawn(candidate: Tuple[float, str, Replica]) -> asyncio.Task:
            task = loop.create_task(self._probe(candidate[2], video_id))
            tasks[task] = candidate
            return task

        resolved: List[Tuple[Tuple[float, str, Replica], str]] = []
        winner: Optional[Tuple[float, str, Replica]] = None
        fired = False
        hedge_won = False

        primary_task = spawn(primary)
        try:
            done, _ = await asyncio.wait(
                {primary_task}, timeout=self.hedge.deadline()
            )
            if not done and secondary is not None:
                fired = True
                self.stats.hedges += 1
                spawn(secondary)
            active = {task for task in tasks if not task.done()}
            finished = {task for task in tasks if task.done()}
            while finished or active:
                if not finished:
                    finished, active = await asyncio.wait(
                        active, return_when=asyncio.FIRST_COMPLETED
                    )
                for task in sorted(
                    finished, key=lambda t: 0 if t is primary_task else 1
                ):
                    candidate = tasks[task]
                    try:
                        hit = task.result()
                    except (
                        ReplicaDownError,
                        CircuitOpenError,
                        TransientAPIError,
                    ):
                        resolved.append((candidate, "error"))
                        continue
                    if hit:
                        winner = candidate
                        hedge_won = task is not primary_task
                        break
                    resolved.append((candidate, "miss"))
                if winner is not None:
                    break
                finished = set()
        finally:
            for task in tasks:
                if not task.done():
                    self.stats.hedge_cancelled += 1
                    await cancel_and_wait(task)
        return resolved, winner, fired, hedge_won

    async def _probe(self, replica: Replica, video_id: str) -> bool:
        """One breaker-guarded, retry-wrapped replica lookup."""
        breaker = self._breakers[replica.replica_id]

        async def attempt() -> bool:
            breaker.allow()
            try:
                result = await replica.get(video_id)
            except asyncio.CancelledError:
                # A cancelled hedge loser has no verdict: hand back the
                # breaker admission (critical in half-open, where this
                # call holds the single probe slot).
                breaker.record_cancelled()
                raise
            except Exception:
                breaker.record_failure()
                raise
            breaker.record_success()
            return result

        started = running_loop_time()
        result = await self.retry.run_async(attempt, on_failure=self._on_retry)
        if self.hedge is not None:
            self.hedge.observe(running_loop_time() - started)
        return result

    async def probe_health(self) -> Dict[str, Optional[ReplicaHealth]]:
        """Ping every replica once, feeding the per-replica breakers.

        The out-of-band recovery path: after an outage, a replica's
        breaker is closed again by a successful *ping* through its
        half-open probe slot — no user request pays for the experiment.
        Returns each replica's :class:`~repro.serving.replica
        .ReplicaHealth`, or ``None`` for replicas that are unreachable
        or whose breaker refused the probe.
        """
        results: Dict[str, Optional[ReplicaHealth]] = {}
        for replica_id in sorted(self._replicas):
            replica = self._replicas[replica_id]
            breaker = self._breakers[replica_id]
            self.stats.health_probes += 1
            try:
                breaker.allow()
            except CircuitOpenError:
                results[replica_id] = None
                continue
            try:
                health = await replica.ping()
            except asyncio.CancelledError:
                breaker.record_cancelled()
                raise
            except Exception:
                breaker.record_failure()
                self.stats.health_probe_failures += 1
                results[replica_id] = None
                continue
            breaker.record_success()
            results[replica_id] = health
        return results

    def _on_retry(self, exc, attempt, delay) -> None:
        if delay is not None:
            self.stats.retries += 1

    def _admit_home(self, home: Replica, video_id: str) -> None:
        if not self.reactive_admission or not home.alive:
            return
        home.admit(video_id)
        if video_id in home.cache:
            self._index.setdefault(video_id, set()).add(home.replica_id)
            self.stats.admissions += 1

    def _unindex(self, video_id: str, replica_id: str) -> None:
        holders = self._index.get(video_id)
        if holders is None:
            return
        holders.discard(replica_id)
        if not holders:
            del self._index[video_id]
