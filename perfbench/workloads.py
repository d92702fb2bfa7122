"""The four benchmark workloads: pipeline, crawl-tcp, ingest, serve.

Each workload builds its inputs from one seed (``setup``), runs
closed-loop rounds through public calls only (``run_round``), and
checks every round's output against an oracle computed off the timed
path (``check``). ``run.py`` does the timing; this module only opens
spans around the calls, which cost nothing while tracing is off.

Seeds: the world and the temporal stream use ``seed``; the serving
trace, its flash crowd and the admission gate use ``seed + 3``, so the
default seed 2011 gives the presets' 2011 world and benchmark S3's 2014
trace.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

# The program imports these inside functions; importing them here keeps
# every import ahead of the first clock.
import repro.engine.compute  # noqa: F401
import repro.engine.outofcore  # noqa: F401
from repro.analysis.conjecture import evaluate_conjecture
from repro.analysis.tagstats import TagGeographyReport
from repro.analysis.trending import TrendingDetector
from repro.api.resilient import ResilientYoutubeClient
from repro.api.service import YoutubeService
from repro.api.transport import YoutubeAPIServer
from repro.crawler.snowball import SnowballCrawler
from repro.engine.columnar import build_columnar
from repro.engine.incremental import IncrementalEngine, cold_rebuild
from repro.errors import ReproError
from repro.placement.predictor import TagGeoPredictor
from repro.placement.workload import WorkloadGenerator
from repro.reconstruct.tagviews import TagViewsTable
from repro.reconstruct.validation import validate_against_universe
from repro.reconstruct.views import ViewReconstructor
from repro.serving import (
    AdaptiveTagPlanner,
    AdmissionPolicy,
    EdgeCluster,
    FlashCrowdWave,
    HedgePolicy,
    inject_flash_crowd,
    run_virtual,
)
from repro.synth.presets import preset_config
from repro.synth.temporal import TemporalUniverse, temporal_preset
from repro.synth.universe import build_universe
from repro.viz.report import (
    format_table,
    funnel_report,
    stats_report,
    tag_map_report,
    video_map_report,
)
from repro.world.traffic import default_traffic_model

from tracing import TracedClient, TracedPlanner, TracedService

#: Offset from the workload seed to the serving-trace seed (2011 -> 2014).
TRACE_SEED_OFFSET = 3

#: crawl-tcp: videos per crawl. Each crawl is 25 seed-feed calls plus
#: two calls per video, about 3.4 s at the ~44 ms loopback round trip.
TCP_VIDEO_BUDGET = 26

#: ingest: a dashboard read after every this many batches, covering the
#: top-N trending tags of the largest markets.
READ_EVERY = 8
READ_MARKETS = 8
READ_TOP = 10

#: serve: the S3 scenario (benchmarks/bench_s3_overload_failover.py)
#: on the small world, with a base trace sized for ~1 s rounds.
SERVE_BASE_REQUESTS = 3_000
SERVE_REPLICAS = 10
SERVE_CAPACITY_FRAC = 0.25
SERVE_CONCURRENCY = 32
REPLICAS_PER_VIDEO = 6
REPLICA_CONCURRENCY = 12
REPLICA_QUEUE_DEPTH = 12
REPLICA_SERVICE_SECONDS = 0.005
LAST_MILE_KM = 400.0
CROWD_AT_FRAC = 0.02
CROWD_DURATION_FRAC = 0.53
CROWD_INTENSITY = 2.5
VIRAL_SET = 12
BLACKOUT_AT_FRAC = 0.30
RECOVER_AT_FRAC = 0.45
N_WINDOWS = 40


@dataclass
class RoundResult:
    """What one closed-loop round did.

    ``items`` feeds ``items_per_s``; ``latencies_s`` holds per-batch
    latencies when a round is made of batches (``None``: the round is
    the batch); ``ops``/``op_failures`` feed the failure accounting;
    ``counts`` are per-layer counters read from the program's result
    objects; ``output`` is what ``check`` inspects (and then drops, so
    round outputs do not pile up in memory).
    """

    items: int
    ops: int
    op_failures: int = 0
    latencies_s: Optional[List[float]] = None
    counts: Dict[str, float] = field(default_factory=dict)
    output: object = None


class Workload:
    """Interface ``run.py`` drives: ``setup`` -> ``run_round`` ->
    ``check`` per round -> ``close``."""

    name = ""

    def setup(self, seed: int, tracer):
        raise NotImplementedError

    def run_round(self, state, tracer) -> RoundResult:
        raise NotImplementedError

    def check(self, state, result: RoundResult) -> Dict[str, bool]:
        raise NotImplementedError

    def close(self, state) -> None:
        pass


def _world(seed: int, tracer):
    with tracer.span("synth.world"):
        return build_universe(replace(preset_config("small"), seed=seed))


def _api_calls(stats) -> int:
    return (
        stats.seed_pages + stats.related_pages + stats.fetched
        + stats.not_found + stats.transient_errors + stats.transport_errors
    )


def _crawl_counts(stats) -> Dict[str, float]:
    return {
        "crawler.videos": stats.fetched,
        "crawler.api_calls": _api_calls(stats),
    }


def _paper_tables(universe, service, tracer):
    """Exhaustive crawl -> §2 filter -> columnar Eq. (1)-(3) table: the
    in-memory path of ``run_pipeline``, one span per layer."""
    with tracer.span("crawler.run"):
        crawl = SnowballCrawler(service, max_videos=len(universe)).run()
    with tracer.span("datamodel.filter"):
        dataset, funnel = crawl.dataset.apply_paper_filter()
    reconstructor = ViewReconstructor(universe.traffic)
    with tracer.span("engine.build"):
        columnar = build_columnar(dataset, reconstructor.registry)
    with tracer.span("reconstruct.table"):
        table = TagViewsTable.from_columnar(columnar, reconstructor)
    return crawl, dataset, funnel, reconstructor, table


def _paper_artifacts(universe, dataset, funnel, reconstructor, table) -> str:
    """What ``examples/reproduce_paper.py`` prints: §2 stats, Figs. 1-3,
    estimator validation and the conjecture test."""
    traffic = universe.traffic
    parts = [funnel_report(funnel), stats_report(dataset.stats())]
    video = dataset.most_viewed_video()
    parts.append(
        video_map_report(
            video, reconstructor.shares_for_video(video), reconstructor.registry
        )
    )
    tags = ["pop" if "pop" in table else table.top_tags_by_views(1)[0][0]]
    local = TagGeographyReport(table, traffic, min_videos=5).most_local(1)
    if local:
        tags.append(local[0].tag)
    for tag in tags:
        parts.append(
            tag_map_report(
                tag,
                table.shares_for(tag),
                traffic,
                video_count=table.video_count(tag),
                total_views=table.total_views(tag),
            )
        )
    accuracy = validate_against_universe(universe, dataset, reconstructor)
    naive = validate_against_universe(
        universe, dataset, ViewReconstructor(traffic, naive=True)
    )
    conjecture = evaluate_conjecture(dataset, reconstructor, universe=universe)
    parts.append(
        format_table(
            [
                ("mean TV error", f"{accuracy.mean_tv():.6f}"),
                ("naive mean TV error", f"{naive.mean_tv():.6f}"),
                ("JSD tags", f"{conjecture.score('tags').mean_jsd:.6f}"),
                ("JSD prior", f"{conjecture.score('prior').mean_jsd:.6f}"),
                ("JSD uniform", f"{conjecture.score('uniform').mean_jsd:.6f}"),
                ("conjecture holds", conjecture.conjecture_holds()),
            ],
            title="Validation headlines",
        )
    )
    return "\n\n".join(parts)


def _table_oracle(dataset, traffic):
    """Eq. (3) over a filtered dataset by ``cold_rebuild``, fed from the
    video objects directly rather than through the columnar builder."""
    eligible = [video for video in dataset if video.has_valid_popularity()]
    pop = np.array(
        [video.popularity.as_array() for video in eligible], dtype=np.float64
    ).reshape(len(eligible), -1)
    views = np.array([video.views for video in eligible], dtype=np.int64)
    tags = [list(dict.fromkeys(video.tags)) for video in eligible]
    indptr = np.zeros(len(eligible) + 1, dtype=np.int64)
    np.cumsum([len(names) for names in tags], out=indptr[1:])
    names = np.array([name for names in tags for name in names], dtype=str)
    return cold_rebuild(
        pop, views, indptr, names, reconstructor=ViewReconstructor(traffic)
    )


class PipelineWorkload(Workload):
    """Crawl the in-process API exhaustively, filter, build the Eq. (3)
    table and compute the paper's artifacts: one pass per round."""

    name = "pipeline"

    def setup(self, seed: int, tracer):
        universe = _world(seed, tracer)
        return {"universe": universe, "service": YoutubeService(universe)}

    def run_round(self, state, tracer) -> RoundResult:
        universe, service = state["universe"], state["service"]
        if tracer.enabled:
            service = TracedService(service, tracer)
        crawl, dataset, funnel, reconstructor, table = _paper_tables(
            universe, service, tracer
        )
        with tracer.span("analysis.paper"):
            artifacts = _paper_artifacts(
                universe, dataset, funnel, reconstructor, table
            )
        counts = _crawl_counts(crawl.stats)
        counts["datamodel.retained"] = len(dataset)
        return RoundResult(
            items=crawl.stats.fetched,
            ops=_api_calls(crawl.stats),
            op_failures=crawl.stats.retries_exhausted,
            counts=counts,
            output=(dataset, table, artifacts),
        )

    def check(self, state, result: RoundResult) -> Dict[str, bool]:
        dataset, table, artifacts = result.output
        result.output = None
        if "oracle" not in state:
            # The first round fixes the reference every later one repeats.
            state["oracle"] = _table_oracle(dataset, state["universe"].traffic)
            state["reference"] = (dataset.video_ids(), artifacts)
        oracle = state["oracle"]
        ids, reference_artifacts = state["reference"]
        return {
            "filtered dataset repeats": dataset.video_ids() == ids,
            "Eq. (3) table equals cold_rebuild": tuple(table.tags())
            == oracle.tags
            and np.array_equal(table.views_matrix(), oracle.tag_views),
            "paper artifacts repeat": artifacts == reference_artifacts,
        }


class CrawlTcpWorkload(Workload):
    """Budgeted snowball crawls over one loopback TCP connection."""

    name = "crawl-tcp"

    def setup(self, seed: int, tracer):
        universe = _world(seed, tracer)
        service = YoutubeService(universe)
        proxies = []
        if tracer.enabled:
            service = TracedService(service)
            proxies.append(service)
        server = YoutubeAPIServer(service).start()
        client = ResilientYoutubeClient(
            server.host, server.port, registry=universe.registry
        )
        crawl_client = client
        if tracer.enabled:
            crawl_client = TracedClient(client)
            proxies.append(crawl_client)
        return {
            "universe": universe,
            "server": server,
            "client": client,
            "crawl_client": crawl_client,
            "proxies": proxies,
        }

    def run_round(self, state, tracer) -> RoundResult:
        # The proxies outlive a round (the server keeps its service), so
        # each round hands them its tracer: NULL in untraced rounds.
        for proxy in state["proxies"]:
            proxy.tracer = tracer
        client = state["client"]
        before = client.resilience_snapshot()
        with tracer.span("crawler.run"):
            crawl = SnowballCrawler(
                state["crawl_client"], max_videos=TCP_VIDEO_BUDGET
            ).run()
        after = client.resilience_snapshot()
        counts = _crawl_counts(crawl.stats)
        counts["api.resilient.retries"] = after["replays"] - before["replays"]
        counts["api.resilient.reconnects"] = (
            after["reconnects"] - before["reconnects"]
        )
        return RoundResult(
            items=crawl.stats.fetched,
            ops=_api_calls(crawl.stats),
            op_failures=crawl.stats.retries_exhausted,
            counts=counts,
            output=list(crawl.dataset),
        )

    def check(self, state, result: RoundResult) -> Dict[str, bool]:
        records = result.output
        result.output = None
        if "oracle" not in state:
            state["oracle"] = list(
                SnowballCrawler(
                    YoutubeService(state["universe"]),
                    max_videos=TCP_VIDEO_BUDGET,
                ).run().dataset
            )
        return {"records equal an in-process crawl": records == state["oracle"]}

    def close(self, state) -> None:
        state["client"].close()
        state["server"].stop()


class IngestWorkload(Workload):
    """The medium-temporal delta stream through the incremental engine
    and the trending detector, with a dashboard read every 8th batch:
    one fresh engine and one pass over the stream per round."""

    name = "ingest"

    def setup(self, seed: int, tracer):
        config, temporal = temporal_preset("medium-temporal")
        with tracer.span("synth.stream"):
            stream = TemporalUniverse(replace(config, seed=seed), temporal)
            batches = list(stream.iter_batches())
        return {
            "stream": stream,
            "batches": batches,
            "half_life": 4.0 * temporal.step_seconds,
            "markets": EdgeCluster.top_markets(
                default_traffic_model(stream.registry), READ_MARKETS
            ),
        }

    def run_round(self, state, tracer) -> RoundResult:
        engine = IncrementalEngine()
        detector = TrendingDetector(engine, half_life=state["half_life"])
        markets = state["markets"]
        clock = time.perf_counter
        latencies: List[float] = []
        counts = dict.fromkeys(
            (
                "engine.incremental.deltas",
                "engine.incremental.rows_touched",
                "engine.incremental.tags_touched",
                "engine.incremental.tags_deferred",
                "engine.incremental.tags_flushed",
                "engine.incremental.new_videos",
                "engine.incremental.new_tags",
            ),
            0,
        )
        rejected = 0
        for index, batch in enumerate(state["batches"]):
            started = clock()
            try:
                with tracer.span("engine.incremental.apply", index):
                    applied = engine.apply(batch)
            except ReproError:
                rejected += 1
                continue
            with tracer.span("analysis.trending.update", index):
                detector.update(applied)
            if (index + 1) % READ_EVERY == 0:
                for market in markets:
                    with tracer.span("analysis.trending.query", market):
                        detector.top_tags(market, READ_TOP)
                counts["engine.incremental.tags_flushed"] += (
                    engine.dirty_tag_count
                )
                with tracer.span("engine.incremental.flush", index):
                    engine.tag_views  # reading the table flushes deferred tags
            latencies.append(clock() - started)
            counts["engine.incremental.deltas"] += applied.n_deltas
            counts["engine.incremental.rows_touched"] += len(
                applied.touched_rows
            )
            counts["engine.incremental.tags_touched"] += len(
                applied.touched_tags
            )
            counts["engine.incremental.tags_deferred"] += (
                applied.n_tags_deferred
            )
            counts["engine.incremental.new_videos"] += applied.n_new_videos
            counts["engine.incremental.new_tags"] += applied.n_new_tags
        return RoundResult(
            items=counts["engine.incremental.deltas"],
            ops=len(state["batches"]),
            op_failures=rejected,
            latencies_s=latencies,
            counts=counts,
            output=engine,
        )

    def check(self, state, result: RoundResult) -> Dict[str, bool]:
        engine = result.output
        result.output = None
        if "oracle" not in state:
            pop, views, indptr, names = state["stream"].snapshot_eligible()
            state["oracle"] = cold_rebuild(pop, views, indptr, names)
        oracle = state["oracle"]
        return {
            "vocabulary equals cold_rebuild": engine.tags == oracle.tags,
            "tag_views bit-identical to cold_rebuild": bool(
                np.array_equal(engine.tag_views, oracle.tag_views)
            ),
        }


class ServeWorkload(Workload):
    """The S3 overload-and-failover scenario on the small world: build
    a 10-replica cluster, warm it and serve the trace, once per round."""

    name = "serve"

    def setup(self, seed: int, tracer):
        universe = _world(seed, tracer)
        service = YoutubeService(universe)
        if tracer.enabled:
            service = TracedService(service, tracer)
        _, dataset, _, _, table = _paper_tables(universe, service, tracer)
        trace_seed = seed + TRACE_SEED_OFFSET
        registry = table.registry
        markets = EdgeCluster.top_markets(universe.traffic, SERVE_REPLICAS)
        origin_region = registry.get("US").region
        crowd = next(
            market for market in markets
            if registry.get(market).region != origin_region
        )
        with tracer.span("placement.workload.trace"):
            viral = tuple(
                video.video_id
                for video in sorted(dataset, key=lambda v: -v.views)[:VIRAL_SET]
            )
            base = WorkloadGenerator(
                universe, dataset.video_ids(), seed=trace_seed
            ).iter_requests(SERVE_BASE_REQUESTS)
            wave = FlashCrowdWave(
                at_request=int(SERVE_BASE_REQUESTS * CROWD_AT_FRAC),
                duration=int(SERVE_BASE_REQUESTS * CROWD_DURATION_FRAC),
                country=crowd,
                video_ids=viral,
                intensity=CROWD_INTENSITY,
            )
            trace = list(inject_flash_crowd(base, [wave], seed=trace_seed))
        return {
            "dataset": dataset,
            "table": table,
            "markets": markets,
            "crowd_region": registry.get(crowd).region,
            "capacity": max(4, int(len(dataset) * SERVE_CAPACITY_FRAC)),
            "trace": trace,
            "trace_seed": trace_seed,
        }

    def run_round(self, state, tracer) -> RoundResult:
        trace = state["trace"]
        n = len(trace)
        window = n // N_WINDOWS
        with tracer.span("serving.build"):
            planner = AdaptiveTagPlanner(
                TagGeoPredictor(state["table"]),
                replicas_per_video=REPLICAS_PER_VIDEO,
            )
            if tracer.enabled:
                planner = TracedPlanner(planner, tracer)
            cluster = EdgeCluster(
                state["dataset"],
                state["table"].registry,
                state["markets"],
                capacity=state["capacity"],
                planner=planner,
                last_mile_km=LAST_MILE_KM,
                replica_concurrency=REPLICA_CONCURRENCY,
                replica_queue_depth=REPLICA_QUEUE_DEPTH,
                replica_service_seconds=REPLICA_SERVICE_SECONDS,
                hedge=HedgePolicy(),
                admission=AdmissionPolicy(
                    max_inflight=8 * SERVE_CONCURRENCY, seed=state["trace_seed"]
                ),
            )
            chaos = cluster.blackout(
                state["crowd_region"],
                at_request=int(n * BLACKOUT_AT_FRAC),
                recover_at=int(n * RECOVER_AT_FRAC),
                stagger=window,
            )
        outcomes = [0] * n

        def on_result(index, result, distance_km):
            outcomes[index] += 1

        async def main():
            with tracer.span("serving.warm"):
                await cluster.warm()
            with tracer.span("serving.serve"):
                return await cluster.serve_trace(
                    trace,
                    concurrency=SERVE_CONCURRENCY,
                    chaos=chaos,
                    rewarm_every=n // 8,
                    probe_every=n // 50,
                    rewarm_on_chaos=True,
                    on_result=on_result,
                )

        report = run_virtual(main())
        counts = {
            "serving.planner.placed": report.placed,
            "serving.admission.offered": report.offered,
            "serving.admission.shed": report.shed,
            "serving.replica.queued": report.queued,
            "serving.replica.overload_rejections": report.overload_rejections,
            "serving.controller.retries": report.retries,
            "serving.controller.reroutes": report.reroutes,
            "serving.controller.hedges": report.hedges,
            "serving.controller.hedge_win_ratio": (
                report.hedge_wins / report.hedges if report.hedges else 0.0
            ),
            "serving.controller.breaker_opens": report.breaker_opens,
            "serving.controller.health_probes": report.health_probes,
            "serving.fail_share": (
                (report.failed + report.shed) / report.offered
                if report.offered else 0.0
            ),
            "serving.edge_hit_ratio": report.hit_ratio,
            "placement.cache.local_hits": report.local_hits,
            "placement.cache.remote_hits": report.remote_hits,
            "placement.cache.origin_fetches": report.origin_fetches,
        }
        return RoundResult(
            items=report.offered,
            ops=report.offered,
            op_failures=report.failed,
            counts=counts,
            output=(report, outcomes, chaos.exhausted),
        )

    def check(self, state, result: RoundResult) -> Dict[str, bool]:
        report, outcomes, chaos_exhausted = result.output
        result.output = None
        n = len(state["trace"])
        # Virtual-time outcomes are deterministic: every round must
        # reproduce the first one's report exactly.
        reference = state.setdefault("reference", report)
        return {
            "served + shed = offered = trace": report.offered == n
            and report.requests + report.shed == report.offered,
            "no request failed": report.failed == 0,
            "one outcome per trace entry": outcomes.count(1) == n,
            "chaos schedule used up": chaos_exhausted,
            "report repeats": report == reference,
        }


WORKLOADS = {
    workload.name: workload
    for workload in (
        PipelineWorkload, CrawlTcpWorkload, IngestWorkload, ServeWorkload
    )
}
