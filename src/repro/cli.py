"""Command-line interface.

Subcommands::

    repro crawl    --preset small --out crawl.jsonl [--max-videos N]
                   [--fault-rate P] [--world world.gz]
    repro stats    --in crawl.jsonl
    repro topvideo --in crawl.jsonl            (Fig. 1)
    repro tag      --in crawl.jsonl TAG        (Figs. 2/3)
    repro toptags  --in crawl.jsonl [--count N]
    repro classify --in crawl.jsonl [--min-videos N] [--csv out.csv]
    repro country  --in crawl.jsonl BR
    repro regions  --in crawl.jsonl
    repro cooccur  --in crawl.jsonl TAG
    repro plot     --in crawl.jsonl
    repro audit    --in crawl.jsonl [--check-references]
    repro genworld --preset small --out world.gz [--seed N]
    repro validate --world world.gz --in crawl.jsonl [--smoothing L]
    repro demo     [--preset tiny]             (end-to-end walkthrough)
    repro resume   --workdir DIR [--preset small] [--seed N]
                   [--max-videos N] [--fault-rate P] [--checkpoint-every N]
    repro verify   [paths ...] [--workdir DIR] [--store store.db]
                   [--no-quarantine]

Datasets written by ``crawl`` are plain JSONL (one video per line) and
are re-read by the analysis subcommands with the library's default
traffic model. ``genworld`` saves a universe *with ground truth* so
``validate`` (and crawls of the same world) can run in later processes.
``tag``/``toptags``/``classify``/``country`` accept
``--engine {auto,columnar,chunked}`` to pick the Eq. (1)-(3) execution
engine (columnar vectorized fast path or bounded-memory chunked
streaming, with identical float64 output), plus ``--chunk-rows N`` and
``--dtype {float64,float32}`` to tune the chunked path.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.datamodel.dataset import Dataset
from repro.datamodel.io import read_videos_jsonl, write_videos_jsonl
from repro.errors import ReproError
from repro.pipeline import (
    PipelineConfig,
    TemporalIngestConfig,
    run_pipeline,
    run_temporal_ingest,
)
from repro.reconstruct.tagviews import ENGINES, TagViewsTable
from repro.reconstruct.views import ViewReconstructor
from repro.synth.presets import PRESETS, preset_config
from repro.synth.temporal import TEMPORAL_PRESETS
from repro.viz.report import (
    funnel_report,
    stats_report,
    tag_map_report,
    video_map_report,
)
from repro.world.traffic import default_traffic_model


def _add_engine_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine",
        default="auto",
        choices=ENGINES,
        help="Eq. (1)-(3) execution engine: the vectorized columnar fast "
        "path (auto/columnar) or the bounded-memory streaming path "
        "(chunked; identical float64 output)",
    )
    parser.add_argument(
        "--chunk-rows",
        type=int,
        default=None,
        metavar="N",
        help="chunk budget for the chunked engine (CSR entries per "
        "streamed block); default: library default",
    )
    parser.add_argument(
        "--dtype",
        default="float64",
        choices=("float64", "float32"),
        help="compute precision for the engine paths; float32 halves "
        "memory at <=1e-4 relative error (default: float64)",
    )


def _table_kwargs(args: argparse.Namespace) -> dict:
    """TagViewsTable keyword arguments from the engine flags."""
    return {
        "engine": args.engine,
        "dtype": None if args.dtype == "float64" else args.dtype,
        "block_entries": args.chunk_rows,
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'From Views to Tags Distribution in YouTube' "
            "(Middleware'14)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    crawl = sub.add_parser("crawl", help="run a snowball crawl, write JSONL")
    crawl.add_argument("--preset", default="small", choices=sorted(PRESETS))
    crawl.add_argument("--out", required=True, help="output JSONL path")
    crawl.add_argument("--max-videos", type=int, default=None)
    crawl.add_argument("--fault-rate", type=float, default=0.0)
    crawl.add_argument("--seed", type=int, default=None, help="universe seed")
    crawl.add_argument(
        "--world", default=None, help="crawl a saved world instead of a preset"
    )
    crawl.add_argument(
        "--workers",
        type=int,
        default=1,
        help="crawl worker processes; >1 shards the frontier across a "
        "supervised multi-process crawl (default: 1)",
    )

    stats = sub.add_parser("stats", help="funnel + corpus statistics")
    stats.add_argument("--in", dest="input", required=True)

    topvideo = sub.add_parser("topvideo", help="Fig. 1: most-viewed video map")
    topvideo.add_argument("--in", dest="input", required=True)

    tag = sub.add_parser("tag", help="Figs. 2/3: a tag's view geography")
    tag.add_argument("--in", dest="input", required=True)
    tag.add_argument("tag", help="the tag to map")
    _add_engine_flag(tag)

    toptags = sub.add_parser("toptags", help="most-viewed tags ranking")
    toptags.add_argument("--in", dest="input", required=True)
    toptags.add_argument("--count", type=int, default=15)
    _add_engine_flag(toptags)

    classify = sub.add_parser(
        "classify", help="global/local classification of every tag"
    )
    classify.add_argument("--in", dest="input", required=True)
    classify.add_argument("--min-videos", type=int, default=3)
    classify.add_argument("--csv", default=None, help="write full table as CSV")
    classify.add_argument("--count", type=int, default=10, help="rows to print")
    _add_engine_flag(classify)

    regions = sub.add_parser(
        "regions", help="continental share of estimated views"
    )
    regions.add_argument("--in", dest="input", required=True)

    cooccur = sub.add_parser(
        "cooccur", help="tags most associated with a tag (co-occurrence)"
    )
    cooccur.add_argument("--in", dest="input", required=True)
    cooccur.add_argument("tag")
    cooccur.add_argument("--count", type=int, default=10)
    cooccur.add_argument("--min-tag-count", type=int, default=3)

    country = sub.add_parser(
        "country", help="a country's tag signature (most over-watched tags)"
    )
    country.add_argument("--in", dest="input", required=True)
    country.add_argument("code", help="ISO country code, e.g. BR")
    country.add_argument("--count", type=int, default=10)
    country.add_argument("--min-videos", type=int, default=3)
    _add_engine_flag(country)

    plot = sub.add_parser(
        "plot", help="view-count and tag-usage distribution plots (ASCII)"
    )
    plot.add_argument("--in", dest="input", required=True)

    audit = sub.add_parser("audit", help="integrity audit of a crawl file")
    audit.add_argument("--in", dest="input", required=True)
    audit.add_argument(
        "--check-references",
        action="store_true",
        help="also flag related ids missing from the file",
    )

    genworld = sub.add_parser(
        "genworld", help="generate and save a universe (with ground truth)"
    )
    genworld.add_argument("--preset", default="small", choices=sorted(PRESETS))
    genworld.add_argument("--out", required=True)
    genworld.add_argument("--seed", type=int, default=None)

    validate = sub.add_parser(
        "validate", help="score Eq. (1)-(2) against a saved world's ground truth"
    )
    validate.add_argument("--world", required=True)
    validate.add_argument("--in", dest="input", required=True)
    validate.add_argument("--smoothing", type=float, default=0.0)

    demo = sub.add_parser("demo", help="end-to-end walkthrough on a preset")
    demo.add_argument("--preset", default="tiny", choices=sorted(PRESETS))

    def _add_temporal_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--preset",
            default="small-temporal",
            choices=sorted(TEMPORAL_PRESETS),
        )
        p.add_argument(
            "--steps",
            type=int,
            default=None,
            help="override the preset's horizon (delta batches)",
        )
        p.add_argument(
            "--half-life",
            type=float,
            default=None,
            help="trending half-life in seconds (default: 4 stream steps)",
        )

    ingest = sub.add_parser(
        "ingest-deltas",
        help="stream view-delta batches through the incremental engine",
    )
    _add_temporal_flags(ingest)
    ingest.add_argument(
        "--metrics",
        action="store_true",
        help="also maintain the per-row metric surfaces",
    )
    ingest.add_argument(
        "--eager-limit",
        type=int,
        default=None,
        help="recompute tags at or below this degree inside apply() "
        "(default: defer everything to reads)",
    )
    ingest.add_argument(
        "--verify-oracle",
        action="store_true",
        help="cold-rebuild the cumulative snapshot and check the "
        "tag-views table is bit-identical",
    )

    trend = sub.add_parser(
        "trend",
        help="top-moving tags/videos from an ingested delta stream",
    )
    _add_temporal_flags(trend)
    trend.add_argument(
        "--country",
        default=None,
        help="rank within one country code (default: worldwide)",
    )
    trend.add_argument(
        "--count", type=int, default=10, help="entries per ranking"
    )

    resume = sub.add_parser(
        "resume",
        help="run (or continue) a crash-safe pipeline in a workdir",
    )
    resume.add_argument(
        "--workdir", required=True, help="stage artifacts + crawl journal dir"
    )
    resume.add_argument("--preset", default="small", choices=sorted(PRESETS))
    resume.add_argument("--seed", type=int, default=None, help="universe seed")
    resume.add_argument("--max-videos", type=int, default=None)
    resume.add_argument("--fault-rate", type=float, default=0.0)
    resume.add_argument(
        "--checkpoint-every",
        type=int,
        default=50,
        help="crawl videos per durable journal batch",
    )
    resume.add_argument(
        "--workers",
        type=int,
        default=1,
        help="crawl worker processes; >1 shards the frontier across a "
        "supervised multi-process crawl (default: 1)",
    )

    verify = sub.add_parser(
        "verify",
        help="check artifact integrity; quarantine and report anything corrupt",
    )
    verify.add_argument(
        "paths", nargs="*", help="artifact files (with .sha256 sidecars)"
    )
    verify.add_argument(
        "--workdir", default=None, help="verify a pipeline workdir's artifacts"
    )
    verify.add_argument(
        "--store", default=None, help="also integrity-check a SQLite video store"
    )
    verify.add_argument(
        "--no-quarantine",
        action="store_true",
        help="report corruption but leave files in place",
    )

    return parser


def _load_dataset(path: str) -> Dataset:
    return Dataset(read_videos_jsonl(path))


def _cmd_crawl(args: argparse.Namespace) -> int:
    if args.world is not None:
        from repro.api.service import YoutubeService
        from repro.api.faults import FaultInjector
        from repro.crawler.snowball import SnowballCrawler
        from repro.synth.io import load_universe

        universe = load_universe(args.world)
        service = YoutubeService(
            universe,
            faults=FaultInjector(rate=args.fault_rate, seed=universe.config.seed),
        )
        budget = args.max_videos if args.max_videos else len(universe)
        if args.workers > 1:
            import tempfile

            from repro.api.transport import YoutubeAPIServer
            from repro.crawler.distributed import DistributedCrawlSupervisor

            with tempfile.TemporaryDirectory(prefix="repro-crawl-") as tmp:
                with YoutubeAPIServer(service) as server:
                    supervisor = DistributedCrawlSupervisor(
                        server.host,
                        server.port,
                        store_path=f"{tmp}/crawl.db",
                        workdir=f"{tmp}/journals",
                        workers=args.workers,
                        max_videos=budget,
                    )
                    with supervisor:
                        crawl = supervisor.run()
        else:
            crawl = SnowballCrawler(service, max_videos=budget).run()
    else:
        universe_config = preset_config(args.preset)
        if args.seed is not None:
            universe_config = type(universe_config)(
                **{**universe_config.__dict__, "seed": args.seed}
            )
        crawl = run_pipeline(
            PipelineConfig(
                universe=universe_config,
                crawl_budget=args.max_videos,
                fault_rate=args.fault_rate,
                workers=args.workers,
            )
        ).crawl
    written = write_videos_jsonl(crawl.dataset, args.out)
    print(f"wrote {written:,} videos to {args.out}")
    for label, value in crawl.stats.as_rows():
        print(f"  {label}: {value}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    raw = _load_dataset(args.input)
    filtered, report = raw.apply_paper_filter()
    print(funnel_report(report))
    print()
    print(stats_report(filtered.stats()))
    return 0


def _cmd_topvideo(args: argparse.Namespace) -> int:
    raw = _load_dataset(args.input)
    filtered, _ = raw.apply_paper_filter()
    video = filtered.most_viewed_video()
    reconstructor = ViewReconstructor()
    print(
        video_map_report(
            video,
            reconstructor.shares_for_video(video),
            reconstructor.registry,
        )
    )
    return 0


def _cmd_tag(args: argparse.Namespace) -> int:
    raw = _load_dataset(args.input)
    filtered, _ = raw.apply_paper_filter()
    reconstructor = ViewReconstructor()
    table = TagViewsTable(filtered, reconstructor, **_table_kwargs(args))
    if args.tag not in table:
        print(f"tag {args.tag!r} not found in dataset", file=sys.stderr)
        return 1
    print(
        tag_map_report(
            args.tag,
            table.shares_for(args.tag),
            reconstructor.traffic,
            video_count=table.video_count(args.tag),
            total_views=table.total_views(args.tag),
        )
    )
    return 0


def _cmd_toptags(args: argparse.Namespace) -> int:
    raw = _load_dataset(args.input)
    filtered, _ = raw.apply_paper_filter()
    table = TagViewsTable(filtered, ViewReconstructor(), **_table_kwargs(args))
    print(f"{'rank':>4}  {'tag':<24} {'est. views':>16} {'videos':>8}")
    for rank, (tag, views) in enumerate(
        table.top_tags_by_views(args.count), start=1
    ):
        print(
            f"{rank:>4}  {tag:<24} {views:>16,.0f} "
            f"{table.video_count(tag):>8,}"
        )
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    from repro.analysis.tagstats import TagGeographyReport

    raw = _load_dataset(args.input)
    filtered, _ = raw.apply_paper_filter()
    reconstructor = ViewReconstructor()
    table = TagViewsTable(filtered, reconstructor, **_table_kwargs(args))
    report = TagGeographyReport(
        table, reconstructor.traffic, min_videos=args.min_videos
    )
    groups = report.by_classification()
    print(
        f"{len(report)} tags with >= {args.min_videos} videos: "
        + ", ".join(f"{kind}={len(tags)}" for kind, tags in groups.items())
    )
    print(f"\nmost local (top {args.count}):")
    print(f"{'tag':<26} {'top':>4} {'top1':>6} {'JSD':>6} {'H':>6} {'videos':>7}")
    for stat in report.most_local(args.count):
        print(
            f"{stat.tag:<26} {stat.top_country:>4} {stat.top1_share:>6.1%} "
            f"{stat.jsd_to_prior:>6.3f} {stat.entropy:>6.3f} {stat.video_count:>7,}"
        )
    if args.csv:
        import csv

        with open(args.csv, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                [
                    "tag", "classification", "top_country", "top1_share",
                    "jsd_to_prior", "entropy", "gini", "hhi",
                    "video_count", "total_views",
                ]
            )
            for stat in report.all():
                writer.writerow(
                    [
                        stat.tag, stat.classification, stat.top_country,
                        f"{stat.top1_share:.6f}", f"{stat.jsd_to_prior:.6f}",
                        f"{stat.entropy:.6f}", f"{stat.gini:.6f}",
                        f"{stat.hhi:.6f}", stat.video_count,
                        f"{stat.total_views:.0f}",
                    ]
                )
        print(f"\nwrote {len(report)} rows to {args.csv}")
    return 0


def _cmd_regions(args: argparse.Namespace) -> int:
    from repro.analysis.regionview import dataset_continent_shares
    from repro.viz.report import format_table

    raw = _load_dataset(args.input)
    filtered, _ = raw.apply_paper_filter()
    shares = dataset_continent_shares(filtered, ViewReconstructor())
    print(
        format_table(
            [(name, f"{share:.1%}") for name, share in shares.items()],
            title="Share of estimated views by world region",
        )
    )
    return 0


def _cmd_cooccur(args: argparse.Namespace) -> int:
    from repro.analysis.cooccurrence import CooccurrenceGraph

    raw = _load_dataset(args.input)
    filtered, _ = raw.apply_paper_filter()
    graph = CooccurrenceGraph(filtered, min_tag_count=args.min_tag_count)
    if args.tag not in graph:
        print(
            f"tag {args.tag!r} not in the co-occurrence graph "
            f"(needs >= {args.min_tag_count} videos)",
            file=sys.stderr,
        )
        return 1
    print(f"tags most associated with {args.tag!r}:")
    for tag, score in graph.most_associated(args.tag, args.count):
        print(f"  {tag:<26} jaccard={score:.3f}")
    return 0


def _cmd_country(args: argparse.Namespace) -> int:
    from repro.analysis.signatures import CountrySignatures

    raw = _load_dataset(args.input)
    filtered, _ = raw.apply_paper_filter()
    table = TagViewsTable(filtered, ViewReconstructor(), **_table_kwargs(args))
    signatures = CountrySignatures(table, min_videos=args.min_videos)
    code = args.code.upper()
    entries = signatures.signature(code, args.count)
    if not entries:
        print(
            f"no tags with >= {args.min_videos} videos have views in {code}",
            file=sys.stderr,
        )
        return 1
    print(
        f"tags most over-watched in {code} "
        f"(baseline share {signatures.baseline_share(code):.1%}):"
    )
    print(f"{'tag':<26} {'lift':>7} {'share':>7} {'videos':>7}")
    for entry in entries:
        print(
            f"{entry.tag:<26} {entry.lift:>6.1f}× {entry.country_share:>7.1%} "
            f"{entry.video_count:>7,}"
        )
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    from repro.analysis.zipf import rank_frequency
    from repro.viz.plots import render_histogram, render_loglog_ccdf

    raw = _load_dataset(args.input)
    views = [video.views for video in raw if video.views > 0]
    print(
        render_histogram(
            views, bins=12, log_x=True, title="View counts (log-width bins)"
        )
    )
    print()
    print(render_loglog_ccdf(views, title="View-count CCDF (log-log)"))
    print()
    _, tag_counts = rank_frequency(raw.tag_frequencies())
    print(
        render_loglog_ccdf(
            tag_counts.tolist(),
            title="Tag usage CCDF (log-log)",
        )
    )
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.datamodel.audit import audit_dataset
    from repro.viz.report import format_table

    dataset = _load_dataset(args.input)
    report = audit_dataset(dataset, check_references=args.check_references)
    print(format_table(report.as_rows(), title="Dataset integrity audit"))
    return 0 if report.clean else 1


def _cmd_genworld(args: argparse.Namespace) -> int:
    from repro.synth.io import save_universe
    from repro.synth.universe import build_universe

    from repro.synth.stats import summarize_universe
    from repro.viz.report import format_table

    config = preset_config(args.preset)
    if args.seed is not None:
        config = type(config)(**{**config.__dict__, "seed": args.seed})
    universe = build_universe(config)
    written = save_universe(universe, args.out)
    print(f"wrote universe of {written:,} videos (seed {config.seed}) to {args.out}")
    print()
    print(format_table(summarize_universe(universe).as_rows(), title="World summary"))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.reconstruct.validation import validate_against_universe
    from repro.synth.io import load_universe
    from repro.viz.report import format_table

    universe = load_universe(args.world)
    raw = _load_dataset(args.input)
    filtered, _ = raw.apply_paper_filter()
    reconstructor = ViewReconstructor(
        universe.traffic, smoothing=args.smoothing
    )
    report = validate_against_universe(universe, filtered, reconstructor)
    title = "Estimator accuracy vs ground truth"
    if args.smoothing:
        title += f" (smoothing λ={args.smoothing})"
    print(format_table(list(report.as_rows()), title=title))
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    result = run_pipeline(PipelineConfig(universe=preset_config(args.preset)))
    print(funnel_report(result.filter_report))
    print()
    print(stats_report(result.dataset.stats()))
    print()
    video = result.dataset.most_viewed_video()
    print(
        video_map_report(
            video,
            result.reconstructor.shares_for_video(video),
            result.reconstructor.registry,
        )
    )
    print()
    top = result.tag_table.top_tags_by_views(1)
    if top:
        tag = top[0][0]
        print(
            tag_map_report(
                tag,
                result.tag_table.shares_for(tag),
                result.reconstructor.traffic,
                video_count=result.tag_table.video_count(tag),
                total_views=result.tag_table.total_views(tag),
            )
        )
    return 0


def _temporal_config(
    args: argparse.Namespace, **overrides
) -> TemporalIngestConfig:
    return TemporalIngestConfig(
        preset=args.preset,
        n_steps=args.steps,
        half_life=args.half_life,
        **overrides,
    )


def _cmd_ingest_deltas(args: argparse.Namespace) -> int:
    result = run_temporal_ingest(
        _temporal_config(
            args,
            track_metrics=args.metrics,
            eager_degree_limit=(
                "default" if args.eager_limit is None else args.eager_limit
            ),
            verify_oracle=args.verify_oracle,
        )
    )
    engine = result.engine
    print(f"preset:            {args.preset}")
    print(f"batches applied:   {result.batches}")
    print(
        f"deltas applied:    {result.deltas:,}"
        f" ({result.deltas_ignored:,} to funnel-dropped videos ignored)"
    )
    print(
        f"videos:            {result.new_videos:,}"
        f" ({result.new_videos_skipped:,} arrivals without popularity maps"
        " skipped)"
    )
    print(f"tags:              {result.n_tags:,}")
    print(
        f"ingest:            {result.elapsed_seconds:.3f}s"
        f" ({result.deltas_per_second:,.0f} deltas/s)"
    )
    print(
        f"tag rows:          {engine.tag_rows_recomputed:,} recomputed,"
        f" {engine.tag_rows_deferred:,} deferred across"
        f" {engine.flushes} flush(es)"
    )
    if result.oracle_identical is not None:
        status = "bit-identical" if result.oracle_identical else "MISMATCH"
        print(f"cold-rebuild check: {status}")
        if not result.oracle_identical:
            return 1
    return 0


def _cmd_trend(args: argparse.Namespace) -> int:
    from repro.viz.report import format_table

    result = run_temporal_ingest(_temporal_config(args))
    detector = result.detector
    where = args.country if args.country else "worldwide"
    print(
        f"trending after {result.batches} batches"
        f" ({result.deltas:,} deltas), {where},"
        f" half-life {detector.half_life:.0f}s"
    )
    print()
    tags = detector.top_tags(args.country, count=args.count)
    print(
        format_table(
            [(tag, f"{score:,.0f}") for tag, score in tags],
            title="top-moving tags (decayed views)",
        )
    )
    print()
    videos = detector.top_videos(args.country, count=args.count)
    print(
        format_table(
            [(vid, f"{score:,.0f}") for vid, score in videos],
            title="top-moving videos (decayed views)",
        )
    )
    demand = detector.demand_vector()
    codes = result.engine.codes
    top = sorted(
        zip(codes, demand), key=lambda item: (-item[1], item[0])
    )[:5]
    print()
    print(
        "pre-warm demand hint (top countries): "
        + ", ".join(f"{code}={value:,.0f}" for code, value in top)
    )
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    from repro.viz.report import format_table

    universe_config = preset_config(args.preset)
    if args.seed is not None:
        universe_config = type(universe_config)(
            **{**universe_config.__dict__, "seed": args.seed}
        )
    config = PipelineConfig(
        universe=universe_config,
        crawl_budget=args.max_videos,
        fault_rate=args.fault_rate,
        checkpoint_every=args.checkpoint_every,
        workers=args.workers,
    )
    result = run_pipeline(config, workdir=args.workdir)
    if result.stages_skipped:
        print(
            "skipped (already durable): " + ", ".join(result.stages_skipped)
        )
    for path in result.quarantined:
        print(f"quarantined corrupt artifact: {path}")
    print(
        f"pipeline complete in {args.workdir}: "
        f"{result.filter_report.retained:,} videos retained "
        f"of {result.crawl.stats.fetched:,} crawled"
    )
    print()
    print(format_table(result.crawl.stats.as_rows(), title="Crawl statistics"))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.durability import artifacts
    from repro.errors import ArtifactError, ArtifactIntegrityError

    targets: List[Path] = [Path(p) for p in args.paths]
    if args.workdir is not None:
        from repro.pipeline import MANIFEST_NAME, PIPELINE_STAGES, STAGE_ARTIFACTS

        workdir = Path(args.workdir)
        targets.append(workdir / MANIFEST_NAME)
        for stage in PIPELINE_STAGES:
            for name in STAGE_ARTIFACTS[stage]:
                targets.append(workdir / name)
    if not targets and args.store is None:
        print("nothing to verify (give paths, --workdir, or --store)", file=sys.stderr)
        return 2

    failures = 0
    for path in targets:
        if not path.exists():
            if args.workdir is not None:
                # A stage that never ran is not corruption.
                continue
            print(f"MISSING  {path}", file=sys.stderr)
            failures += 1
            continue
        try:
            artifacts.verify_artifact(path)
            print(f"ok       {path}")
        except ArtifactIntegrityError as exc:
            failures += 1
            if args.no_quarantine:
                print(f"CORRUPT  {path}: {exc}", file=sys.stderr)
            else:
                moved = artifacts.quarantine(path)
                print(f"CORRUPT  {path}: {exc}", file=sys.stderr)
                print(f"         quarantined to {moved}", file=sys.stderr)
        except ArtifactError as exc:
            failures += 1
            print(f"ERROR    {path}: {exc}", file=sys.stderr)

    if args.store is not None:
        from repro.datamodel.store import VideoStore
        from repro.errors import DatasetIOError

        try:
            with VideoStore(args.store) as store:
                store.integrity_check()
            print(f"ok       {args.store} (sqlite integrity_check)")
        except DatasetIOError as exc:
            failures += 1
            print(f"CORRUPT  {args.store}: {exc}", file=sys.stderr)

    if failures:
        print(f"{failures} artifact(s) failed verification", file=sys.stderr)
        return 1
    return 0


_COMMANDS = {
    "crawl": _cmd_crawl,
    "stats": _cmd_stats,
    "topvideo": _cmd_topvideo,
    "tag": _cmd_tag,
    "toptags": _cmd_toptags,
    "classify": _cmd_classify,
    "country": _cmd_country,
    "plot": _cmd_plot,
    "audit": _cmd_audit,
    "regions": _cmd_regions,
    "cooccur": _cmd_cooccur,
    "genworld": _cmd_genworld,
    "validate": _cmd_validate,
    "demo": _cmd_demo,
    "ingest-deltas": _cmd_ingest_deltas,
    "trend": _cmd_trend,
    "resume": _cmd_resume,
    "verify": _cmd_verify,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
