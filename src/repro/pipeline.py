"""End-to-end pipeline: generate → crawl → filter → reconstruct → analyze.

One call reproduces the paper's whole data path on a synthetic universe.
Benchmarks and examples build on this instead of re-wiring the
subsystems by hand.

:func:`run_pipeline` runs the four :data:`PIPELINE_STAGES` through one
stage loop. Each stage is written once, as compute / save / load, and
the loop keeps what it produces in a sink:

- **no workdir** (``workdir=None``): the null sink. No stage is ever
  intact and nothing is written — not even a crawl journal, unless the
  crawl is distributed (its supervisor then works in a temporary
  directory);
- **a workdir** (``workdir=<dir>``): every stage writes an
  integrity-checksummed artifact and records completion in a stage
  manifest, and the crawl stage journals its progress through a
  :class:`~repro.durability.journal.CheckpointJournal`. Re-running with
  the same workdir skips completed stages (loading their artifacts),
  resumes a half-finished crawl from the journal, and quarantines +
  recomputes any artifact that fails verification. Because each stage is
  deterministic given the config, a recomputed stage reproduces exactly
  what the lost artifact held.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, TypeVar, Union

from repro.api.faults import FaultInjector
from repro.api.quota import QuotaBudget, UNLIMITED
from repro.api.service import YoutubeService
from repro.crawler.snowball import CrawlResult, SnowballCrawler
from repro.crawler.stats import CrawlStats
from repro.datamodel.dataset import Dataset, FilterReport
from repro.datamodel.io import read_videos_jsonl, write_videos_jsonl
from repro.durability import artifacts
from repro.durability.fsfaults import Filesystem
from repro.durability.journal import CheckpointJournal
from repro.engine.columnar import ColumnarDataset, build_columnar
from repro.engine.store import META_NAME, STORE_FILES, open_store, save_store
from repro.errors import ConfigError, DatasetIOError, ReproError
from repro.reconstruct.tagviews import TagViewsTable
from repro.reconstruct.views import ViewReconstructor
from repro.synth.io import load_universe, save_universe
from repro.synth.presets import preset_config
from repro.synth.universe import Universe, UniverseConfig, build_universe
from repro.world.countries import SEED_COUNTRIES, CountryRegistry

PathLike = Union[str, Path]
T = TypeVar("T")

#: Stage names in execution order.
PIPELINE_STAGES = ("universe", "crawl", "filter", "reconstruct")

#: Workdir subdirectory holding the reconstruct stage's columnar store
#: (:mod:`repro.engine.store`).
STORE_DIR = "columnar"

#: The artifacts each stage owns inside a workdir, file by file.
STAGE_ARTIFACTS: Dict[str, Tuple[str, ...]] = {
    "universe": ("universe.json.gz",),
    "crawl": ("crawl.jsonl", "crawl_stats.json"),
    "filter": ("dataset.jsonl", "filter_report.json"),
    "reconstruct": ("tag_views.json",)
    + tuple(f"{STORE_DIR}/{name}" for name in STORE_FILES),
}

MANIFEST_NAME = "manifest.json"
_MANIFEST_FORMAT = "repro-pipeline-manifest"
_MANIFEST_VERSION = 1

#: Filtered-dataset size from which the reconstruct stage goes
#: out-of-core on its own: Eq. (3) aggregates through the streaming
#: kernels, and a resumed run memory-maps the stored arrays instead of
#: reading them into RAM. Output is bit-identical to the dense float64
#: path either way.
OUT_OF_CORE_VIDEOS = 200_000


@dataclass(frozen=True)
class PipelineConfig:
    """Configuration of a full pipeline run.

    Attributes:
        universe: Universe knobs; defaults to the ``small`` preset.
        crawl_budget: Maximum videos the crawl records; ``None`` means
            "the whole universe" (paper-style exhaustive snowball).
        fault_rate: Simulated-API transient-failure probability.
        quota_limit: API quota units (``inf`` = unmetered).
        seeds_per_country: Crawl seeds per country (paper: 10).
        seed_countries: Seed countries (paper: 25).
        checkpoint_every: Crawl journal cadence (videos per durable
            batch); only used when running with a ``workdir``.
        workers: Crawl worker processes. ``1`` (default) keeps the
            single-process journaling crawler; ``>1`` serves the
            simulated API over TCP and shards the frontier across a
            :class:`~repro.crawler.distributed.DistributedCrawlSupervisor`.
    """

    universe: UniverseConfig = field(
        default_factory=lambda: preset_config("small")
    )
    crawl_budget: Optional[int] = None
    fault_rate: float = 0.0
    quota_limit: float = UNLIMITED
    seeds_per_country: int = 10
    seed_countries: tuple = SEED_COUNTRIES
    checkpoint_every: int = 50
    workers: int = 1


@dataclass
class PipelineResult:
    """Everything a pipeline run produces.

    Attributes:
        universe: The generated world (holds ground truth).
        service: The simulated API that was crawled.
        crawl: Raw crawl output (unfiltered dataset + stats).
        dataset: The filtered dataset (paper's §2 funnel applied).
        filter_report: The funnel counters.
        reconstructor: The Eq. (1)–(2) estimator bound to the universe's
            traffic model.
        tag_table: The Eq. (3) ``views(t)`` table over ``dataset``.
        stages_skipped: Stage names satisfied from intact workdir
            artifacts instead of recomputation (empty without a
            workdir).
        quarantined: Corrupt artifact paths moved aside as
            ``*.quarantined`` during this run (empty without a workdir).
    """

    universe: Universe
    service: YoutubeService
    crawl: CrawlResult
    dataset: Dataset
    filter_report: FilterReport
    reconstructor: ViewReconstructor
    tag_table: TagViewsTable
    stages_skipped: Tuple[str, ...] = ()
    quarantined: Tuple[str, ...] = ()


def config_fingerprint(config: PipelineConfig) -> str:
    """Stable digest of everything that determines pipeline output.

    A workdir is bound to one fingerprint; resuming it under a different
    config would silently mix incompatible artifacts, so it is an error.
    """
    u = config.universe
    payload = {
        "universe": {
            "n_videos": u.n_videos,
            "n_tags": u.n_tags,
            "seed": u.seed,
            "zipf_exponent": u.zipf_exponent,
            "mean_tags": u.mean_tags,
            "p_no_tags": u.p_no_tags,
            "p_missing_map": u.p_missing_map,
            "views_lognormal_mu": u.views_lognormal_mu,
            "views_lognormal_sigma": u.views_lognormal_sigma,
            "tag_coupling": u.tag_coupling,
            "tag_coherence": u.tag_coherence,
            "audience_effect": u.audience_effect,
            "related_count": u.related_count,
            "p_local_edge": u.p_local_edge,
            "preferential_exponent": u.preferential_exponent,
            "global_dirichlet": u.global_dirichlet,
        },
        "crawl_budget": config.crawl_budget,
        "fault_rate": config.fault_rate,
        "quota_limit": (
            "inf" if config.quota_limit == UNLIMITED else config.quota_limit
        ),
        "seeds_per_country": config.seeds_per_country,
        "seed_countries": list(config.seed_countries),
    }
    if config.workers != 1:
        # Only stamped when distributed, so single-process workdirs
        # created before the knob existed keep their fingerprint.
        payload["workers"] = config.workers
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


class _NullSink:
    """Where a run without a workdir keeps its stages: nowhere.

    No stage is ever intact and committing a stage writes nothing.
    :meth:`run_stage` is the stage loop both sinks share.
    """

    root: Optional[Path] = None
    fs: Optional[Filesystem] = None

    def __init__(self) -> None:
        self.skipped: List[str] = []
        self.quarantined: List[Path] = []

    def stage_intact(self, stage: str) -> bool:
        return False

    def commit(self, stage: str, save: Callable[[T], None], value: T) -> None:
        """Persist a computed stage's value (a null sink keeps nothing)."""

    def run_stage(
        self,
        stage: str,
        compute: Callable[[], T],
        save: Callable[[T], None],
        load: Callable[[], Optional[T]],
    ) -> T:
        """One stage: load it from intact artifacts, or compute + commit.

        ``load`` returns ``None`` for artifacts that verify but do not
        load; the stage is then recomputed.
        """
        if self.stage_intact(stage):
            value = load()
            if value is not None:
                self.skipped.append(stage)
                return value
        value = compute()
        self.commit(stage, save, value)
        return value


class _Workdir(_NullSink):
    """Stage manifest + artifact bookkeeping for a resumable run."""

    def __init__(
        self, root: PathLike, fingerprint: str, fs: Optional[Filesystem]
    ):
        super().__init__()
        self.root = Path(root)
        self.fingerprint = fingerprint
        self.fs = fs
        self.root.mkdir(parents=True, exist_ok=True)
        self.stages: Dict[str, bool] = {name: False for name in PIPELINE_STAGES}
        self._load_manifest()

    # -- manifest ----------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    def _load_manifest(self) -> None:
        path = self.manifest_path
        if not path.exists():
            return
        bad = artifacts.verify_or_quarantine(path, fs=self.fs)
        if bad is not None:
            # Corrupt/unverifiable manifest: forget completion state and
            # let artifact verification decide stage by stage.
            if bad != path:
                self.quarantined.append(bad)
            return
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise DatasetIOError(f"cannot read {path}: {exc}") from exc
        if data.get("format") != _MANIFEST_FORMAT:
            raise DatasetIOError(f"{path} is not a pipeline manifest")
        recorded = data.get("fingerprint")
        if recorded != self.fingerprint:
            raise ConfigError(
                f"workdir {self.root} belongs to a different pipeline config "
                f"(manifest fingerprint {str(recorded)[:16]}..., current "
                f"{self.fingerprint[:16]}...); use a fresh workdir or the "
                "original config"
            )
        for name, done in data.get("stages", {}).items():
            if name in self.stages:
                self.stages[name] = bool(done)

    def save_manifest(self) -> None:
        data = {
            "format": _MANIFEST_FORMAT,
            "version": _MANIFEST_VERSION,
            "fingerprint": self.fingerprint,
            "stages": dict(self.stages),
        }
        artifacts.atomic_write_text(
            self.manifest_path,
            json.dumps(data, indent=2, sort_keys=True),
            fs=self.fs,
            checksum=True,
        )

    def commit(self, stage: str, save: Callable[[T], None], value: T) -> None:
        """Write the stage's artifacts, then record it done."""
        save(value)
        self.stages[stage] = True
        self.save_manifest()

    # -- artifacts ----------------------------------------------------------

    def path(self, name: str) -> Path:
        return self.root / name

    def stage_intact(self, stage: str) -> bool:
        """True when the stage is recorded done and every artifact
        verifies; quarantines anything corrupt (forcing a recompute)."""
        if not self.stages.get(stage, False):
            return False
        intact = True
        for name in STAGE_ARTIFACTS[stage]:
            bad = artifacts.verify_or_quarantine(self.path(name), fs=self.fs)
            if bad is not None:
                intact = False
                if bad != self.path(name):
                    self.quarantined.append(bad)
        return intact

    def write_json(
        self, name: str, data: dict, indent: Optional[int] = 2
    ) -> None:
        artifacts.atomic_write_text(
            self.path(name),
            json.dumps(data, indent=indent, sort_keys=True),
            fs=self.fs,
            checksum=True,
        )

    def read_json(self, name: str) -> dict:
        return json.loads(self.path(name).read_text(encoding="utf-8"))

    def write_videos(self, name: str, videos: Dataset) -> None:
        path = self.path(name)
        write_videos_jsonl(iter(videos), path)
        artifacts.persist_file(path, fs=self.fs)

    def read_videos(self, name: str, registry: CountryRegistry) -> Dataset:
        return Dataset(read_videos_jsonl(self.path(name), registry), registry)


def run_pipeline(
    config: Optional[PipelineConfig] = None,
    workdir: Optional[PathLike] = None,
    fs: Optional[Filesystem] = None,
) -> PipelineResult:
    """Run the full paper pipeline; deterministic given the config.

    Args:
        config: Pipeline knobs (defaults to the ``small`` preset).
        workdir: Directory for stage artifacts, the crawl journal and
            the stage manifest. When given, the run is crash-safe and
            resumable: completed stages are skipped, a half-finished
            crawl continues from its journal, and corrupt artifacts are
            quarantined and recomputed.
        fs: Filesystem facade for durability I/O (fault injection);
            defaults to the real filesystem.

    Raises:
        ConfigError: ``workdir`` holds state from a different config.
    """
    if config is None:
        config = PipelineConfig()
    sink = (
        _NullSink()
        if workdir is None
        else _Workdir(workdir, config_fingerprint(config), fs)
    )

    universe = sink.run_stage(
        "universe",
        compute=lambda: build_universe(config.universe),
        save=lambda value: _save_universe(sink, value),
        load=lambda: load_universe(sink.path("universe.json.gz")),
    )
    registry = universe.registry
    service = YoutubeService(
        universe,
        quota=QuotaBudget(config.quota_limit),
        faults=FaultInjector(
            rate=config.fault_rate, seed=config.universe.seed
        ),
    )

    crawl = sink.run_stage(
        "crawl",
        compute=lambda: _crawl(config, service, len(universe), sink),
        save=lambda value: _save_crawl(sink, value),
        load=lambda: CrawlResult(
            sink.read_videos("crawl.jsonl", registry),
            CrawlStats.from_dict(sink.read_json("crawl_stats.json")),
        ),
    )

    dataset, filter_report = sink.run_stage(
        "filter",
        compute=crawl.dataset.apply_paper_filter,
        save=lambda value: _save_filter(sink, *value),
        load=lambda: (
            sink.read_videos("dataset.jsonl", registry),
            FilterReport(**sink.read_json("filter_report.json")),
        ),
    )

    # The estimator is always rebuilt: it is a view over the traffic
    # model, not stored state. The stage's value is the columnar form
    # and its Eq. (3) table; an intact store lets a resumed run skip
    # re-vectorizing the dataset entirely.
    reconstructor = ViewReconstructor(universe.traffic)
    out_of_core = len(dataset) >= OUT_OF_CORE_VIDEOS

    def tabulate(columnar: ColumnarDataset):
        return columnar, TagViewsTable.from_columnar(
            columnar, reconstructor, streaming=out_of_core
        )

    def load_reconstruct():
        store = sink.path(STORE_DIR)
        try:
            # stage_intact has already checked every sidecar.
            columnar = open_store(
                store, registry, fs=sink.fs, verify=False, mmap=out_of_core
            )
        except ReproError:
            # Checksum-valid but unloadable (e.g. another store format):
            # quarantine its metadata and recompute the stage.
            meta = artifacts.quarantine(store / META_NAME, fs=sink.fs)
            sink.quarantined.append(meta)
            return None
        return tabulate(columnar)

    _, tag_table = sink.run_stage(
        "reconstruct",
        compute=lambda: tabulate(build_columnar(dataset, registry)),
        save=lambda value: _save_reconstruct(sink, *value),
        load=load_reconstruct,
    )

    return PipelineResult(
        universe=universe,
        service=service,
        crawl=crawl,
        dataset=dataset,
        filter_report=filter_report,
        reconstructor=reconstructor,
        tag_table=tag_table,
        stages_skipped=tuple(sink.skipped),
        quarantined=tuple(str(p) for p in sink.quarantined),
    )


def _save_universe(wd: _Workdir, universe: Universe) -> None:
    path = wd.path("universe.json.gz")
    save_universe(universe, path)
    artifacts.persist_file(path, fs=wd.fs)


def _crawl(
    config: PipelineConfig,
    service: YoutubeService,
    universe_size: int,
    sink: _NullSink,
) -> CrawlResult:
    """The crawl stage's compute: journaled inside a workdir, plain
    without one, and supervised across processes for ``workers > 1``."""
    max_videos = (
        config.crawl_budget
        if config.crawl_budget is not None
        else universe_size
    )
    if config.workers > 1:
        return _run_distributed_crawl(config, service, max_videos, sink)
    crawl_kwargs = dict(
        seed_countries=config.seed_countries,
        seeds_per_country=config.seeds_per_country,
        max_videos=max_videos,
    )
    if sink.root is None:
        return SnowballCrawler(service, **crawl_kwargs).run()
    journal = CheckpointJournal(sink.root / "journal", fs=sink.fs)
    try:
        crawler = SnowballCrawler.resume_from_journal(
            service,
            journal,
            checkpoint_every=config.checkpoint_every,
            **crawl_kwargs,
        )
        return crawler.run()
    finally:
        sink.quarantined.extend(journal.quarantined)
        journal.close()


def _run_distributed_crawl(
    config: PipelineConfig,
    service: YoutubeService,
    max_videos: int,
    sink: _NullSink,
) -> CrawlResult:
    """Crawl stage for ``workers > 1``: serve the API over TCP and
    shard the frontier across supervised worker processes. The
    supervisor's store and journals live in the workdir, or in a
    temporary directory for a run without one."""
    from repro.api.transport import YoutubeAPIServer
    from repro.crawler.distributed import DistributedCrawlSupervisor

    crawl_dir = (
        tempfile.TemporaryDirectory(prefix="repro-crawl-")
        if sink.root is None
        else contextlib.nullcontext(sink.root)
    )
    with crawl_dir as root, YoutubeAPIServer(service) as server:
        supervisor = DistributedCrawlSupervisor(
            server.host,
            server.port,
            store_path=str(Path(root) / "crawl.db"),
            workdir=str(Path(root) / "journal"),
            workers=config.workers,
            seed_countries=config.seed_countries,
            seeds_per_country=config.seeds_per_country,
            max_videos=max_videos,
            quota_limit=config.quota_limit,
            checkpoint_every=max(1, min(config.checkpoint_every, 25)),
        )
        with supervisor:
            crawl = supervisor.run()
            sink.quarantined.extend(supervisor.journal.quarantined)
            return crawl


def _save_crawl(wd: _Workdir, crawl: CrawlResult) -> None:
    wd.write_videos("crawl.jsonl", crawl.dataset)
    wd.write_json("crawl_stats.json", crawl.stats.to_dict())


def _save_filter(wd: _Workdir, dataset: Dataset, report: FilterReport) -> None:
    wd.write_videos("dataset.jsonl", dataset)
    wd.write_json("filter_report.json", asdict(report))


def _save_reconstruct(
    wd: _Workdir, columnar: ColumnarDataset, tag_table: TagViewsTable
) -> None:
    save_store(columnar, wd.path(STORE_DIR), fs=wd.fs)
    summary = {
        "tags": len(tag_table),
        "views": dict(zip(tag_table.tags(), tag_table.totals().tolist())),
    }
    wd.write_json("tag_views.json", summary, indent=None)


# --------------------------------------------------------------------------
# Temporal ingest: the incremental engine driven by a synthetic delta stream
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TemporalIngestConfig:
    """Configuration for :func:`run_temporal_ingest`.

    Args:
        preset: A :data:`~repro.synth.temporal.TEMPORAL_PRESETS` name
            (``tiny-temporal`` / ``small-temporal`` / ``medium-temporal``).
        n_steps: Override the preset's horizon (steps = delta batches).
        track_metrics: Maintain the per-row metric surfaces too.
        eager_degree_limit: Forwarded to
            :class:`~repro.engine.incremental.IncrementalEngine`
            (``"default"`` keeps the engine default).
        half_life: Trending half-life in seconds (default: four stream
            steps — trending reacts within a handful of batches).
        verify_oracle: After ingest, cold-rebuild the cumulative
            snapshot and record whether the tag-views table is
            bit-identical (costs one full rebuild).
    """

    preset: str = "small-temporal"
    n_steps: Optional[int] = None
    track_metrics: bool = False
    eager_degree_limit: Union[int, None, str] = "default"
    half_life: Optional[float] = None
    verify_oracle: bool = False


@dataclass
class TemporalIngestResult:
    """What :func:`run_temporal_ingest` produced.

    ``engine`` and ``detector`` stay live: callers can keep feeding
    batches, query trending, or snapshot to a columnar dataset.
    """

    engine: "IncrementalEngine"
    detector: "TrendingDetector"
    batches: int
    deltas: int
    deltas_ignored: int
    new_videos: int
    new_videos_skipped: int
    n_tags: int
    elapsed_seconds: float
    oracle_identical: Optional[bool]

    @property
    def deltas_per_second(self) -> float:
        return self.deltas / self.elapsed_seconds if self.elapsed_seconds else 0.0


def run_temporal_ingest(config: TemporalIngestConfig) -> TemporalIngestResult:
    """Stream a temporal preset's delta batches through the incremental
    engine, tracking trending along the way.

    The online counterpart of :func:`run_pipeline`'s reconstruct stage:
    instead of materializing one static snapshot, the corpus *arrives*
    — videos appear mid-stream, view counts move along per-video
    trajectory classes — and the Eq. (1)–(3) surfaces are kept live in
    O(touched) per batch.
    """
    import time

    from repro.analysis.trending import TrendingDetector
    from repro.engine.incremental import IncrementalEngine, cold_rebuild
    from repro.synth.temporal import make_temporal, scaled_temporal

    if config.n_steps is not None:
        stream = scaled_temporal(config.preset, config.n_steps)
    else:
        stream = make_temporal(config.preset)
    kwargs = {}
    if config.eager_degree_limit != "default":
        kwargs["eager_degree_limit"] = config.eager_degree_limit
    engine = IncrementalEngine(track_metrics=config.track_metrics, **kwargs)
    half_life = (
        config.half_life
        if config.half_life is not None
        else 4.0 * stream.temporal.step_seconds
    )
    detector = TrendingDetector(engine, half_life=half_life)

    start = time.perf_counter()
    for batch in stream.iter_batches():
        detector.update(engine.apply(batch))
    engine.flush()
    elapsed = time.perf_counter() - start

    oracle_identical: Optional[bool] = None
    if config.verify_oracle:
        import numpy as np

        pop, views, indptr, names = stream.snapshot_eligible()
        oracle = cold_rebuild(
            pop, views, indptr, names, reconstructor=engine.reconstructor
        )
        oracle_identical = bool(
            engine.tags == oracle.tags
            and np.array_equal(engine.tag_views, oracle.tag_views)
        )

    return TemporalIngestResult(
        engine=engine,
        detector=detector,
        batches=engine.batches_applied,
        deltas=engine.deltas_applied,
        deltas_ignored=engine.deltas_ignored,
        new_videos=engine.n_videos,
        new_videos_skipped=engine.videos_skipped,
        n_tags=engine.n_tags,
        elapsed_seconds=elapsed,
        oracle_identical=oracle_identical,
    )
