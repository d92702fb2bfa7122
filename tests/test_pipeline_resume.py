"""Resumable pipeline tests: stage skipping, quarantine, crash recovery."""

import json
import shutil

import numpy as np
import pytest

from repro import pipeline
from repro.durability import artifacts
from repro.durability.fsfaults import FaultyFilesystem, SimulatedCrash
from repro.errors import ConfigError
from repro.pipeline import (
    MANIFEST_NAME,
    PIPELINE_STAGES,
    STAGE_ARTIFACTS,
    STORE_DIR,
    PipelineConfig,
    config_fingerprint,
    run_pipeline,
)
from repro.synth.presets import preset_config


@pytest.fixture(scope="module")
def config():
    return PipelineConfig(universe=preset_config("tiny"), checkpoint_every=25)


@pytest.fixture(scope="module")
def reference(config):
    """The in-memory run every resumable run must reproduce."""
    return run_pipeline(config)


def ids_of(result):
    return set(result.dataset.video_ids())


def assert_same_table(result, expected):
    assert result.tag_table.tags() == expected.tag_table.tags()
    assert np.array_equal(
        result.tag_table.views_matrix(), expected.tag_table.views_matrix()
    )


class TestResumableRun:
    def test_first_run_equals_in_memory(self, config, reference, tmp_path):
        result = run_pipeline(config, workdir=tmp_path)
        assert result.stages_skipped == ()
        assert result.quarantined == ()
        assert ids_of(result) == ids_of(reference)
        assert result.filter_report == reference.filter_report

    def test_artifacts_and_manifest_written(self, config, tmp_path):
        run_pipeline(config, workdir=tmp_path)
        names = {
            p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")
        }
        assert MANIFEST_NAME in names
        expected = (
            "universe.json.gz",
            "crawl.jsonl",
            "crawl_stats.json",
            "dataset.jsonl",
            "filter_report.json",
            "tag_views.json",
            "columnar/meta.json",
            "columnar/pop.bin",
            "columnar/views.bin",
            "columnar/video_ids.bin",
            "columnar/tags.bin",
            "columnar/indptr.bin",
            "columnar/indices.bin",
        )
        for artifact in expected:
            assert artifact in names
            assert artifact + ".sha256" in names
        # ``repro verify --workdir`` checks what STAGE_ARTIFACTS lists.
        listed = [
            name for stage in PIPELINE_STAGES for name in STAGE_ARTIFACTS[stage]
        ]
        assert sorted(listed) == sorted(expected)
        manifest = json.loads(
            (tmp_path / MANIFEST_NAME).read_text(encoding="utf-8")
        )
        assert all(manifest["stages"][stage] for stage in PIPELINE_STAGES)
        assert manifest["fingerprint"] == config_fingerprint(config)

    def test_second_run_skips_every_stage(self, config, reference, tmp_path):
        run_pipeline(config, workdir=tmp_path)
        rerun = run_pipeline(config, workdir=tmp_path)
        assert rerun.stages_skipped == PIPELINE_STAGES
        assert ids_of(rerun) == ids_of(reference)
        assert rerun.crawl.stats.fetched == reference.crawl.stats.fetched

    def test_corrupt_artifact_quarantined_and_recomputed(
        self, config, reference, tmp_path
    ):
        run_pipeline(config, workdir=tmp_path)
        target = tmp_path / "dataset.jsonl"
        blob = bytearray(target.read_bytes())
        blob[60] ^= 0x08
        target.write_bytes(bytes(blob))

        rerun = run_pipeline(config, workdir=tmp_path)
        assert "filter" not in rerun.stages_skipped
        assert "crawl" in rerun.stages_skipped  # upstream stages untouched
        assert any("dataset.jsonl.quarantined" in q for q in rerun.quarantined)
        assert ids_of(rerun) == ids_of(reference)
        # The recomputed artifact verifies again.
        final = run_pipeline(config, workdir=tmp_path)
        assert final.stages_skipped == PIPELINE_STAGES

    def test_resume_reuses_columnar_artifact(self, config, reference, tmp_path):
        """A resumed run opens the columnar store instead of
        re-vectorizing."""
        run_pipeline(config, workdir=tmp_path)
        store = sorted((tmp_path / STORE_DIR).iterdir())
        mtimes = [path.stat().st_mtime_ns for path in store]
        rerun = run_pipeline(config, workdir=tmp_path)
        assert "reconstruct" in rerun.stages_skipped
        # Store untouched — the run loaded it rather than rewriting it.
        assert sorted((tmp_path / STORE_DIR).iterdir()) == store
        assert [path.stat().st_mtime_ns for path in store] == mtimes
        assert_same_table(rerun, reference)

    def test_corrupt_columnar_quarantined_and_recomputed(
        self, config, reference, tmp_path
    ):
        run_pipeline(config, workdir=tmp_path)
        target = tmp_path / STORE_DIR / "pop.bin"
        blob = bytearray(target.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        target.write_bytes(bytes(blob))

        rerun = run_pipeline(config, workdir=tmp_path)
        assert "reconstruct" not in rerun.stages_skipped
        assert "crawl" in rerun.stages_skipped  # upstream stages untouched
        assert any("pop.bin.quarantined" in q for q in rerun.quarantined)
        assert_same_table(rerun, reference)
        # The recomputed artifact verifies (and is reused) again.
        final = run_pipeline(config, workdir=tmp_path)
        assert final.stages_skipped == PIPELINE_STAGES

    def test_foreign_store_format_quarantined_and_recomputed(
        self, config, reference, tmp_path
    ):
        """A store that passes its checksums but does not load (here:
        metadata of another format) is quarantined and recomputed."""
        run_pipeline(config, workdir=tmp_path)
        meta = tmp_path / STORE_DIR / "meta.json"
        data = json.loads(meta.read_text(encoding="utf-8"))
        data["format"] = "some-other-store-v9"
        artifacts.atomic_write_text(meta, json.dumps(data), checksum=True)
        artifacts.verify_artifact(meta)

        rerun = run_pipeline(config, workdir=tmp_path)
        assert rerun.stages_skipped == ("universe", "crawl", "filter")
        assert any(
            q.endswith("meta.json.quarantined") for q in rerun.quarantined
        )
        assert_same_table(rerun, reference)
        final = run_pipeline(config, workdir=tmp_path)
        assert final.stages_skipped == PIPELINE_STAGES

    def test_workdir_without_store_recomputes_only_reconstruct(
        self, config, reference, tmp_path
    ):
        """A workdir whose reconstruct stage was kept in another format
        (so it has no ``columnar/`` store) resumes: only that stage
        runs again."""
        run_pipeline(config, workdir=tmp_path)
        shutil.rmtree(tmp_path / STORE_DIR)

        rerun = run_pipeline(config, workdir=tmp_path)
        assert rerun.stages_skipped == ("universe", "crawl", "filter")
        assert rerun.quarantined == ()
        assert_same_table(rerun, reference)

    def test_default_fingerprint_is_pinned(self):
        # Workdirs made by earlier releases must keep resuming.
        assert config_fingerprint(
            PipelineConfig(universe=preset_config("tiny"))
        ) == "43573626435676fe7df472eebfd170eaaa0450dd26409c1b240f43fc822f99b1"

    def test_fingerprint_mismatch_is_config_error(self, config, tmp_path):
        run_pipeline(config, workdir=tmp_path)
        other = PipelineConfig(
            universe=preset_config("tiny"), crawl_budget=10
        )
        assert config_fingerprint(other) != config_fingerprint(config)
        with pytest.raises(ConfigError, match="different pipeline config"):
            run_pipeline(other, workdir=tmp_path)

    def test_crash_mid_crawl_then_resume(self, config, reference, tmp_path):
        fs = FaultyFilesystem(seed=11, fault_rate=0.0, crash_at_op=12)
        with pytest.raises(SimulatedCrash):
            run_pipeline(config, workdir=tmp_path, fs=fs)
        assert fs.crashed

        resumed = run_pipeline(config, workdir=tmp_path)
        assert ids_of(resumed) == ids_of(reference)
        assert resumed.filter_report == reference.filter_report

    def test_in_memory_mode_unchanged(self, config, reference):
        result = run_pipeline(config)
        assert result.stages_skipped == ()
        assert ids_of(result) == ids_of(reference)


class TestOutOfCoreMode:
    """Above :data:`~repro.pipeline.OUT_OF_CORE_VIDEOS` the reconstruct
    stage streams Eq. (3) and a resume memory-maps the store: same
    table."""

    @pytest.fixture(autouse=True)
    def out_of_core(self, monkeypatch):
        monkeypatch.setattr(pipeline, "OUT_OF_CORE_VIDEOS", 1)

    def test_chunked_run_equals_default(self, config, reference, tmp_path):
        result = run_pipeline(config, workdir=tmp_path)
        assert ids_of(result) == ids_of(reference)
        # Bit-identical float64: streamed Eq. (3) is the same
        # arithmetic, not an approximation.
        assert_same_table(result, reference)

    def test_chunked_resume_skips_and_matches(self, config, tmp_path):
        first = run_pipeline(config, workdir=tmp_path)
        rerun = run_pipeline(config, workdir=tmp_path)
        assert rerun.stages_skipped == PIPELINE_STAGES
        assert_same_table(rerun, first)


@pytest.mark.parametrize(
    "out_of_core", [False, True], ids=["dense", "out-of-core"]
)
def test_memory_fresh_and_resumed_runs_agree(
    config, tmp_path, monkeypatch, out_of_core
):
    """One stage loop: a run without a workdir, a fresh workdir run and
    a resumed one give the same dataset, funnel and Eq. (3) table."""
    if out_of_core:
        monkeypatch.setattr(pipeline, "OUT_OF_CORE_VIDEOS", 1)
    in_memory = run_pipeline(config)
    fresh = run_pipeline(config, workdir=tmp_path)
    resumed = run_pipeline(config, workdir=tmp_path)
    assert fresh.stages_skipped == ()
    assert resumed.stages_skipped == PIPELINE_STAGES
    for result in (fresh, resumed):
        assert result.dataset.video_ids() == in_memory.dataset.video_ids()
        assert result.filter_report == in_memory.filter_report
        assert_same_table(result, in_memory)
    for result in (in_memory, fresh, resumed):
        assert all(type(tag) is str for tag in result.tag_table.tags())


@pytest.fixture(scope="module")
def reconstruct_ops(config, tmp_path_factory):
    """``(first, last)``: the mutating filesystem operations a fresh run
    spends in the reconstruct stage."""
    workdir = tmp_path_factory.mktemp("ops") / "run"
    fs = FaultyFilesystem()
    run_pipeline(config, workdir=workdir, fs=fs)
    total = fs.ops_performed
    # Without its store only the reconstruct stage runs again.
    shutil.rmtree(workdir / STORE_DIR)
    fs = FaultyFilesystem()
    run_pipeline(config, workdir=workdir, fs=fs)
    return total - fs.ops_performed + 1, total


class TestKilledInsideReconstruct:
    """A run killed anywhere in the reconstruct stage resumes to the
    bit-identical table."""

    def test_stage_costs_eight_ops_per_file(self, reconstruct_ops):
        # Each file is written, fsynced, renamed and its directory
        # fsynced, and so is its checksum sidecar. The manifest write
        # closes the stage.
        first, last = reconstruct_ops
        files = len(STAGE_ARTIFACTS["reconstruct"]) + 1
        assert last - first + 1 == 8 * files

    def test_resumes_bit_identical_at_sampled_cuts(
        self, config, reference, reconstruct_ops, tmp_path
    ):
        first, last = reconstruct_ops
        # A stride of 6 over 8-op files cuts every file of the stage —
        # each store array, meta.json, tag_views.json and the manifest —
        # and cuts some of them inside their commit. The full sweep is
        # every op from ``first`` to ``last``.
        cuts = sorted(set(range(first, last + 1, 6)) | {last})
        assert len(cuts) >= 12
        killed = tmp_path / "killed"
        with pytest.raises(SimulatedCrash):
            run_pipeline(
                config, workdir=killed, fs=FaultyFilesystem(crash_at_op=first)
            )
        for cut in cuts:
            # Loading the three finished stages takes no mutating op, so
            # op j of a rerun of the run killed at ``first`` is op
            # ``first + j - 1`` of a fresh run: each cut replays only the
            # reconstruct stage.
            workdir = tmp_path / f"cut-{cut}"
            shutil.copytree(killed, workdir)
            if cut > first:
                fs = FaultyFilesystem(crash_at_op=cut - first + 1)
                with pytest.raises(SimulatedCrash):
                    run_pipeline(config, workdir=workdir, fs=fs)
            resumed = run_pipeline(config, workdir=workdir)
            assert_same_table(resumed, reference)


class TestDistributedCrawlStage:
    """``workers > 1`` runs the supervised crawl inside the same loop."""

    def test_same_videos_and_funnel_as_one_worker(
        self, reference, tmp_path
    ):
        config = PipelineConfig(
            universe=preset_config("tiny"), checkpoint_every=25, workers=2
        )
        in_memory = run_pipeline(config)
        fresh = run_pipeline(config, workdir=tmp_path)
        rerun = run_pipeline(config, workdir=tmp_path)
        assert fresh.stages_skipped == ()
        assert rerun.stages_skipped == PIPELINE_STAGES
        for result in (in_memory, fresh, rerun):
            # Sets, not lists: the order follows worker timing.
            assert ids_of(result) == ids_of(reference)
            assert result.filter_report == reference.filter_report
