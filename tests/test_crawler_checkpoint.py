"""Checkpoint/resume tests: a resumed crawl equals an uninterrupted one."""

import pytest

from repro.api.quota import QuotaBudget
from repro.api.service import YoutubeService
from repro.crawler.checkpoint import CrawlCheckpoint
from repro.crawler.snowball import SnowballCrawler
from repro.durability.artifacts import checksum_path
from repro.durability.fsfaults import FaultyFilesystem
from repro.errors import CheckpointError


def crawl_with_interruption(universe, stop_at, total):
    """Crawl to ``stop_at``, checkpoint, resume, finish to ``total``."""
    service = YoutubeService(universe)
    first = SnowballCrawler(service, max_videos=stop_at)
    first.run()
    checkpoint = first.checkpoint()
    resumed = SnowballCrawler.resume(
        YoutubeService(universe), checkpoint, max_videos=total
    )
    return resumed.run()


class TestResumeEquivalence:
    @pytest.mark.parametrize("stop_at", [1, 10, 37, 80])
    def test_resume_equals_uninterrupted(self, tiny_universe, stop_at):
        uninterrupted = SnowballCrawler(
            YoutubeService(tiny_universe), max_videos=120
        ).run()
        resumed = crawl_with_interruption(tiny_universe, stop_at, 120)
        assert (
            resumed.dataset.video_ids() == uninterrupted.dataset.video_ids()
        )

    def test_stats_accumulate_across_resume(self, tiny_universe):
        result = crawl_with_interruption(tiny_universe, 20, 60)
        assert result.stats.fetched == 60


class TestStopFlagsAfterResume:
    """The stop flags describe the latest run; the counters accumulate."""

    def test_budget_flag_clears_when_the_resumed_crawl_drains(
        self, tiny_universe
    ):
        result = crawl_with_interruption(tiny_universe, 30, 10_000)
        assert len(result.dataset) < 10_000  # the frontier ran dry
        assert not result.stats.stopped_by_budget
        assert result.stats.fetched == len(result.dataset)

    def test_quota_flag_clears_when_resumed_on_an_unmetered_service(
        self, tiny_universe
    ):
        metered = YoutubeService(tiny_universe, quota=QuotaBudget(limit=150))
        first = SnowballCrawler(metered, max_videos=10_000)
        assert first.run().stats.stopped_by_quota
        resumed = SnowballCrawler.resume(
            YoutubeService(tiny_universe), first.checkpoint(), max_videos=80
        ).run()
        assert not resumed.stats.stopped_by_quota
        assert resumed.stats.stopped_by_budget


class TestCheckpointFile:
    def test_save_load_roundtrip(self, tiny_universe, tmp_path):
        service = YoutubeService(tiny_universe)
        crawler = SnowballCrawler(service, max_videos=25)
        crawler.run()
        checkpoint = crawler.checkpoint()
        path = tmp_path / "crawl.ckpt.json"
        checkpoint.save(path)
        loaded = CrawlCheckpoint.load(path)
        assert loaded.seeded == checkpoint.seeded
        assert loaded.pending == checkpoint.pending
        assert loaded.admitted == checkpoint.admitted
        assert loaded.videos == checkpoint.videos
        assert loaded.stats.to_dict() == checkpoint.stats.to_dict()

    def test_resume_from_file(self, tiny_universe, tmp_path):
        service = YoutubeService(tiny_universe)
        crawler = SnowballCrawler(service, max_videos=25)
        crawler.run()
        path = tmp_path / "crawl.ckpt.json"
        crawler.checkpoint().save(path)
        resumed = SnowballCrawler.resume(
            YoutubeService(tiny_universe),
            CrawlCheckpoint.load(path),
            max_videos=50,
        )
        result = resumed.run()
        assert len(result.dataset) == 50

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken", encoding="utf-8")
        with pytest.raises(CheckpointError):
            CrawlCheckpoint.load(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "v99.json"
        path.write_text('{"version": 99}', encoding="utf-8")
        with pytest.raises(CheckpointError):
            CrawlCheckpoint.load(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            CrawlCheckpoint.load(tmp_path / "absent.json")

    def test_inconsistent_frontier_rejected(self):
        checkpoint = CrawlCheckpoint(
            pending=[("AAAAAAAAAAA", 0)],
            admitted=[],
            videos=[],
            stats=__import__(
                "repro.crawler.stats", fromlist=["CrawlStats"]
            ).CrawlStats(),
            seeded=True,
        )
        with pytest.raises(CheckpointError):
            checkpoint.restore_frontier()

    def test_atomic_write_leaves_no_tmp(self, tiny_universe, tmp_path):
        service = YoutubeService(tiny_universe)
        crawler = SnowballCrawler(service, max_videos=5)
        crawler.run()
        path = tmp_path / "crawl.ckpt.json"
        crawler.checkpoint().save(path)
        assert path.exists()
        assert not list(tmp_path.glob("*.tmp"))


class TestCheckpointDurability:
    @pytest.fixture()
    def checkpoint(self, tiny_universe):
        crawler = SnowballCrawler(YoutubeService(tiny_universe), max_videos=5)
        crawler.run()
        return crawler.checkpoint()

    def test_save_writes_integrity_sidecar(self, checkpoint, tmp_path):
        path = tmp_path / "crawl.ckpt.json"
        checkpoint.save(path)
        assert checksum_path(path).exists()
        assert CrawlCheckpoint.load(path).videos == checkpoint.videos

    def test_failed_save_preserves_previous_checkpoint(
        self, checkpoint, tmp_path
    ):
        path = tmp_path / "crawl.ckpt.json"
        checkpoint.save(path)
        good_bytes = path.read_bytes()
        # Every write hits ENOSPC: the save must fail loudly...
        enospc = FaultyFilesystem(seed=0, fault_rate=0.99, kinds=("enospc",))
        with pytest.raises(CheckpointError):
            checkpoint.save(path, fs=enospc)
        # ...while the old checkpoint and its sidecar stay intact,
        # and no temp file leaks.
        assert path.read_bytes() == good_bytes
        assert not list(tmp_path.glob("*.tmp"))
        assert CrawlCheckpoint.load(path).seeded == checkpoint.seeded

    def test_bit_flip_detected_on_load(self, checkpoint, tmp_path):
        path = tmp_path / "crawl.ckpt.json"
        checkpoint.save(path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 3] ^= 0x10
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="corrupt"):
            CrawlCheckpoint.load(path)

    def test_truncation_at_every_offset_never_loads_partial_state(
        self, checkpoint, tmp_path
    ):
        """Satellite: a checksummed checkpoint cut at ANY byte offset is
        refused outright — with a sidecar there is no 'previous durable
        state' inside one file, so every truncation must raise."""
        path = tmp_path / "crawl.ckpt.json"
        checkpoint.save(path)
        good_bytes = path.read_bytes()
        target = tmp_path / "cut.ckpt.json"
        sidecar = checksum_path(target)
        sidecar.write_bytes(checksum_path(path).read_bytes())
        for cut in range(len(good_bytes)):
            target.write_bytes(good_bytes[:cut])
            with pytest.raises(CheckpointError):
                CrawlCheckpoint.load(target)
        # The untruncated bytes still load.
        target.write_bytes(good_bytes)
        assert CrawlCheckpoint.load(target).videos == checkpoint.videos

    def test_sidecarless_legacy_checkpoint_still_loads(
        self, checkpoint, tmp_path
    ):
        path = tmp_path / "old.ckpt.json"
        checkpoint.save(path)
        checksum_path(path).unlink()
        assert CrawlCheckpoint.load(path).seeded == checkpoint.seeded
