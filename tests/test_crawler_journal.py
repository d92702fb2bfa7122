"""Journaled crawling: crash/resume identity."""

import pytest

from repro.api.service import YoutubeService
from repro.crawler.snowball import SnowballCrawler
from repro.durability.fsfaults import FaultyFilesystem, SimulatedCrash
from repro.durability.journal import CheckpointJournal
from repro.errors import ConfigError


def records_of(result):
    return {v.video_id: v for v in result.dataset}


class TestJournaledSequentialCrawl:
    def test_journaling_does_not_change_the_crawl(self, tiny_universe, tmp_path):
        plain = SnowballCrawler(
            YoutubeService(tiny_universe), max_videos=60
        ).run()
        journaled = SnowballCrawler(
            YoutubeService(tiny_universe),
            max_videos=60,
            journal=CheckpointJournal(tmp_path),
            checkpoint_every=7,
        ).run()
        assert records_of(journaled) == records_of(plain)
        assert journaled.stats.checkpoints_written > 0

    def test_checkpoint_every_requires_journal(self, tiny_universe):
        with pytest.raises(ConfigError):
            SnowballCrawler(YoutubeService(tiny_universe), checkpoint_every=5)

    def test_checkpoint_every_must_be_positive(self, tiny_universe, tmp_path):
        with pytest.raises(ConfigError):
            SnowballCrawler(
                YoutubeService(tiny_universe),
                journal=CheckpointJournal(tmp_path),
                checkpoint_every=0,
            )

    def test_resume_from_empty_journal_is_fresh_crawl(
        self, tiny_universe, tmp_path
    ):
        crawler = SnowballCrawler.resume_from_journal(
            YoutubeService(tiny_universe),
            CheckpointJournal(tmp_path),
            max_videos=40,
        )
        result = crawler.run()
        assert len(result.dataset) == 40
        assert result.stats.journal_replays == 0

    # A 60-video crawl with checkpoint_every=7 and compact_every=4
    # performs 44 durability ops; the cut points span WAL creation,
    # mid-append, mid-compaction, and the final flush.
    @pytest.mark.parametrize("crash_at_op", [2, 9, 21, 33, 43])
    def test_crash_resume_identity(self, tiny_universe, tmp_path, crash_at_op):
        baseline = SnowballCrawler(
            YoutubeService(tiny_universe),
            max_videos=60,
            journal=CheckpointJournal(tmp_path / "baseline", compact_every=4),
            checkpoint_every=7,
        ).run()

        crash_dir = tmp_path / f"crash{crash_at_op}"
        fs = FaultyFilesystem(seed=1, crash_at_op=crash_at_op)
        with pytest.raises(SimulatedCrash):
            SnowballCrawler(
                YoutubeService(tiny_universe),
                max_videos=60,
                journal=CheckpointJournal(crash_dir, fs=fs, compact_every=4),
                checkpoint_every=7,
            ).run()
        assert fs.crashed

        resumed = SnowballCrawler.resume_from_journal(
            YoutubeService(tiny_universe),
            CheckpointJournal(crash_dir, compact_every=4),
            max_videos=60,
            checkpoint_every=7,
        ).run()
        assert records_of(resumed) == records_of(baseline)

    def test_resume_counts_replays(self, tiny_universe, tmp_path):
        SnowballCrawler(
            YoutubeService(tiny_universe),
            max_videos=30,
            journal=CheckpointJournal(tmp_path),
            checkpoint_every=5,
        ).run()
        resumed = SnowballCrawler.resume_from_journal(
            YoutubeService(tiny_universe),
            CheckpointJournal(tmp_path),
            max_videos=30,
        )
        assert resumed._stats.journal_replays == 1

    def test_recovery_quarantine_is_counted(self, tiny_universe, tmp_path):
        journal = CheckpointJournal(tmp_path)
        SnowballCrawler(
            YoutubeService(tiny_universe),
            max_videos=30,
            journal=journal,
            checkpoint_every=5,
        ).run()
        journal.close()
        blob = bytearray(journal.wal_path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        journal.wal_path.write_bytes(bytes(blob))
        resumed = SnowballCrawler.resume_from_journal(
            YoutubeService(tiny_universe),
            CheckpointJournal(tmp_path),
            max_videos=30,
        )
        assert resumed._stats.artifacts_quarantined > 0
        # Still completes correctly from whatever survived.
        result = resumed.run()
        assert len(result.dataset) == 30
