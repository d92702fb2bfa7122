"""Tests for the distributed multi-process crawl.

The load-bearing property (ISSUE 7's acceptance): a multi-worker crawl
through a faulty network with workers killed or hung mid-lease converges
to the **exact** video set — ids, tags, popularity, every field — of a
fault-free single-process crawl. At-least-once visiting + idempotent
store upserts + journal replay on reclaim = exactly-once collection.
"""

import itertools
import os

import pytest

from repro.api.chaos import ChaosProxy
from repro.api.service import YoutubeService
from repro.api.transport import YoutubeAPIServer
from repro.clock import ManualClock
from repro.crawler.checkpoint import CrawlCheckpoint
from repro.crawler.distributed import (
    DistributedCrawlSupervisor,
    merge_worker_checkpoints,
)
from repro.crawler.snowball import SnowballCrawler
from repro.crawler.stats import CrawlStats
from repro.datamodel.popularity import PopularityVector
from repro.datamodel.video import Video
from repro.durability.journal import CheckpointJournal
from repro.errors import CheckpointError, ConfigError
from repro.synth.universe import UniverseConfig, build_universe

#: Small enough for multi-run tests, big enough for depth > 1 BFS.
UNIVERSE = UniverseConfig(n_videos=120, n_tags=90, seed=2011)


@pytest.fixture(scope="module")
def universe():
    return build_universe(UNIVERSE)


@pytest.fixture(scope="module")
def baseline(universe):
    """Fault-free single-process exhaustive crawl — the ground truth."""
    crawl = SnowballCrawler(
        YoutubeService(universe), max_videos=1_000
    ).run()
    return {video.video_id: video for video in crawl.dataset}


@pytest.fixture()
def server(universe):
    with YoutubeAPIServer(YoutubeService(universe)) as running:
        yield running


def records(result):
    return {video.video_id: video for video in result.dataset}


def supervisor_paths(tmp_path):
    return str(tmp_path / "crawl.db"), str(tmp_path / "journals")


class TestCleanRun:
    def test_matches_single_process_exactly(self, server, baseline, tmp_path):
        store, workdir = supervisor_paths(tmp_path)
        with DistributedCrawlSupervisor(
            server.host,
            server.port,
            store_path=store,
            workdir=workdir,
            workers=2,
            max_videos=1_000,
        ) as supervisor:
            result = supervisor.run()
        assert records(result) == baseline
        assert result.stats.workers_spawned == 2
        assert result.stats.workers_restarted == 0
        assert result.stats.leases_revoked == 0
        assert result.stats.fetched == len(result.dataset)

    def test_memory_store_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="on-disk"):
            DistributedCrawlSupervisor(
                "127.0.0.1",
                1,
                store_path=":memory:",
                workdir=str(tmp_path / "journals"),
            )


class TestKillTolerance:
    def test_exactly_once_under_chaos_and_kills(
        self, server, baseline, tmp_path
    ):
        """The acceptance property: 4 workers through a 12%-fault proxy,
        three of them killed mid-lease, still collect the identical
        video set (every field) as the fault-free single-process run."""
        store, workdir = supervisor_paths(tmp_path)
        with ChaosProxy(
            server.host,
            server.port,
            fault_rate=0.12,
            seed=7,
            burst_length=3,
            latency_seconds=0.0,
        ) as proxy:
            with DistributedCrawlSupervisor(
                proxy.host,
                proxy.port,
                store_path=store,
                workdir=workdir,
                workers=4,
                max_videos=1_000,
                kill_plan={0: 4, 1: 9, 2: 14},
            ) as supervisor:
                result = supervisor.run()
        assert records(result) == baseline
        assert result.stats.workers_restarted >= 3
        assert result.stats.leases_revoked >= 3
        assert result.stats.shards_requeued >= 1
        assert result.stats.journal_replays >= 3
        assert result.stats.fetched == len(result.dataset)

    def test_hung_worker_lease_revoked_and_work_requeued(
        self, server, baseline, tmp_path
    ):
        """A worker that goes silent (no heartbeats) but stays alive is
        detected purely via lease expiry on the injected clock."""
        store, workdir = supervisor_paths(tmp_path)
        clock = ManualClock()
        with DistributedCrawlSupervisor(
            server.host,
            server.port,
            store_path=store,
            workdir=workdir,
            workers=2,
            max_videos=1_000,
            hang_plan={0: 3},
            lease_timeout=5.0,
            clock=clock,
            tick_hook=lambda: clock.advance(0.25),
        ) as supervisor:
            result = supervisor.run()
        assert records(result) == baseline
        assert result.stats.leases_revoked >= 1
        assert result.stats.workers_restarted >= 1


class TestStops:
    def test_budget_stop(self, server, tmp_path):
        store, workdir = supervisor_paths(tmp_path)
        with DistributedCrawlSupervisor(
            server.host,
            server.port,
            store_path=store,
            workdir=workdir,
            workers=2,
            max_videos=30,
        ) as supervisor:
            result = supervisor.run()
        assert result.stats.stopped_by_budget
        assert len(result.dataset) >= 30

    def test_quota_backpressure_stops_granting(self, server, tmp_path):
        # Seeding costs 25 countries x 3 units = 75; each 8-entry shard
        # is estimated at 8 x (1 + 2x3) = 56. The supervisor must stop
        # granting once a whole shard may not fit, instead of letting
        # workers hit the quota wall mid-flight.
        store, workdir = supervisor_paths(tmp_path)
        with DistributedCrawlSupervisor(
            server.host,
            server.port,
            store_path=store,
            workdir=workdir,
            workers=2,
            max_videos=1_000,
            quota_limit=200,
        ) as supervisor:
            result = supervisor.run()
        assert result.stats.stopped_by_quota
        assert len(result.dataset) < 105  # did not finish the crawl


class TestResume:
    def test_second_run_completes_from_supervisor_journal(
        self, server, baseline, tmp_path
    ):
        """A budget-stopped run leaves a durable snapshot; a second
        supervisor over the same workdir + store finishes the crawl and
        converges to the same set as an uninterrupted run."""
        store, workdir = supervisor_paths(tmp_path)
        with DistributedCrawlSupervisor(
            server.host,
            server.port,
            store_path=store,
            workdir=workdir,
            workers=2,
            max_videos=40,
        ) as first:
            partial = first.run()
        assert partial.stats.stopped_by_budget
        assert len(partial.dataset) < len(baseline)

        with DistributedCrawlSupervisor(
            server.host,
            server.port,
            store_path=store,
            workdir=workdir,
            workers=2,
            max_videos=1_000,
        ) as second:
            result = second.run()
        assert records(result) == baseline
        assert result.stats.journal_replays >= 1
        assert not result.stats.stopped_by_budget  # the frontier ran dry

    def test_stop_flags_restored_from_the_journal_are_cleared(self, tmp_path):
        """A journal snapshot of a run that stopped on its budget and the
        quota, with nothing left to crawl: the resumed run stopped on
        neither, and it needs no server to say so."""
        store, workdir = supervisor_paths(tmp_path)
        stats = CrawlStats()
        stats.stopped_by_budget = stats.stopped_by_quota = True
        journal = CheckpointJournal(os.path.join(workdir, "supervisor"))
        journal.write_snapshot(
            CrawlCheckpoint(
                pending=[], admitted=[], videos=[], stats=stats, seeded=True
            )
        )
        journal.close()
        with DistributedCrawlSupervisor(
            "127.0.0.1", 1, store_path=store, workdir=workdir
        ) as supervisor:
            result = supervisor.run()
        assert result.stats.journal_replays == 1
        assert result.stats.workers_spawned == 0
        assert not result.stats.stopped_by_budget
        assert not result.stats.stopped_by_quota

    def test_resume_with_kills_still_exact(self, server, baseline, tmp_path):
        """Kills in the first run + resume in a second run compose."""
        store, workdir = supervisor_paths(tmp_path)
        with DistributedCrawlSupervisor(
            server.host,
            server.port,
            store_path=store,
            workdir=workdir,
            workers=2,
            max_videos=60,
            kill_plan={0: 5},
        ) as first:
            first.run()
        with DistributedCrawlSupervisor(
            server.host,
            server.port,
            store_path=store,
            workdir=workdir,
            workers=2,
            max_videos=1_000,
        ) as second:
            result = second.run()
        assert records(result) == baseline


def video(video_id, views=100, tags=("music",), related=()):
    return Video(
        video_id=video_id,
        title="t",
        uploader="u",
        upload_date="2010-01-01",
        views=views,
        tags=tags,
        popularity=PopularityVector({"US": 61}),
        related_ids=tuple(related),
    )


def checkpoint(pending=(), admitted=(), videos=(), fetched=0, seeded=True):
    stats = CrawlStats()
    stats.fetched = fetched
    return CrawlCheckpoint(
        pending=list(pending),
        admitted=list(admitted),
        videos=list(videos),
        stats=stats,
        seeded=seeded,
    )


class TestMergeWorkerCheckpoints:
    def test_merge_is_order_independent(self):
        checkpoints = [
            checkpoint(
                pending=[("AAAAAAAAAAc", 2)],
                admitted=["AAAAAAAAAAa", "AAAAAAAAAAc"],
                videos=[video("AAAAAAAAAAa")],
                fetched=1,
            ),
            checkpoint(
                pending=[("AAAAAAAAAAc", 1), ("AAAAAAAAAAd", 3)],
                admitted=["AAAAAAAAAAb", "AAAAAAAAAAc", "AAAAAAAAAAd"],
                videos=[video("AAAAAAAAAAb")],
                fetched=1,
            ),
            checkpoint(pending=[], admitted=["AAAAAAAAAAa"], videos=[], fetched=0),
        ]
        merged = [
            merge_worker_checkpoints(list(order)).to_dict()
            for order in itertools.permutations(checkpoints)
        ]
        assert all(result == merged[0] for result in merged[1:])

    def test_pending_deduplicated_at_minimum_depth(self):
        merged = merge_worker_checkpoints(
            [
                checkpoint(pending=[("AAAAAAAAAAx", 4)], admitted=["AAAAAAAAAAx"]),
                checkpoint(pending=[("AAAAAAAAAAx", 2)], admitted=["AAAAAAAAAAx"]),
            ]
        )
        assert merged.pending == [("AAAAAAAAAAx", 2)]

    def test_entry_recorded_by_any_worker_leaves_pending(self):
        merged = merge_worker_checkpoints(
            [
                checkpoint(pending=[("AAAAAAAAAAa", 1)], admitted=["AAAAAAAAAAa"]),
                checkpoint(admitted=["AAAAAAAAAAa"], videos=[video("AAAAAAAAAAa")], fetched=1),
            ]
        )
        assert merged.pending == []
        assert [v.video_id for v in merged.videos] == ["AAAAAAAAAAa"]

    def test_divergent_video_across_journals_raises(self):
        with pytest.raises(CheckpointError, match="AAAAAAAAAAa"):
            merge_worker_checkpoints(
                [
                    checkpoint(videos=[video("AAAAAAAAAAa", views=1)], admitted=["AAAAAAAAAAa"]),
                    checkpoint(videos=[video("AAAAAAAAAAa", views=2)], admitted=["AAAAAAAAAAa"]),
                ]
            )

    def test_stats_accumulate_and_seeded_ors(self):
        merged = merge_worker_checkpoints(
            [
                checkpoint(fetched=3, seeded=False),
                checkpoint(fetched=4, seeded=True),
            ]
        )
        assert merged.stats.fetched == 7
        assert merged.seeded is True


class TestWorkerJournalInterleaving:
    """Worker journals written concurrently must merge losslessly.

    Each worker owns its journal file, so there is no write interleaving
    *within* a journal — the hazard is at merge time (supervisor replay
    after a crash) and at compaction time (a snapshot taken mid-lease
    must not drop records the supervisor has not acked yet).
    """

    IDS = [f"CCCCCCCC{i:03d}" for i in range(6)]

    def _worker_journal(self, directory, lease, visited):
        from repro.durability.journal import CheckpointJournal

        journal = CheckpointJournal(directory)
        stats = CrawlStats()
        journal.append_batch(
            popped=0, admitted=list(lease), videos=[], stats=stats, seeded=True
        )
        for video_id in visited:
            stats.record_fetch(0)
            journal.append_batch(
                popped=1,  # per-batch delta: one frontier pop per visit
                admitted=[],
                videos=[video(video_id)],
                stats=stats,
                seeded=True,
            )
        journal.close()
        return directory

    def test_two_worker_journals_merge_losslessly_in_any_order(
        self, tmp_path
    ):
        from repro.durability.journal import CheckpointJournal

        lease_a = [(self.IDS[0], 0), (self.IDS[1], 0), (self.IDS[2], 1)]
        lease_b = [(self.IDS[3], 0), (self.IDS[4], 1), (self.IDS[5], 1)]
        # Worker A died mid-lease (visited 1 of 3); worker B finished 2.
        self._worker_journal(tmp_path / "w0", lease_a, [self.IDS[0]])
        self._worker_journal(
            tmp_path / "w1", lease_b, [self.IDS[3], self.IDS[4]]
        )
        replayed = [
            CheckpointJournal(tmp_path / "w0").load(),
            CheckpointJournal(tmp_path / "w1").load(),
        ]
        merged = merge_worker_checkpoints(replayed)
        flipped = merge_worker_checkpoints(list(reversed(replayed)))
        assert merged.to_dict() == flipped.to_dict()
        # Nothing lost: every leased entry is either recorded or pending.
        recorded = {v.video_id for v in merged.videos}
        pending = {video_id for video_id, _ in merged.pending}
        assert recorded == {self.IDS[0], self.IDS[3], self.IDS[4]}
        assert pending == {self.IDS[1], self.IDS[2], self.IDS[5]}
        assert merged.stats.fetched == 3

    def test_compaction_during_lease_keeps_unacked_records(self, tmp_path):
        """A compaction firing mid-lease folds the WAL into a snapshot;
        entries the supervisor has not acked must survive it."""
        from collections import deque

        from repro.durability.journal import CheckpointJournal

        lease = [(vid, 0) for vid in self.IDS[:4]]
        journal = CheckpointJournal(tmp_path, compact_every=2)
        stats = CrawlStats()
        pending = deque(lease)
        recorded = []

        def factory():
            return CrawlCheckpoint(
                pending=list(pending),
                admitted=[video_id for video_id, _ in lease],
                videos=list(recorded),
                stats=CrawlStats.from_dict(stats.to_dict()),
                seeded=True,
            )

        journal.append_batch(
            popped=0, admitted=lease, videos=[], stats=stats, seeded=True
        )
        for video_id, _ in lease[:2]:  # visit half the lease
            stats.record_fetch(0)
            recorded.append(video(video_id))
            pending.popleft()
            journal.append_batch(
                popped=1,
                admitted=[],
                videos=[recorded[-1]],
                stats=stats,
                seeded=True,
            )
            journal.maybe_compact(factory)
        assert journal.snapshots_written >= 1  # compaction really fired
        journal.close()

        # Worker dies here; the supervisor replays the journal.
        replayed = CheckpointJournal(tmp_path).load()
        assert {v.video_id for v in replayed.videos} == set(self.IDS[:2])
        assert [video_id for video_id, _ in replayed.pending] == self.IDS[2:4]
        assert replayed.stats.fetched == 2
