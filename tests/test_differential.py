"""Differential crawl suite: crawl modes against one oracle.

The oracle is a fault-free, in-process :class:`SnowballCrawler` crawl of
everything reachable from the seeds. Hypothesis draws tiny universes
(seed, tag rates and missing-map rate vary), crawl budgets, fault seeds,
quota limits and kill points, and every mode must reproduce the oracle's
per-video records — views, tags, popularity map, related ids, in crawl
order — not just its id set:

- transient API faults absorbed by enough retries (with and without a
  politeness limit);
- a crawl stopped at a budget, checkpointed, then resumed;
- a crawl stopped by the API quota (while seeding or mid-visit), then
  resumed on an unmetered service from its checkpoint or its journal;
- a journaled crawl killed at a filesystem operation, then resumed
  through ``resume_from_journal``.

The distributed crawl needs a TCP server and worker processes, too slow
to draw here; ``test_crawler_distributed.py`` holds it to the same
oracle under chaos, kills and resumes.
"""

import functools
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.faults import FaultInjector
from repro.api.quota import QuotaBudget
from repro.api.service import YoutubeService
from repro.crawler.checkpoint import CrawlCheckpoint
from repro.crawler.snowball import SnowballCrawler
from repro.durability.fsfaults import FaultyFilesystem, SimulatedCrash
from repro.durability.journal import CheckpointJournal
from repro.synth.universe import UniverseConfig, build_universe

#: A budget no drawn universe reaches: the crawl drains its frontier.
EXHAUSTIVE = 10_000

#: Retries per request in the fault mode: at a 30% fault rate, 21 failed
#: attempts in a row have probability ~1e-11.
ENOUGH_RETRIES = 20

universes = st.builds(
    UniverseConfig,
    n_videos=st.integers(min_value=40, max_value=150),
    n_tags=st.integers(min_value=30, max_value=90),
    seed=st.integers(min_value=0, max_value=2**16),
    mean_tags=st.floats(min_value=2.0, max_value=9.0),
    p_no_tags=st.floats(min_value=0.0, max_value=0.2),
    p_missing_map=st.floats(min_value=0.0, max_value=0.6),
)

differential = settings(max_examples=10, deadline=None)


@functools.lru_cache(maxsize=8)
def world(config):
    """The universe, its oracle crawl, and the quota units it spent.

    Cached: shrinking redraws the same configs.
    """
    universe = build_universe(config)
    service = YoutubeService(universe)
    oracle = SnowballCrawler(service, max_videos=EXHAUSTIVE).run().dataset
    return universe, oracle, service.quota.used


def assert_same_crawl(dataset, oracle):
    assert dataset.video_ids() == oracle.video_ids()
    assert list(dataset) == list(oracle)


@differential
@given(
    config=universes,
    fault_rate=st.floats(min_value=0.05, max_value=0.3),
    fault_seed=st.integers(min_value=0, max_value=2**32 - 1),
    requests_per_second=st.none() | st.floats(min_value=1.0, max_value=50.0),
)
def test_transient_faults_with_enough_retries(
    config, fault_rate, fault_seed, requests_per_second
):
    universe, oracle, _ = world(config)
    faults = FaultInjector(rate=fault_rate, seed=fault_seed)
    result = SnowballCrawler(
        YoutubeService(universe, faults=faults),
        max_videos=EXHAUSTIVE,
        max_retries=ENOUGH_RETRIES,
        requests_per_second=requests_per_second,
    ).run()
    assert_same_crawl(result.dataset, oracle)
    assert result.stats.retries_exhausted == 0
    assert result.stats.transient_errors == faults.faults_injected


@differential
@given(config=universes, data=st.data())
def test_budget_stop_checkpoint_resume(config, data):
    universe, oracle, _ = world(config)
    budget = data.draw(st.integers(min_value=1, max_value=len(oracle)))
    first = SnowballCrawler(YoutubeService(universe), max_videos=budget)
    first.run()
    # Through the checkpoint's on-disk JSON form, as a real resume is.
    saved = json.loads(json.dumps(first.checkpoint().to_dict()))
    resumed = SnowballCrawler.resume(
        YoutubeService(universe),
        CrawlCheckpoint.from_dict(saved, universe.registry),
        max_videos=EXHAUSTIVE,
    ).run()
    assert_same_crawl(resumed.dataset, oracle)


@differential
@given(config=universes, journaled=st.booleans(), data=st.data())
def test_quota_stop_then_resume_unmetered(config, journaled, data):
    universe, oracle, spend = world(config)
    # Any limit below the oracle's spend stops the crawl somewhere.
    limit = data.draw(st.integers(min_value=0, max_value=spend - 1))
    metered = YoutubeService(universe, quota=QuotaBudget(limit=limit))
    with tempfile.TemporaryDirectory() as root:
        first = SnowballCrawler(
            metered,
            max_videos=EXHAUSTIVE,
            journal=CheckpointJournal(root) if journaled else None,
        )
        assert first.run().stats.stopped_by_quota
        unmetered = YoutubeService(universe)
        if journaled:  # through the write-ahead log, not the live frontier
            resumed = SnowballCrawler.resume_from_journal(
                unmetered, CheckpointJournal(root), max_videos=EXHAUSTIVE
            )
        else:
            resumed = SnowballCrawler.resume(
                unmetered, first.checkpoint(), max_videos=EXHAUSTIVE
            )
        result = resumed.run()
    assert_same_crawl(result.dataset, oracle)
    assert not result.stats.stopped_by_quota


@differential
@given(
    config=universes,
    checkpoint_every=st.integers(min_value=1, max_value=12),
    compact_every=st.integers(min_value=2, max_value=6),
    data=st.data(),
)
def test_journaled_crawl_killed_then_resumed(
    config, checkpoint_every, compact_every, data
):
    universe, oracle, _ = world(config)

    def journaled(directory, fs=None):
        return SnowballCrawler(
            YoutubeService(universe),
            max_videos=EXHAUSTIVE,
            journal=CheckpointJournal(
                directory, fs=fs, compact_every=compact_every
            ),
            checkpoint_every=checkpoint_every,
        )

    with tempfile.TemporaryDirectory() as root:
        # A probe run counts the journal's filesystem operations (and
        # shows journaling leaves the crawl itself unchanged).
        probe = FaultyFilesystem(seed=0, fault_rate=0.0)
        probed = journaled(Path(root, "probe"), probe).run()
        assert_same_crawl(probed.dataset, oracle)
        crash_at_op = data.draw(
            st.integers(min_value=1, max_value=probe.ops_performed),
            label="crash_at_op",
        )
        crashed = Path(root, "crashed")
        fs = FaultyFilesystem(seed=0, fault_rate=0.0, crash_at_op=crash_at_op)
        with pytest.raises(SimulatedCrash):
            journaled(crashed, fs).run()
        resumed = SnowballCrawler.resume_from_journal(
            YoutubeService(universe),
            CheckpointJournal(crashed, compact_every=compact_every),
            max_videos=EXHAUSTIVE,
            checkpoint_every=checkpoint_every,
        ).run()
    assert_same_crawl(resumed.dataset, oracle)
