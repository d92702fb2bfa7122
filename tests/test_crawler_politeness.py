"""Tests for the token-bucket politeness limiter."""

import pytest

from repro.api.service import YoutubeService
from repro.clock import ManualClock
from repro.crawler.politeness import TokenBucket
from repro.crawler.snowball import SnowballCrawler
from repro.crawler.stats import CrawlStats
from repro.crawler.step import CrawlStep
from repro.errors import ConfigError
from repro.resilience import RetryPolicy


class TestTokenBucket:
    def test_burst_goes_free(self):
        bucket = TokenBucket(rate=2.0, burst=3)
        assert [bucket.acquire(0.0) for _ in range(3)] == [0.0, 0.0, 0.0]

    def test_fourth_request_waits(self):
        bucket = TokenBucket(rate=2.0, burst=3)
        for _ in range(3):
            bucket.acquire(0.0)
        assert bucket.acquire(0.0) == pytest.approx(0.5)

    def test_steady_state_rate(self):
        bucket = TokenBucket(rate=10.0, burst=1)
        clock = 0.0
        total_wait = 0.0
        for _ in range(100):
            wait = bucket.acquire(clock)
            clock += wait
            total_wait += wait
        # 100 requests at 10 rps from a single-token bucket: ~9.9 s.
        assert total_wait == pytest.approx(9.9, rel=0.02)

    def test_idle_refills_bucket(self):
        bucket = TokenBucket(rate=1.0, burst=2)
        bucket.acquire(0.0)
        bucket.acquire(0.0)
        # After 5 idle seconds the bucket is full again (capped at burst).
        assert bucket.acquire(5.0) == 0.0
        assert bucket.acquire(5.0) == 0.0
        assert bucket.acquire(5.0) > 0.0

    def test_clock_must_be_monotone(self):
        bucket = TokenBucket(rate=1.0)
        bucket.acquire(10.0)
        with pytest.raises(ConfigError):
            bucket.acquire(5.0)

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            TokenBucket(rate=0.0)
        with pytest.raises(ConfigError):
            TokenBucket(rate=1.0, burst=0)


class TestCrawlerIntegration:
    def test_unthrottled_crawl_pays_nothing(self, tiny_universe):
        result = SnowballCrawler(
            YoutubeService(tiny_universe), max_videos=50
        ).run()
        assert result.stats.politeness_wait_seconds == 0.0

    def test_throttled_crawl_accounts_wait(self, tiny_universe):
        result = SnowballCrawler(
            YoutubeService(tiny_universe),
            max_videos=50,
            requests_per_second=10.0,
        ).run()
        # 50 videos → ≥100 requests (metadata + related pages + seeds);
        # at 10 rps with burst 5, total wait ≈ (requests - 5) / 10.
        assert result.stats.politeness_wait_seconds > 5.0

    def test_throttling_does_not_change_results(self, tiny_universe):
        fast = SnowballCrawler(
            YoutubeService(tiny_universe), max_videos=60
        ).run()
        polite = SnowballCrawler(
            YoutubeService(tiny_universe),
            max_videos=60,
            requests_per_second=5.0,
        ).run()
        assert polite.dataset.video_ids() == fast.dataset.video_ids()

    def test_higher_rate_waits_less(self, tiny_universe):
        slow = SnowballCrawler(
            YoutubeService(tiny_universe),
            max_videos=40,
            requests_per_second=2.0,
        ).run()
        fast = SnowballCrawler(
            YoutubeService(tiny_universe),
            max_videos=40,
            requests_per_second=20.0,
        ).run()
        assert (
            fast.stats.politeness_wait_seconds
            < slow.stats.politeness_wait_seconds
        )


class TestThrottlePaidThroughClock:
    """The crawl step pays politeness waits through its clock."""

    @staticmethod
    def throttled_step(service, rate, burst):
        clock = ManualClock()
        step = CrawlStep(
            service,
            CrawlStats(),
            RetryPolicy(max_attempts=1),
            clock,
            requests_per_second=rate,
            politeness_burst=burst,
        )
        return step, clock

    def test_burst_is_free_on_manual_clock(self, tiny_service):
        step, clock = self.throttled_step(tiny_service, rate=2.0, burst=3)
        for _ in range(3):
            step.seed("US", 1)
        assert clock.sleeps == []
        assert step.stats.politeness_wait_seconds == 0.0

    def test_throttle_paid_through_clock_sleep(self, tiny_service):
        step, clock = self.throttled_step(tiny_service, rate=2.0, burst=1)
        step.seed("US", 1)
        step.seed("US", 1)
        assert clock.sleeps == [pytest.approx(0.5)]
        assert step.stats.politeness_wait_seconds == pytest.approx(0.5)

    def test_steady_state_rate_advances_simulated_time(self, tiny_service):
        step, clock = self.throttled_step(tiny_service, rate=10.0, burst=1)
        for _ in range(101):
            step.seed("US", 1)
        # 100 throttled requests at 10 rps: ten simulated seconds, paid
        # instantly on the manual clock.
        assert clock.now() == pytest.approx(10.0)
        assert step.stats.politeness_wait_seconds == pytest.approx(10.0)
