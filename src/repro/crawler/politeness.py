"""Crawl politeness: a continuous-time token-bucket rate limiter.

A real crawl must respect the provider's rate expectations or get
banned; the 2011 tooling throttled itself. The bucket itself never
reads a clock or sleeps: callers pass the current time and get back how
long to wait. The crawl step (:mod:`repro.crawler.step`) pays that wait
through its :class:`~repro.clock.Clock` — simulated in the in-process
crawler, where throttling costs show up in
:attr:`~repro.crawler.stats.CrawlStats.politeness_wait_seconds` without
slowing experiments, real in distributed workers — and the serving
origin feeds it virtual event-loop time.
"""

from __future__ import annotations

from repro.errors import ConfigError


class TokenBucket:
    """Continuous-time token bucket.

    Args:
        rate: Sustained budget, requests per second.
        burst: Bucket depth — how many requests may go back-to-back
            after an idle period.
    """

    def __init__(self, rate: float, burst: int = 5):
        if rate <= 0:
            raise ConfigError(f"rate must be positive, got {rate}")
        if burst < 1:
            raise ConfigError(f"burst must be >= 1, got {burst}")
        self.rate = rate
        self.burst = burst
        self._tokens = float(burst)
        self._last_time = 0.0

    def acquire(self, now: float) -> float:
        """Take one token at time ``now``; returns the wait.

        ``now`` must be monotonically nondecreasing across calls. The
        returned wait is the extra delay the caller must add to its
        clock before issuing the request (0.0 when a token is free).
        """
        if now < self._last_time:
            raise ConfigError(
                f"clock went backwards: {now} < {self._last_time}"
            )
        self._tokens = min(
            float(self.burst), self._tokens + (now - self._last_time) * self.rate
        )
        self._last_time = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return 0.0
        wait = (1.0 - self._tokens) / self.rate
        # The caller waits; the bucket refills exactly to one token,
        # which the request then consumes.
        self._tokens = 0.0
        self._last_time = now + wait
        return wait

    @property
    def available_tokens(self) -> float:
        return self._tokens
