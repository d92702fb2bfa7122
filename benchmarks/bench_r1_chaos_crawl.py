"""R1 — chaos-hardened crawl (resilience, not experiment shape).

The paper's dataset came from a months-long crawl of a remote, flaky
API; the reproduction must survive the same conditions. This benchmark
drives a :class:`SnowballCrawler` through a :class:`ChaosProxy`
injecting network faults (resets, hangups, stalls, garbled frames,
latency) at a meaningful rate and asserts the resilience bar:

- the chaos crawl collects the *identical video set* as a fault-free
  crawl of the same universe;
- reconnects and circuit-breaker transitions actually happened (the
  chaos was real, and was absorbed);
- with the server fully down, the crawl terminates cleanly with a
  partial-result report instead of hanging or crashing.

Timing (pytest-benchmark) covers the chaos crawl itself, so the
overhead of resilience machinery under fault load is tracked over time.
"""

from repro.api.chaos import ChaosProxy
from repro.api.resilient import ResilientYoutubeClient
from repro.api.service import YoutubeService
from repro.api.transport import YoutubeAPIServer
from repro.crawler.snowball import SnowballCrawler
from repro.errors import CircuitOpenError, TransportError
from repro.resilience import CircuitBreaker, RetryPolicy
from repro.synth.universe import UniverseConfig, build_universe

FAULT_RATE = 0.12
SEED = 7


def _universe():
    return build_universe(UniverseConfig(n_videos=120, n_tags=90, seed=2011))


def _client_retry():
    return RetryPolicy(
        max_attempts=6,
        backoff_base=0.01,
        backoff_cap=0.05,
        jitter=0.2,
        retryable=(TransportError, CircuitOpenError),
    )


def _chaos_crawl(universe):
    with YoutubeAPIServer(YoutubeService(universe)) as server:
        with ChaosProxy(
            server.host,
            server.port,
            fault_rate=FAULT_RATE,
            seed=SEED,
            burst_length=3,
            latency_seconds=0.001,
            stall_seconds=0.01,
        ) as proxy:
            breaker = CircuitBreaker(failure_threshold=2, reset_timeout=0.01)
            with ResilientYoutubeClient(
                proxy.host,
                proxy.port,
                timeout=2.0,
                breaker=breaker,
                retry=_client_retry(),
            ) as client:
                result = SnowballCrawler(client, max_videos=10_000).run()
            return result, proxy.fault_counts, proxy.requests_seen


def test_r1_chaos_crawl_completes_identically(benchmark, report_writer):
    universe = _universe()
    clean = SnowballCrawler(YoutubeService(universe), max_videos=10_000).run()
    clean_ids = set(clean.dataset.video_ids())

    result, fault_counts, requests_seen = benchmark.pedantic(
        lambda: _chaos_crawl(universe), rounds=1, iterations=1
    )
    stats = result.stats

    # The resilience bar: chaos changed nothing about the collected set.
    assert set(result.dataset.video_ids()) == clean_ids
    assert sum(fault_counts.values()) > 0
    assert stats.reconnects > 0
    assert stats.breaker_opens > 0

    fault_lines = "\n".join(
        f"  {kind:>8}: {count}" for kind, count in sorted(fault_counts.items())
    )
    report_writer(
        "r1_chaos_crawl",
        "R1 — crawl through a fault-injecting TCP proxy\n"
        f"fault rate {FAULT_RATE} (seed {SEED}, bursts of 3), "
        f"{requests_seen} proxied requests\n"
        f"injected faults:\n{fault_lines}\n"
        f"videos collected: {len(result.dataset)} "
        f"(clean run: {len(clean_ids)}; sets identical)\n"
        f"reconnects: {stats.reconnects}  "
        f"breaker opens: {stats.breaker_opens}  "
        f"transport errors at crawler: {stats.transport_errors}  "
        f"deadline expiries: {stats.deadline_expiries}",
    )


def test_r1_server_down_partial_report(report_writer):
    universe = _universe()
    with YoutubeAPIServer(YoutubeService(universe)) as server:
        host, port = server.host, server.port
        server.stop()
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout=0.05)
        with ResilientYoutubeClient(
            host,
            port,
            timeout=0.5,
            breaker=breaker,
            retry=RetryPolicy(
                max_attempts=3,
                backoff_base=0.005,
                backoff_cap=0.02,
                retryable=(TransportError, CircuitOpenError),
            ),
        ) as client:
            result = SnowballCrawler(
                client, max_videos=10_000, max_retries=2
            ).run()

    # A dead server must produce a clean partial report, not a hang.
    assert len(result.dataset) == 0
    assert result.stats.transport_errors > 0
    assert result.stats.retries_exhausted > 0
    assert result.stats.breaker_opens > 0

    report_writer(
        "r1_server_down",
        "R1 — crawl against a fully-down server terminates cleanly\n"
        f"videos collected: {len(result.dataset)}\n"
        f"transport errors: {result.stats.transport_errors}  "
        f"retries exhausted: {result.stats.retries_exhausted}  "
        f"breaker opens: {result.stats.breaker_opens}  "
        f"breaker rejections absorbed: {breaker.rejections}",
    )
