#!/usr/bin/env python3
"""Surviving a hostile network: chaos proxy + resilient client + breaker.

The paper's crawl ran for months against a remote, flaky API — dropped
connections, stalled reads, half-written responses. This example puts
the reproduction through the same weather, deterministically:

1. crawl over a clean TCP transport (the reference video set);
2. crawl through a :class:`ChaosProxy` injecting resets, hangups,
   stalls, garbled frames and latency at 12%, and verify the resilient
   client still collects the *identical* set;
3. crawl against a server that is fully down, and show the run ends
   with a clean partial report instead of a hang or a crash.

Run:  python examples/chaos_crawl.py
"""

from repro.api import (
    ChaosProxy,
    ResilientYoutubeClient,
    YoutubeAPIServer,
    YoutubeService,
)
from repro.crawler.snowball import SnowballCrawler
from repro.errors import CircuitOpenError, TransportError
from repro.resilience import CircuitBreaker, RetryPolicy
from repro.synth.universe import UniverseConfig, build_universe
from repro.viz.report import format_table


def connection_retry() -> RetryPolicy:
    """Connection-level retry: quick, capped, deterministically jittered."""
    return RetryPolicy(
        max_attempts=6,
        backoff_base=0.01,
        backoff_cap=0.05,
        jitter=0.2,
        retryable=(TransportError, CircuitOpenError),
    )


def main() -> None:
    universe = build_universe(UniverseConfig(n_videos=150, n_tags=100, seed=2011))

    # 1. The reference: a clean crawl over TCP.
    print("1) Clean crawl over the TCP transport...")
    with YoutubeAPIServer(YoutubeService(universe)) as server:
        with ResilientYoutubeClient(server.host, server.port) as client:
            clean = SnowballCrawler(client, max_videos=10_000).run()
    clean_ids = set(clean.dataset.video_ids())
    print(f"   collected {len(clean_ids)} videos\n")

    # 2. The same crawl through 12% injected network chaos.
    print("2) Crawling through a fault-injecting proxy (12% chaos)...")
    with YoutubeAPIServer(YoutubeService(universe)) as server:
        with ChaosProxy(
            server.host,
            server.port,
            fault_rate=0.12,
            seed=7,
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
                retry=connection_retry(),
            ) as client:
                chaotic = SnowballCrawler(client, max_videos=10_000).run()
        faults = ", ".join(
            f"{kind}={count}" for kind, count in sorted(proxy.fault_counts.items())
        )
    identical = set(chaotic.dataset.video_ids()) == clean_ids
    print(f"   injected faults: {faults}")
    print(f"   identical video set despite the chaos: {identical}")
    print(format_table(chaotic.stats.as_rows(), title="Chaos-crawl statistics"))
    print()

    # 3. The server dies entirely: the crawl must end, not hang.
    print("3) Crawling against a server that is fully down...")
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
            partial = SnowballCrawler(
                client, max_videos=10_000, max_retries=2
            ).run()
    print(
        f"   terminated cleanly with {len(partial.dataset)} videos; "
        f"{partial.stats.transport_errors} transport errors, "
        f"{partial.stats.breaker_opens} breaker opens, "
        f"{breaker.rejections} requests shed by the open circuit"
    )


if __name__ == "__main__":
    main()
