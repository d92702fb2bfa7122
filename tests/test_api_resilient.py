"""Tests for the resilient client: reconnects, deadlines, breaker, chaos crawls."""

import pytest

from repro.api.chaos import ChaosProxy
from repro.api.resilient import ResilientYoutubeClient
from repro.api.service import YoutubeService
from repro.api.transport import RemoteYoutubeClient, YoutubeAPIServer
from repro.crawler.snowball import SnowballCrawler
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    TransportError,
    VideoNotFoundError,
)
from repro.resilience import CircuitBreaker, RetryPolicy
from repro.synth.universe import UniverseConfig, build_universe

#: Connection-level-only retry, fast enough for tests.
def _fast_retry(max_attempts=4):
    return RetryPolicy(
        max_attempts=max_attempts,
        backoff_base=0.01,
        backoff_cap=0.05,
        jitter=0.2,
        retryable=(TransportError, CircuitOpenError),
    )


@pytest.fixture(scope="module")
def micro_universe():
    """A very small world so chaos crawls stay fast."""
    return build_universe(UniverseConfig(n_videos=60, n_tags=50, seed=2011))


@pytest.fixture()
def server(micro_universe):
    with YoutubeAPIServer(YoutubeService(micro_universe)) as running:
        yield running


class TestDropIn:
    def test_service_interface_matches_raw_client(self, server, micro_universe):
        video_id = micro_universe.video_ids()[0]
        with RemoteYoutubeClient(server.host, server.port) as raw:
            expected = raw.get_video(video_id)
        with ResilientYoutubeClient(server.host, server.port) as client:
            assert client.describe()["videos"] == len(micro_universe)
            assert client.get_video(video_id) == expected
            page = client.related_videos(video_id, max_results=5)
            assert len(page.items) <= 5
            popular = client.most_popular("BR", max_results=3)
            assert len(popular.items) == 3

    def test_application_errors_pass_through_untouched(self, server):
        with ResilientYoutubeClient(server.host, server.port) as client:
            with pytest.raises(VideoNotFoundError) as excinfo:
                client.get_video("AAAAAAAAAAA")
            assert excinfo.value.video_id == "AAAAAAAAAAA"
            # Not a connection problem: nothing reconnected.
            assert client.reconnects == 0

    def test_connects_lazily(self, server):
        client = ResilientYoutubeClient(server.host, server.port)
        assert client._client is None  # no socket until first call
        client.describe()
        client.close()


class TestReconnect:
    def test_describe_succeeds_after_forced_reconnect(self, server, micro_universe):
        with ChaosProxy(server.host, server.port) as proxy:
            with ResilientYoutubeClient(
                proxy.host, proxy.port, retry=_fast_retry()
            ) as client:
                assert client.describe()["videos"] == len(micro_universe)
                # Every request now gets its connection reset...
                proxy.fault_rate = 0.999_999
                proxy.kinds = ("reset",)
                with pytest.raises(TransportError):
                    client.describe()
                # ...then the network heals: the client reconnects and
                # the same call just works again.
                proxy.fault_rate = 0.0
                assert client.describe()["videos"] == len(micro_universe)
                assert client.reconnects > 0

    def test_raw_client_stays_dead_where_resilient_recovers(self, server):
        with ChaosProxy(server.host, server.port) as proxy:
            raw = RemoteYoutubeClient(proxy.host, proxy.port)
            proxy.fault_rate = 0.999_999
            proxy.kinds = ("reset",)
            with pytest.raises(TransportError):
                raw.describe()
            proxy.fault_rate = 0.0
            with pytest.raises(TransportError):
                raw.describe()  # the raw socket is gone for good
            raw.close()

    def test_replays_are_counted(self, server):
        with ChaosProxy(server.host, server.port, stall_seconds=0.01) as proxy:
            with ResilientYoutubeClient(
                proxy.host, proxy.port, retry=_fast_retry(max_attempts=6)
            ) as client:
                client.describe()
                proxy.fault_rate = 0.999_999
                proxy.kinds = ("garble",)
                with pytest.raises(TransportError):
                    client.describe()
                proxy.fault_rate = 0.0
                client.describe()
                snapshot = client.resilience_snapshot()
                assert snapshot["reconnects"] > 0


class TestDeadline:
    def test_deadline_expires_against_a_dead_endpoint(self, micro_universe):
        clock = {"now": 0.0}

        def fake_clock():
            clock["now"] += 0.3  # each check advances well past the budget
            return clock["now"]

        client = ResilientYoutubeClient(
            "127.0.0.1",
            1,  # nothing listens here
            timeout=0.2,
            retry=_fast_retry(max_attempts=10),
            request_deadline=0.5,
            clock=fake_clock,
        )
        with pytest.raises(DeadlineExceededError):
            client.describe()
        assert client.deadline_expiries == 1
        client.close()


class TestBreaker:
    def test_breaker_opens_against_a_dead_server(self, micro_universe):
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout=60.0)
        client = ResilientYoutubeClient(
            "127.0.0.1",
            1,
            timeout=0.2,
            breaker=breaker,
            retry=RetryPolicy(
                max_attempts=2,
                backoff_base=0.0,
                retryable=(TransportError,),  # don't retry the open circuit
            ),
        )
        with pytest.raises(TransportError):
            client.describe()
        assert breaker.state == "open"
        assert breaker.opens == 1
        # The next request is shed without touching the network.
        with pytest.raises(CircuitOpenError):
            client.describe()
        assert client.resilience_snapshot()["breaker_opens"] == 1
        client.close()

    def test_breaker_closes_after_successful_probe(self, server, micro_universe):
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=0.01)
        with ChaosProxy(server.host, server.port) as proxy:
            with ResilientYoutubeClient(
                proxy.host, proxy.port, breaker=breaker, retry=_fast_retry(6)
            ) as client:
                proxy.fault_rate = 0.999_999
                proxy.kinds = ("reset",)
                with pytest.raises((TransportError, CircuitOpenError)):
                    client.describe()
                assert breaker.opens >= 1
                proxy.fault_rate = 0.0
                assert client.describe()["videos"] == len(micro_universe)
                assert breaker.state == "closed"


class TestChaosCrawl:
    """The PR's acceptance scenario, as a test."""

    def test_sequential_chaos_crawl_also_survives(self, micro_universe):
        clean = SnowballCrawler(
            YoutubeService(micro_universe), max_videos=10_000
        ).run()
        with YoutubeAPIServer(YoutubeService(micro_universe)) as running:
            with ChaosProxy(
                running.host,
                running.port,
                fault_rate=0.1,
                seed=3,
                stall_seconds=0.01,
            ) as proxy:
                with ResilientYoutubeClient(
                    proxy.host, proxy.port, timeout=2.0, retry=_fast_retry(6)
                ) as client:
                    result = SnowballCrawler(client, max_videos=10_000).run()
        assert set(result.dataset.video_ids()) == set(clean.dataset.video_ids())
        assert proxy.faults_injected > 0
        assert result.stats.reconnects > 0

    def test_server_fully_down_terminates_with_partial_report(
        self, micro_universe
    ):
        with YoutubeAPIServer(YoutubeService(micro_universe)) as running:
            host, port = running.host, running.port
            running.stop()
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
                crawler = SnowballCrawler(
                    client, max_videos=10_000, max_retries=2
                )
                result = crawler.run()  # must neither hang nor crash
        assert len(result.dataset) == 0
        assert result.stats.fetched == 0
        assert result.stats.transport_errors > 0
        assert result.stats.retries_exhausted > 0
        assert result.stats.breaker_opens > 0
