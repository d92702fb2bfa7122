"""Tests for the TCP transport: server, client, and crawls over the wire."""

import json
import socket
import threading

import pytest

from repro.api.faults import FaultInjector
from repro.api.quota import QuotaBudget
from repro.api.service import YoutubeService
from repro.api.transport import (
    RemoteYoutubeClient,
    TransportError,
    YoutubeAPIServer,
)
from repro.crawler.snowball import SnowballCrawler
from repro.errors import (
    BadRequestError,
    QuotaExceededError,
    TransientAPIError,
    VideoNotFoundError,
)


@pytest.fixture()
def server(tiny_universe):
    with YoutubeAPIServer(YoutubeService(tiny_universe)) as running:
        yield running


@pytest.fixture()
def client(server):
    with RemoteYoutubeClient(server.host, server.port) as remote:
        yield remote


class TestProtocol:
    def test_describe_handshake(self, client, tiny_universe):
        info = client.describe()
        assert info["videos"] == len(tiny_universe)
        assert info["countries"] == tiny_universe.registry.codes()

    def test_get_video_matches_local(self, client, tiny_universe):
        video_id = tiny_universe.video_ids()[0]
        local = YoutubeService(tiny_universe).get_video(video_id)
        remote = client.get_video(video_id)
        assert remote == local

    def test_pagination_over_the_wire(self, client, tiny_universe):
        video_id = tiny_universe.video_ids()[0]
        expected = tiny_universe.get(video_id).related_ids
        collected = []
        token = None
        while True:
            page = client.related_videos(video_id, page_token=token, max_results=7)
            collected.extend(page.items)
            token = page.next_page_token
            if token is None:
                break
        assert tuple(collected) == expected

    def test_most_popular_over_the_wire(self, client, tiny_universe):
        page = client.most_popular("BR", max_results=10)
        assert list(page.items) == tiny_universe.most_popular("BR", 10)


class TestErrorFidelity:
    def test_not_found_reraised_with_id(self, client):
        with pytest.raises(VideoNotFoundError) as excinfo:
            client.get_video("AAAAAAAAAAA")
        assert excinfo.value.video_id == "AAAAAAAAAAA"

    def test_bad_request_reraised(self, client, tiny_universe):
        with pytest.raises(BadRequestError):
            client.related_videos(
                tiny_universe.video_ids()[0], max_results=999
            )

    def test_quota_error_crosses_the_wire(self, tiny_universe):
        service = YoutubeService(tiny_universe, quota=QuotaBudget(limit=1))
        with YoutubeAPIServer(service) as running:
            with RemoteYoutubeClient(running.host, running.port) as remote:
                remote.get_video(tiny_universe.video_ids()[0])
                with pytest.raises(QuotaExceededError):
                    remote.get_video(tiny_universe.video_ids()[1])

    def test_transient_error_crosses_the_wire(self, tiny_universe):
        service = YoutubeService(
            tiny_universe, faults=FaultInjector(rate=0.999_999, seed=1)
        )
        with YoutubeAPIServer(service) as running:
            with RemoteYoutubeClient(running.host, running.port) as remote:
                with pytest.raises(TransientAPIError):
                    remote.get_video(tiny_universe.video_ids()[0])

    def test_connect_failure_is_transport_error(self):
        with pytest.raises(TransportError):
            RemoteYoutubeClient("127.0.0.1", 1, timeout=0.5)

    def test_not_found_video_id_is_transported_structurally(self, server):
        # Ids containing quotes must survive the wire: the payload
        # carries the structured id, not a parse of the message text.
        awkward = "it's 'quoted'"
        with RemoteYoutubeClient(server.host, server.port) as remote:
            with pytest.raises(VideoNotFoundError) as excinfo:
                remote.get_video(awkward)
        assert excinfo.value.video_id == awkward


def _scripted_server(script):
    """A one-connection TCP server running ``script(conn)`` then closing.

    Returns ``(port, thread)``; the thread is a daemon and joins fast.
    """
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    port = listener.getsockname()[1]

    def serve():
        conn, _ = listener.accept()
        try:
            script(conn)
        finally:
            conn.close()
            listener.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return port, thread


def _read_request(conn):
    return conn.makefile("rb").readline()


def _raw_client(port):
    return RemoteYoutubeClient("127.0.0.1", port, timeout=2.0)


def _resilient_client(port):
    from repro.api.resilient import ResilientYoutubeClient
    from repro.resilience import RetryPolicy

    # Two attempts: the scripted server serves one connection, so the
    # retry hits a refused connect and the original class must survive.
    return ResilientYoutubeClient(
        "127.0.0.1",
        port,
        timeout=2.0,
        retry=RetryPolicy(
            max_attempts=2, backoff_base=0.0, retryable=(TransportError,)
        ),
    )


@pytest.fixture(params=["raw", "resilient"])
def make_client(request):
    return _raw_client if request.param == "raw" else _resilient_client


class TestTransportFailurePaths:
    """Exact exception classes for every way the wire can betray us."""

    def test_server_closes_mid_request(self, make_client):
        port, _ = _scripted_server(lambda conn: _read_request(conn))
        with make_client(port) as client:
            with pytest.raises(TransportError) as excinfo:
                client.describe()
        assert type(excinfo.value) is TransportError

    def test_empty_reply_frame(self, make_client):
        def script(conn):
            _read_request(conn)
            conn.sendall(b"\n")

        port, _ = _scripted_server(script)
        with make_client(port) as client:
            with pytest.raises(TransportError) as excinfo:
                client.describe()
        assert type(excinfo.value) is TransportError

    def test_garbled_json_frame(self, make_client):
        def script(conn):
            _read_request(conn)
            conn.sendall(b"{this is not json\n")

        port, _ = _scripted_server(script)
        with make_client(port) as client:
            with pytest.raises(TransportError) as excinfo:
                client.describe()
        assert type(excinfo.value) is TransportError

    def test_non_object_reply_frame(self, make_client):
        def script(conn):
            _read_request(conn)
            conn.sendall(b"[1, 2, 3]\n")

        port, _ = _scripted_server(script)
        with make_client(port) as client:
            with pytest.raises(TransportError) as excinfo:
                client.describe()
        assert type(excinfo.value) is TransportError

    def test_response_id_mismatch(self, make_client):
        def script(conn):
            _read_request(conn)
            stale = {"id": 999, "ok": True, "result": {}}
            conn.sendall(json.dumps(stale).encode("utf-8") + b"\n")

        port, _ = _scripted_server(script)
        with make_client(port) as client:
            with pytest.raises(TransportError, match="id mismatch|connect") as excinfo:
                client.describe()
        assert type(excinfo.value) is TransportError

    def test_matching_id_is_accepted(self):
        def script(conn):
            request = json.loads(_read_request(conn))
            reply = {"id": request["id"], "ok": True, "result": {"videos": 1}}
            conn.sendall(json.dumps(reply).encode("utf-8") + b"\n")

        port, _ = _scripted_server(script)
        with RemoteYoutubeClient("127.0.0.1", port, timeout=2.0) as client:
            assert client.describe() == {"videos": 1}


class TestCrawlOverTheWire:
    def test_sequential_crawl_remote_equals_local(self, server, tiny_universe):
        local = SnowballCrawler(
            YoutubeService(tiny_universe), max_videos=60
        ).run()
        with RemoteYoutubeClient(server.host, server.port) as remote:
            over_wire = SnowballCrawler(remote, max_videos=60).run()
        assert over_wire.dataset.video_ids() == local.dataset.video_ids()
        for video in over_wire.dataset:
            assert video == local.dataset.get(video.video_id)

    def test_multiple_concurrent_clients(self, server, tiny_universe):
        results = {}

        def crawl(name):
            with RemoteYoutubeClient(server.host, server.port) as remote:
                results[name] = SnowballCrawler(remote, max_videos=30).run()

        threads = [
            threading.Thread(target=crawl, args=(i,)) for i in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(results) == 3
        reference = results[0].dataset.video_ids()
        for name in (1, 2):
            assert results[name].dataset.video_ids() == reference
