"""End-to-end tests for the JSON HTTP statistics server and its client."""

import contextlib
import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import (
    HistogramStore,
    IngestPipeline,
    ServiceError,
    StatisticsClient,
    StatisticsServer,
    UnknownAttributeError,
)
from repro.obs import MetricsRegistry
from repro.service.server import EdgeHandler


@pytest.fixture
def server():
    with StatisticsServer(HistogramStore()) as running:
        yield running


@pytest.fixture
def client(server):
    host, port = server.address
    return StatisticsClient(host, port)


class TestLifecycleRoutes:
    def test_health(self, client):
        response = client.health()
        assert response["status"] == "ok"
        assert response["attributes"] == 0

    def test_create_ingest_estimate_round_trip(self, client):
        created = client.create("age", "dc", memory_kb=0.5)
        assert created["name"] == "age"
        assert created["total_count"] == 0

        response = client.ingest("age", insert=[float(v % 90) for v in range(2000)])
        assert response["buffered"] is False
        assert response["inserted"] == 2000

        assert client.total_count("age") == pytest.approx(2000.0)
        full = client.estimate_range("age", 0, 89)
        assert full == pytest.approx(2000.0, rel=0.01)
        assert client.estimate_equal("age", 42.0) > 0
        cdf = client.cdf("age", [0.0, 45.0, 89.0])
        assert cdf[-1] == pytest.approx(1.0)
        assert cdf == sorted(cdf)

    def test_ingest_deletes(self, client):
        client.create("age", "dc", memory_kb=0.5)
        client.ingest("age", insert=[float(v % 70) for v in range(1000)])
        response = client.ingest("age", delete=[10.0, 11.0])
        assert response["deleted"] == 2
        assert client.total_count("age") == pytest.approx(998.0)

    def test_consistent_query_batch(self, client):
        client.create("age", "dado", memory_kb=0.5)
        client.ingest("age", insert=[float(v % 50) for v in range(1500)])
        response = client.query(
            "age", [{"op": "total"}, {"op": "range", "low": -1e18, "high": 1e18}]
        )
        total, full_range = response["results"]
        assert total == pytest.approx(full_range)
        assert "generation" in response

    def test_stats_routes(self, client):
        client.create("a1", "dc", memory_kb=0.5)
        client.create("a2", "dvo", memory_kb=0.5)
        everything = client.stats()
        assert [entry["name"] for entry in everything["attributes"]] == ["a1", "a2"]
        single = client.stats("a2")
        assert single["kind"] == "dvo"

    def test_drop(self, client):
        client.create("gone", "dc")
        client.drop("gone")
        with pytest.raises(UnknownAttributeError):
            client.stats("gone")

    def test_snapshot_restore_over_http(self, client):
        client.create("age", "dado", memory_kb=0.5)
        client.ingest("age", insert=[float(v % 40) for v in range(1200)])
        snapshot = client.snapshot("age")
        before = client.estimate_range("age", 5, 25)

        client.ingest("age", insert=[0.0] * 400)
        assert client.total_count("age") == pytest.approx(1600.0)

        restored = client.restore("age", snapshot)
        assert restored["total_count"] == pytest.approx(1200.0)
        assert client.estimate_range("age", 5, 25) == pytest.approx(before)

    def test_snapshot_survives_server_restart(self, client, server):
        client.create("age", "dc", memory_kb=0.5)
        client.ingest("age", insert=[float(v % 60) for v in range(1500)])
        snapshot = client.snapshot("age")

        with StatisticsServer(HistogramStore()) as second:
            host, port = second.address
            fresh_client = StatisticsClient(host, port)
            fresh_client.restore("age", snapshot)
            assert fresh_client.total_count("age") == pytest.approx(1500.0)


class TestErrorHandling:
    def test_unknown_attribute_404(self, client):
        with pytest.raises(UnknownAttributeError):
            client.estimate_range("missing", 0, 1)
        with pytest.raises(UnknownAttributeError):
            client.ingest("missing", insert=[1.0])

    def test_duplicate_create_conflict(self, client):
        client.create("dup", "dc")
        with pytest.raises(ServiceError, match="409"):
            client.create("dup", "dc")

    def test_duplicate_create_exist_ok(self, client):
        client.create("dup", "dc")
        stats = client.create("dup", "dc", exist_ok=True)
        assert stats["name"] == "dup"

    def test_bad_kind_400(self, client):
        with pytest.raises(ServiceError, match="400"):
            client.create("odd", "mystery")

    def test_unknown_route_404(self, server):
        host, port = server.address
        request = urllib.request.Request(f"http://{host}:{port}/nope")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 404

    def test_estimate_bad_query_400(self, client):
        client.create("age", "dc")
        with pytest.raises(ServiceError, match="400"):
            client.query("age", [{"op": "mystery"}])


class Test404BodyParsing:
    """The client must never trust the 404 body's quoting.

    Regression: the old parse was ``message.split("'")[1]``, which raised
    ``IndexError`` on any body that contained the phrase ``unknown
    attribute`` without a quoted name -- an old server, a proxy error page,
    or a hostile upstream.  The structured ``name`` field wins, the quoted
    token is the fallback, and the worst case degrades to the whole message.
    """

    @staticmethod
    def _client_returning(status, body):
        client = StatisticsClient("127.0.0.1", 1)
        client._raw_request = lambda *args, **kwargs: (status, body)
        return client

    def test_hostile_body_without_quotes_does_not_crash(self):
        hostile = self._client_returning(
            404, b'{"error": "unknown attribute but no quotes anywhere"}'
        )
        with pytest.raises(UnknownAttributeError) as excinfo:
            hostile.total_count("whatever")
        assert excinfo.value.name == "unknown attribute but no quotes anywhere"

    def test_non_json_proxy_page_does_not_crash(self):
        hostile = self._client_returning(
            404, b"<html>unknown attribute -- gateway says no</html>"
        )
        with pytest.raises(UnknownAttributeError):
            hostile.total_count("whatever")

    def test_structured_name_beats_message_quoting(self):
        body = json.dumps(
            {"error": "unknown attribute 'decoy'", "name": "real'name"}
        ).encode("utf-8")
        hostile = self._client_returning(404, body)
        with pytest.raises(UnknownAttributeError) as excinfo:
            hostile.total_count("whatever")
        assert excinfo.value.name == "real'name"

    def test_legacy_body_falls_back_to_quoted_token(self):
        body = json.dumps(
            {"error": "unknown attribute 'age'; create it first"}
        ).encode("utf-8")
        legacy = self._client_returning(404, body)
        with pytest.raises(UnknownAttributeError) as excinfo:
            legacy.total_count("whatever")
        assert excinfo.value.name == "age"


class TestRawHttpSurface:
    def test_get_estimate_via_query_string(self, server):
        host, port = server.address
        client = StatisticsClient(host, port)
        client.create("age", "dc", memory_kb=0.5)
        client.ingest("age", insert=[float(v % 30) for v in range(900)])
        url = f"http://{host}:{port}/attributes/age/estimate?op=range&low=0&high=29"
        with urllib.request.urlopen(url) as response:
            payload = json.loads(response.read())
        assert payload["result"] == pytest.approx(900.0, rel=0.01)


class TestBufferedIngest:
    def test_pipeline_backed_server_buffers_and_flushes(self):
        store = HistogramStore()
        pipeline = IngestPipeline(store, max_batch=10_000, auto_flush_interval=0.02)
        with StatisticsServer(store, pipeline=pipeline) as running:
            host, port = running.address
            client = StatisticsClient(host, port)
            client.create("age", "dc", memory_kb=0.5)
            response = client.ingest("age", insert=[float(v) for v in range(100)])
            assert response["buffered"] is True
            import time

            deadline = time.time() + 5.0
            while client.total_count("age") < 100 and time.time() < deadline:
                time.sleep(0.01)
            assert client.total_count("age") == pytest.approx(100.0)


class TestPartialApply:
    def test_sync_ingest_partial_failure_reports_inserted(self, client):
        client.create("age", "dc", memory_kb=0.5)
        # The insert half commits before the delete half underflows.
        with pytest.raises(ServiceError, match="400") as excinfo:
            client.ingest("age", insert=[1.0], delete=[1.0, 2.0])
        payload = excinfo.value.payload
        assert payload["partial"] is True
        assert payload["inserted"] == 1
        assert "generation" in payload


class TestAttributeNameEscaping:
    """Names containing URL-hostile characters must route correctly."""

    @pytest.mark.parametrize(
        "name",
        ["orders/amount", "unit price", "discount%", "a/b c%d", "100%/total share"],
    )
    def test_hostile_names_round_trip(self, client, name):
        client.create(name, "dc", memory_kb=0.5)
        client.ingest(name, insert=[1.0, 2.0, 3.0])
        assert client.total_count(name) == pytest.approx(3.0)
        assert client.stats(name)["name"] == name
        snapshot = client.snapshot(name)
        assert snapshot["name"] == name
        client.drop(name)
        with pytest.raises(UnknownAttributeError):
            client.total_count(name)

    def test_slash_name_does_not_shadow_another_route(self, client):
        # If "age/ingest" were not escaped it would route to the ingest action
        # of attribute "age" instead of the stats of attribute "age/ingest".
        client.create("age", "dc", memory_kb=0.5)
        client.create("age/ingest", "dc", memory_kb=0.5)
        client.ingest("age/ingest", insert=[1.0])
        assert client.total_count("age") == 0.0
        assert client.total_count("age/ingest") == pytest.approx(1.0)


class _FlakySocket:
    """Accepts TCP connections and immediately closes them (N times)."""

    def __init__(self):
        import socket as socket_module

        self.socket = socket_module.socket()
        self.socket.bind(("127.0.0.1", 0))
        self.socket.listen(8)
        self.socket.settimeout(0.1)
        self.port = self.socket.getsockname()[1]
        self.accepted = 0
        self._stop = False
        self._thread = None

    def _loop(self):
        import socket as socket_module

        while not self._stop:
            try:
                connection, _ = self.socket.accept()
            except socket_module.timeout:
                continue
            except OSError:
                break
            self.accepted += 1
            connection.close()

    def __enter__(self):
        import threading

        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, exc_type, exc, tb):
        self._stop = True
        self._thread.join()
        self.socket.close()


class _DropsSecondRequest:
    """Answers the first request on each connection, then reads the second
    and closes without answering: a server that died mid-request."""

    def __init__(self):
        self.socket = socket.socket()
        self.socket.bind(("127.0.0.1", 0))
        self.socket.listen(8)
        self.port = self.socket.getsockname()[1]
        self.requests = []
        self.accepted = []
        self._threads = []

    def _read_request(self, stream):
        head = stream.readline()
        if not head:  # closed by the client, or by __exit__
            return
        length = 0
        while (line := stream.readline()) not in (b"\r\n", b""):
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        stream.read(length)
        self.requests.append(head.split(b" ")[0].decode())

    def _serve(self, connection):
        with connection, connection.makefile("rb") as stream:
            self._read_request(stream)
            connection.sendall(
                b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                b'Content-Length: 16\r\n\r\n{"status": "ok"}'
            )
            self._read_request(stream)

    def _accept(self):
        while True:
            try:
                connection, _ = self.socket.accept()
            except OSError:
                return
            self.accepted.append(connection)
            thread = threading.Thread(target=self._serve, args=(connection,), daemon=True)
            self._threads.append(thread)
            thread.start()

    def __enter__(self):
        self._threads.append(threading.Thread(target=self._accept, daemon=True))
        self._threads[-1].start()
        return self

    def __exit__(self, exc_type, exc, tb):
        # Wake the blocked accept() and any read still waiting for a request.
        for sock in [self.socket, *self.accepted]:
            with contextlib.suppress(OSError):
                sock.shutdown(socket.SHUT_RDWR)
        self.socket.close()
        for thread in self._threads:
            thread.join(timeout=5)


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)
    return predicate()


class TestClientRetries:
    def test_connect_failures_retry_with_backoff_then_raise(self, monkeypatch):
        import socket as socket_module

        # Reserve a port and close it so nothing listens there.
        probe = socket_module.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()

        sleeps = []
        monkeypatch.setattr("repro.service.client.time.sleep", sleeps.append)
        flaky = StatisticsClient("127.0.0.1", dead_port, retries=2, retry_backoff=0.05)
        with pytest.raises(OSError):
            flaky.health()
        # Two retries -> two backoff sleeps, exponentially growing.
        assert sleeps == [0.05, 0.1]

    def test_get_after_connect_is_retried(self):
        with _FlakySocket() as flaky_server:
            flaky = StatisticsClient(
                "127.0.0.1", flaky_server.port, retries=2, retry_backoff=0.01
            )
            with pytest.raises(Exception):
                flaky.health()
        # One initial attempt plus two retries, all reached the socket.
        assert flaky_server.accepted == 3

    def test_post_after_connect_is_never_retried(self):
        # A POST whose fate is unknown must not be re-sent (double-apply risk).
        with _FlakySocket() as flaky_server:
            flaky = StatisticsClient(
                "127.0.0.1", flaky_server.port, retries=2, retry_backoff=0.01
            )
            with pytest.raises(Exception):
                flaky.ingest("age", insert=[1.0])
        assert flaky_server.accepted == 1

    def test_zero_retries_fails_fast(self, monkeypatch):
        import socket as socket_module

        probe = socket_module.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()

        sleeps = []
        monkeypatch.setattr("repro.service.client.time.sleep", sleeps.append)
        client = StatisticsClient("127.0.0.1", dead_port, retries=0)
        with pytest.raises(OSError):
            client.health()
        assert sleeps == []

    def test_retry_recovers_when_server_appears(self, server):
        # Against a live server the retrying client behaves identically.
        host, port = server.address
        patient = StatisticsClient(host, port, retries=3, retry_backoff=0.01)
        assert patient.health()["status"] == "ok"

    def test_post_reconnects_before_writing_after_the_server_closed(self, monkeypatch):
        # The server times the kept connection out between two requests; the
        # readability probe sees the EOF, so the POST goes out on a new
        # connection and is applied once (retries=0: nothing is re-sent).
        monkeypatch.setattr(EdgeHandler, "timeout", 0.2)
        registry = MetricsRegistry()
        store = HistogramStore(metrics=registry)
        open_now = registry.gauge("repro_http_open_connections", "")
        with StatisticsServer(store, metrics=registry) as running:
            client = StatisticsClient(*running.address, retries=0)
            client.create("age", "dc", memory_kb=0.5)
            assert _wait_for(lambda: open_now.value() == 0)
            client.ingest("age", insert=[1.0, 2.0])
            assert store.total_count("age") == 2
            assert registry.counter("repro_http_connections_total", "").value() == 2

    def test_post_lost_on_a_reused_connection_raises_once(self):
        with _DropsSecondRequest() as fake:
            client = StatisticsClient("127.0.0.1", fake.port, retries=2, retry_backoff=0.01)
            assert client.health()["status"] == "ok"
            with pytest.raises((OSError, http.client.HTTPException)):
                client.ingest("age", insert=[1.0])
        assert fake.requests == ["GET", "POST"]
        assert len(fake.accepted) == 1

    def test_get_lost_on_a_reused_connection_is_retried(self):
        with _DropsSecondRequest() as fake:
            client = StatisticsClient("127.0.0.1", fake.port, retries=2, retry_backoff=0.01)
            assert client.health()["status"] == "ok"
            assert client.health()["status"] == "ok"
        assert fake.requests == ["GET", "GET", "GET"]
        assert len(fake.accepted) == 2

    def test_threads_sharing_a_client_get_their_own_connections(self):
        registry = MetricsRegistry()
        store = HistogramStore(metrics=registry)
        for index in range(4):
            store.create(f"t{index}", "dc", memory_kb=0.5)
            store.insert(f"t{index}", [float(v) for v in range(5 * (index + 1))])
        with StatisticsServer(store, metrics=registry) as running:
            client = StatisticsClient(*running.address)
            start = threading.Barrier(4)
            wrong = []

            def reader(index):
                start.wait(timeout=5)
                for _ in range(25):
                    total = client.total_count(f"t{index}")
                    if total != 5 * (index + 1):
                        wrong.append((index, total))

            threads = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert registry.counter("repro_http_connections_total", "").value() == 4

    def test_connection_close_answer_is_not_reused(self):
        registry = MetricsRegistry()
        with StatisticsServer(HistogramStore(metrics=registry), metrics=registry) as running:
            client = StatisticsClient(*running.address)
            # A non-numeric Content-Length: the edge answers 400 and closes.
            status, _ = client._raw_request("POST", "/attributes", None, {"Content-Length": "x"})
            assert status == 400
            assert client.health()["status"] == "ok"
            assert client.health()["status"] == "ok"
        assert registry.counter("repro_http_connections_total", "").value() == 2
