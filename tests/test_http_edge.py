"""The HTTP edge contract, checked once per server kind.

``StatisticsServer`` and ``ClusterServer`` share one request handler and one
lifecycle (``repro.service.server.EdgeServer``); every test here runs against
both, so the contract cannot drift between them.
"""

import contextlib
import gc
import http.client
import json
import socket
import threading
import time
import warnings

import pytest

from repro import HistogramStore, IngestPipeline, StatisticsClient, StatisticsServer
from repro.cluster import ClusterCoordinator, ClusterServer, LocalShard
from repro.obs import TRACE_HEADER, MetricsRegistry
from repro.service.server import MAX_BODY_BYTES, EdgeHandler


def _service(**knobs):
    return StatisticsServer(HistogramStore(), **knobs)


def _cluster(**knobs):
    coordinator = ClusterCoordinator([LocalShard("shard-0"), LocalShard("shard-1")])
    return ClusterServer(coordinator, **knobs)


@pytest.fixture(params=[_service, _cluster], ids=["StatisticsServer", "ClusterServer"])
def make_server(request):
    return request.param


@pytest.fixture
def server(make_server):
    with make_server() as running:
        yield running


def _request(server, method, path, body=None, headers=None):
    """One raw request; the 2 s timeout turns a stuck handler into a failure."""
    connection = http.client.HTTPConnection(*server.address, timeout=2.0)
    try:
        connection.request(method, path, body=body, headers=headers or {})
        response = connection.getresponse()
        return response.status, response.headers, response.read()
    finally:
        connection.close()


class TestEdgeContract:
    def test_unknown_route_404(self, server):
        status, _, body = _request(server, "GET", "/nope")
        assert status == 404
        assert json.loads(body) == {"error": "no route for GET /nope"}

    def test_invalid_json_400(self, server):
        status, _, body = _request(server, "POST", "/attributes", body=b"{not json")
        assert status == 400
        assert json.loads(body)["error"].startswith("invalid JSON body")

    def test_non_object_json_body_400(self, server):
        status, _, body = _request(server, "POST", "/attributes", body=b'["age", "dc"]')
        assert status == 400
        assert "must be a JSON object" in json.loads(body)["error"]

    def test_negative_content_length_400(self, server):
        status, _, body = _request(
            server, "POST", "/attributes", body=b"", headers={"Content-Length": "-1"}
        )
        assert status == 400
        assert "Content-Length" in json.loads(body)["error"]

    def test_non_numeric_content_length_400_closes_the_connection(self, server):
        # The body's end is unknown, so the server must not parse it as the
        # start of a next request: it answers once and closes.
        request = (
            b"POST /attributes HTTP/1.1\r\nHost: edge\r\nContent-Length: abc\r\n\r\n"
            b'{"name":"x"}GET /health HTTP/1.1\r\nHost: edge\r\n\r\n'
        )
        received = b""
        with socket.create_connection(server.address, timeout=2.0) as sock:
            sock.sendall(request)
            with contextlib.suppress(ConnectionResetError):
                while chunk := sock.recv(65536):
                    received += chunk
        head, _, body = received.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400")
        assert b"Connection: close" in head
        assert "Content-Length" in json.loads(body)["error"]
        assert received.count(b"HTTP/1.1 ") == 1

    @pytest.mark.parametrize("declared", [MAX_BODY_BYTES + 1, 99_999_999_999_999])
    def test_oversized_body_413_from_the_header_alone(self, server, declared):
        # Reading a declared body allocates all of it up front and waits for
        # all of it, so the edge refuses it unread, then closes.
        request = (
            b"POST /attributes HTTP/1.1\r\nHost: edge\r\nContent-Length: %d\r\n\r\n"
            b'{"name":"x"}' % declared
        )
        received = b""
        with socket.create_connection(server.address, timeout=2.0) as sock:
            sock.sendall(request)
            with contextlib.suppress(ConnectionResetError):
                while chunk := sock.recv(65536):
                    received += chunk
        head, _, body = received.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 413")
        assert b"Connection: close" in head
        assert str(declared) in json.loads(body)["error"]

    def test_a_refused_upload_still_gets_its_answer(self, server):
        # The edge answers before reading the body, then keeps discarding it
        # until the client has sent it all: closing over the unread rest
        # would reset the client's send before it reads the answer.
        connection = http.client.HTTPConnection(*server.address, timeout=5.0)
        try:
            body = b" " * (4 << 20)
            connection.request("POST", "/attributes", body=body, headers={"Content-Length": "x"})
            assert connection.getresponse().status == 400
        finally:
            connection.close()

    @pytest.mark.parametrize(
        ("request_bytes", "status", "route"),
        [
            (b"PATCH /health HTTP/1.1\r\nHost: edge\r\n\r\n", 501, "/health"),
            (
                b"GET /health HTTP/1.1\r\nHost: edge\r\nX-Long: %s\r\n\r\n" % (b"x" * (70 << 10)),
                431,
                "/health",
            ),
            # no request line parsed: no route either
            (b"GARBAGE\r\n\r\n", 400, "/other"),
        ],
        ids=["unsupported-method", "header-line-too-long", "bad-request-line"],
    )
    def test_a_request_the_edge_refuses_gets_a_json_answer_and_is_counted_once(
        self, make_server, request_bytes, status, route
    ):
        registry = MetricsRegistry()
        with make_server(metrics=registry) as running:
            received = b""
            with socket.create_connection(running.address, timeout=2.0) as sock:
                sock.sendall(request_bytes)
                # Read to the end: the edge closes once the request is counted.
                with contextlib.suppress(ConnectionResetError):
                    while chunk := sock.recv(65536):
                        received += chunk
            counted = [
                line
                for line in registry.render().splitlines()
                if line.startswith("repro_http_requests_total{")
            ]
        head, _, body = received.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 %d " % status)
        assert b"Content-Type: application/json" in head
        assert b"Connection: close" in head
        assert json.loads(body)["error"]
        assert counted == [f'repro_http_requests_total{{route="{route}",status="{status}"}} 1']

    def test_reused_connection_does_not_stall(self, server):
        # One keep-alive connection, 50 sequential requests: a delayed-ACK
        # stall per response (~40 ms) would take about 2 s.
        connection = http.client.HTTPConnection(*server.address, timeout=2.0)
        try:
            started = time.perf_counter()
            for _ in range(50):
                connection.request("GET", "/health")
                response = connection.getresponse()
                assert response.status == 200
                response.read()
            elapsed = time.perf_counter() - started
        finally:
            connection.close()
        assert elapsed < 1.0

    def test_unknown_attribute_404_has_name(self, server):
        status, _, body = _request(server, "GET", "/attributes/missing/estimate?op=total")
        assert status == 404
        assert json.loads(body)["name"] == "missing"

    def test_empty_ingest_to_unknown_attribute_404(self, server):
        status, _, body = _request(
            server, "POST", "/attributes/missing/ingest", body=b'{"insert": [], "delete": []}'
        )
        assert status == 404
        assert json.loads(body)["name"] == "missing"

    def test_trace_id_is_adopted_and_echoed(self, make_server):
        with make_server(trace=True) as running:
            status, headers, body = _request(
                running, "GET", "/health", headers={TRACE_HEADER: "deadbeef42"}
            )
        assert status == 200
        assert headers[TRACE_HEADER] == "deadbeef42"
        assert json.loads(body)["status"] == "ok"

    @pytest.mark.parametrize("route", ["/metrics", "/profile"])
    def test_obs_routes_404_when_off(self, server, route):
        status, _, body = _request(server, "GET", route)
        assert status == 404
        assert "not enabled" in json.loads(body)["error"]

    def test_stop_without_start_releases_the_port(self, make_server):
        never_started = make_server()
        address = never_started.address
        never_started.stop()  # must not wait for a serve loop that never ran
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(address, timeout=2.0).close()

    def test_stop_of_an_idle_server_is_prompt(self, make_server):
        running = make_server().start()
        # The answer proves the serve loop runs; it is back in its wait now.
        assert _request(running, "GET", "/health")[0] == 200
        started = time.monotonic()
        running.stop()
        assert time.monotonic() - started < 0.25

    def test_stop_twice(self, make_server):
        running = make_server().start()
        assert _request(running, "GET", "/health")[0] == 200
        running.stop()
        running.stop()
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(running.address, timeout=2.0).close()


def _handler_threads(already=frozenset()):
    """Live per-connection edge threads (``ThreadingMixIn`` names them) not in ``already``."""
    return {
        thread
        for thread in threading.enumerate()
        if "process_request_thread" in thread.name and thread not in already
    }


def _kept_connection(server):
    """A raw keep-alive connection that has served one request."""
    connection = http.client.HTTPConnection(*server.address, timeout=2.0)
    connection.request("GET", "/health")
    response = connection.getresponse()
    response.read()
    assert response.status == 200 and not response.will_close
    return connection


def _stalled_body(server):
    """A client that announces a 100-byte body and sends one byte of it."""
    sock = socket.create_connection(server.address, timeout=2.0)
    sock.sendall(
        b"POST /attributes HTTP/1.1\r\nHost: edge\r\nContent-Length: 100\r\n\r\n{"
    )
    return sock


def _total(server, name):
    return server.backend.query(name, [{"op": "total"}])["results"][0]


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)
    return predicate()


class TestKeptConnections:
    def test_one_connection_per_client_thread(self, make_server):
        registry = MetricsRegistry()
        connections = registry.counter("repro_http_connections_total", "")
        open_now = registry.gauge("repro_http_open_connections", "")
        with make_server(metrics=registry) as running:
            client = StatisticsClient(*running.address)
            for _ in range(20):
                assert client.health()["status"] == "ok"
            assert connections.value() == 1

            def burst():
                for _ in range(10):
                    client.health()

            threads = [threading.Thread(target=burst) for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
            assert connections.value() == 4
        assert open_now.value() == 0

    def test_stop_closes_kept_connections(self, make_server):
        running = make_server().start()
        try:
            client = StatisticsClient(*running.address)
            client.create("age", "dc", memory_kb=0.5)
            client.ingest("age", insert=[1.0, 2.0])
            before = _total(running, "age")
            kept = _kept_connection(running)
        finally:
            running.stop()
        body = json.dumps({"insert": [3.0, 4.0, 5.0]})
        with pytest.raises((OSError, http.client.HTTPException)):
            kept.request("POST", "/attributes/age/ingest", body=body)
            kept.getresponse().read()
        kept.close()
        assert _total(running, "age") == before

    def test_no_handler_thread_survives_stop(self, make_server):
        already = _handler_threads()
        running = make_server().start()
        kept = [_kept_connection(running) for _ in range(2)]
        stalled = _stalled_body(running)
        try:
            assert _wait_for(lambda: len(_handler_threads(already)) == 3)
            running.stop()
            assert _handler_threads(already) == set()
        finally:
            running.stop()
            stalled.close()
            for connection in kept:
                connection.close()

    def test_idle_and_stalled_connections_time_out(self, make_server, monkeypatch):
        monkeypatch.setattr(EdgeHandler, "timeout", 0.3)
        registry = MetricsRegistry()
        requests = registry.counter("repro_http_requests_total", "", labelnames=("route", "status"))
        open_now = registry.gauge("repro_http_open_connections", "")
        already = _handler_threads()
        with make_server(metrics=registry) as running:
            kept = _kept_connection(running)
            stalled = _stalled_body(running)
            try:
                assert _wait_for(lambda: open_now.value() == 2)
                assert _wait_for(lambda: not _handler_threads(already))
                assert open_now.value() == 0
                # The stalled body counts as a request that got no answer.
                assert requests.value(route="/attributes", status="0") == 1
            finally:
                kept.close()
                stalled.close()

    @pytest.mark.parametrize(
        ("opening", "route"),
        [
            # the body or the headers trickle: a request that got no answer,
            # counted under its route with status 0
            (b"POST /attributes HTTP/1.1\r\nHost: edge\r\nContent-Length: 100\r\n\r\n{", "/attributes"),
            (b"GET /health HTTP/1.1\r\nHost: edge\r\nX-Slow: ", "/health"),
        ],
        ids=["body", "headers"],
    )
    def test_a_trickling_request_is_cut_off_at_its_deadline(
        self, make_server, monkeypatch, opening, route
    ):
        # One byte every 0.2 s never lets a 0.5 s read time out; the
        # request's deadline, 0.5 s from its first byte, still ends it.
        monkeypatch.setattr(EdgeHandler, "timeout", 0.5)
        monkeypatch.setattr("repro.service.server.CLOSE_LINGER_S", 0.1)
        registry = MetricsRegistry()
        requests = registry.counter("repro_http_requests_total", "", labelnames=("route", "status"))
        already = _handler_threads()
        with make_server(metrics=registry) as running:
            sock = socket.create_connection(running.address, timeout=2.0)
            try:
                sock.sendall(opening)
                started = time.monotonic()
                assert _wait_for(lambda: _handler_threads(already))
                while _handler_threads(already) and time.monotonic() - started < 3.0:
                    with contextlib.suppress(OSError):
                        sock.sendall(b" ")
                    time.sleep(0.2)
                released_after = time.monotonic() - started
            finally:
                sock.close()
            assert not _handler_threads(already)
            # deadline 0.5 s + close linger 0.1 s + one 0.2 s trickle step,
            # with slack for a loaded host; without a deadline: 3 s and alive
            assert released_after < 1.5
            other = {"/attributes": "/health", "/health": "/attributes"}[route]
            assert requests.value(route=route, status="0") == 1
            assert requests.value(route=other, status="0") == 0

    def test_the_request_deadline_spares_a_kept_alive_client(self, make_server, monkeypatch):
        # Requests 0.1 s apart on one connection for three deadlines' time:
        # the deadline is per request, so the connection is never cut.
        monkeypatch.setattr(EdgeHandler, "timeout", 0.5)
        monkeypatch.setattr("repro.service.client.REUSE_IDLE_LIMIT_S", 0.25)
        registry = MetricsRegistry()
        connections = registry.counter("repro_http_connections_total", "")
        with make_server(metrics=registry) as running:
            client = StatisticsClient(*running.address, retries=0)
            try:
                client.create("age", "dc", memory_kb=0.5)
                started = time.monotonic()
                while time.monotonic() - started < 1.5:
                    client.ingest("age", insert=[1.0, 2.0])
                    assert client.health()["status"] == "ok"
                    time.sleep(0.1)
                assert connections.value() == 1
            finally:
                client.close()

    def test_client_pausing_past_the_timeout_reconnects(self, make_server, monkeypatch):
        # The client's reuse limit is half the edge's timeout; patch both.
        monkeypatch.setattr(EdgeHandler, "timeout", 0.4)
        monkeypatch.setattr("repro.service.client.REUSE_IDLE_LIMIT_S", 0.2)
        registry = MetricsRegistry()
        connections = registry.counter("repro_http_connections_total", "")
        with make_server(metrics=registry) as running:
            client = StatisticsClient(*running.address, retries=0)
            try:
                client.create("age", "dc", memory_kb=0.5)
                time.sleep(0.6)
                client.ingest("age", insert=[1.0, 2.0, 3.0])
                assert _total(running, "age") == 3
                assert connections.value() == 2
            finally:
                client.close()

    def test_close_closes_the_connection_of_every_thread(self, make_server):
        with make_server() as running, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            client = StatisticsClient(*running.address)
            ports = []

            def use():
                assert client.health()["status"] == "ok"
                ports.append(client._kept.connection.sock.getsockname()[1])

            use()
            worker = threading.Thread(target=use)
            worker.start()
            worker.join()
            client.close()
            client.close()  # idempotent
            # A later request simply opens a new connection.
            use()
            client.close()
            del client, worker
            gc.collect()
        assert len(set(ports)) == 3
        unclosed = [
            str(warning.message)
            for warning in caught
            if issubclass(warning.category, ResourceWarning)
            and any(f"laddr=('127.0.0.1', {port})" in str(warning.message) for port in ports)
        ]
        assert unclosed == []

    @pytest.mark.parametrize("kind", ["StatisticsServer", "ClusterServer"])
    def test_acknowledged_writes_survive_stop(self, kind, tmp_path):
        """Writers on kept connections race stop(): every value the edge
        acknowledged is in the recovered WAL, and nothing else is."""
        wal_dirs = [tmp_path / "wal"] if kind == "StatisticsServer" else [
            tmp_path / f"shard-{i}" for i in range(2)
        ]
        stores = [HistogramStore.open(wal_dir)[0] for wal_dir in wal_dirs]
        if kind == "StatisticsServer":
            running = StatisticsServer(stores[0], pipeline=IngestPipeline(stores[0]))
        else:
            shards = [LocalShard(f"shard-{i}", store) for i, store in enumerate(stores)]
            running = ClusterServer(ClusterCoordinator(shards))
        running.start()
        StatisticsClient(*running.address).create("age", "dc", memory_kb=0.5)
        acked = [0] * 3
        stopped = threading.Event()

        def writer(index):
            connection = http.client.HTTPConnection(*running.address, timeout=5.0)
            body = json.dumps({"insert": [float(index)] * 3})
            after_stop = 0
            try:
                # Bounded, so a server that keeps serving after stop() fails
                # the count below instead of hanging the test.
                while after_stop < 3:
                    if stopped.is_set():
                        after_stop += 1
                    connection.request("POST", "/attributes/age/ingest", body=body)
                    response = connection.getresponse()
                    response.read()
                    if response.status not in (200, 202):
                        break
                    acked[index] += 3
            except (OSError, http.client.HTTPException):
                pass  # the stop closed this kept connection
            finally:
                connection.close()

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(3)]
        for thread in threads:
            thread.start()
        try:
            assert _wait_for(lambda: min(acked) >= 30)
        finally:
            running.stop()
            stopped.set()
            for thread in threads:
                thread.join(timeout=10)
            for store in stores:
                store.close()
        assert not any(thread.is_alive() for thread in threads)
        recovered = [HistogramStore.recover(wal_dir) for wal_dir in wal_dirs]
        total = sum(store.total_count("age") for store in recovered if "age" in store)
        for store in recovered:
            store.close()
        assert total == sum(acked)

    def test_stop_closes_a_pipelining_client_after_its_current_answer(self, tmp_path, monkeypatch):
        """Requests a client pipelined stay readable after the read-side
        shutdown; only closing after the in-flight answer keeps the handler
        from acknowledging them after the drain."""
        monkeypatch.setattr("repro.service.server.STOP_GRACE_S", 0.1)
        store = HistogramStore.open(tmp_path / "wal")[0]
        running = StatisticsServer(store, pipeline=IngestPipeline(store)).start()
        StatisticsClient(*running.address).create("age", "dc", memory_kb=0.5)
        body = b'{"insert": [1.0]}'
        request = b"POST /attributes/age/ingest HTTP/1.1\r\nHost: edge\r\n"
        request += b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
        sock = socket.create_connection(running.address, timeout=10.0)
        received = bytearray()

        def read_answers():
            with contextlib.suppress(OSError):
                while chunk := sock.recv(65536):
                    received.extend(chunk)

        def pipeline_requests():
            with contextlib.suppress(OSError):
                sock.sendall(request * 5000)

        threads = [threading.Thread(target=read_answers), threading.Thread(target=pipeline_requests)]
        for thread in threads:
            thread.start()
        try:
            assert _wait_for(lambda: received.count(b"HTTP/1.1 202") >= 50)
        finally:
            running.stop()
            for thread in threads:
                thread.join(timeout=10)
            sock.close()
            store.close()
        assert not any(thread.is_alive() for thread in threads)
        acked = received.count(b"HTTP/1.1 202")
        assert acked < 5000
        assert received.count(b"Connection: close") == 1
        recovered = HistogramStore.recover(tmp_path / "wal")
        assert recovered.total_count("age") == acked
        recovered.close()

    def test_stop_keeps_the_answers_a_late_reader_has_not_read(self, make_server):
        """A pipelining client that reads nothing until the edge is closing
        still receives the answer to every write the edge applied: the close
        waits for its answers to leave before it shuts the connection."""
        running = make_server().start()
        StatisticsClient(*running.address).create("age", "dc", memory_kb=0.5)
        body = b'{"insert": [1.0]}'
        request = b"POST /attributes/age/ingest HTTP/1.1\r\nHost: edge\r\n"
        request += b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
        sock = socket.socket()
        # A small receive window, so most unread answers wait in the edge's send queue.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.settimeout(10.0)
        sock.connect(running.address)
        received = bytearray()

        def pipeline_requests():
            # Input keeps arriving while the edge closes the connection.
            with contextlib.suppress(OSError):
                while True:
                    sock.sendall(request * 1000)

        def read_answers_late():
            time.sleep(0.2)  # until the edge is closing the connection
            with contextlib.suppress(OSError):
                while chunk := sock.recv(65536):
                    received.extend(chunk)

        sender = threading.Thread(target=pipeline_requests)
        reader = threading.Thread(target=read_answers_late)
        sender.start()
        try:
            assert _wait_for(lambda: _total(running, "age") >= 200)
            reader.start()
            running.stop()
            reader.join(timeout=10)
        finally:
            running.stop()
            with contextlib.suppress(OSError):
                sock.shutdown(socket.SHUT_RDWR)  # ends a send the closed edge never reset
            sender.join(timeout=10)
            sock.close()
        assert not sender.is_alive() and not reader.is_alive()
        assert received.count(b"HTTP/1.1 200") == _total(running, "age")
        assert received.count(b"Connection: close") == 1
