"""The HTTP edge contract, checked once per server kind.

``StatisticsServer`` and ``ClusterServer`` share one request handler and one
lifecycle (``repro.service.server.EdgeServer``); every test here runs against
both, so the contract cannot drift between them.
"""

import contextlib
import http.client
import json
import socket
import time

import pytest

from repro import HistogramStore, StatisticsServer
from repro.cluster import ClusterCoordinator, ClusterServer, LocalShard
from repro.obs import TRACE_HEADER


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

    def test_stop_twice(self, make_server):
        running = make_server().start()
        assert _request(running, "GET", "/health")[0] == 200
        running.stop()
        running.stop()
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(running.address, timeout=2.0).close()
