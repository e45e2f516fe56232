"""Stdlib-only JSON HTTP edge, and the statistics service served through it.

:class:`EdgeServer` and :class:`EdgeHandler` are the one HTTP edge both
server kinds run on: a ``http.server.ThreadingHTTPServer`` (one thread per
connection), body parsing, the error mapping, request and connection metrics
and tracing, the ``/metrics``, ``/profile`` and estimate routes, and the
start / stop lifecycle.

Connections are kept alive (HTTP/1.1) for at most
:data:`EDGE_IDLE_TIMEOUT_S` of silence between requests, and each request
must arrive whole -- request line, headers and body -- within
:data:`EDGE_IDLE_TIMEOUT_S` of its first byte: a connection idle that long,
or a request that slow, however steadily it trickles, is closed and its
thread freed.  :meth:`EdgeServer.stop` closes every kept connection before it
releases the kind's machinery (on a single node, the ingest pipeline's
drain), so no write is acknowledged after the drain.  Every close is staged,
so a pipelining client keeps its last answers.  :class:`StatisticsServer` puts a
:class:`~repro.service.store.HistogramStore` behind it and
:class:`~repro.cluster.server.ClusterServer` a cluster coordinator; each
kind adds only its own routes.  No third-party dependencies.

Routes (all payloads JSON).  ``cluster`` rows are served by
:class:`~repro.cluster.server.ClusterServer` only; its bodies for the shared
routes also carry cluster fields (``per_shard``, ``merged``,
``partitioned``):

======= ====== ================================== ==========================================
Kind    Method Path                               Meaning
======= ====== ================================== ==========================================
both    GET    /health                            liveness + attribute (and shard) counts
both    GET    /metrics                           Prometheus text exposition (when enabled)
both    GET    /profile                           hot-path attribution (when profiling)
both    GET    /stats                             stats of every attribute (+ pipeline counters)
both    GET    /attributes                        same as /stats
both    POST   /attributes                        create an attribute
both    GET    /attributes/<name>                 stats of one attribute
both    DELETE /attributes/<name>                 drop an attribute
both    POST   /attributes/<name>/ingest          {"insert": [..], "delete": [..]}
both    POST   /attributes/<name>/estimate        {"queries": [{"op": ...}, ...]}
both    GET    /attributes/<name>/estimate        single query via query string
both    GET    /attributes/<name>/snapshot        full serialised state
both    POST   /attributes/<name>/restore         restore from a snapshot payload
cluster GET    /cluster/stats                     per-shard stats, placement, merge cache
cluster POST   /cluster/ingest                    {"items": {<name>: [..] or {"insert", "delete"}}}
cluster POST   /attributes/<name>/rebalance       {"shard": <id>} -- move the attribute
cluster POST   /shards/<id>/drain                 move everything off one shard
cluster POST   /shards/<id>/resync                re-seed a recovered shard's replicas
======= ====== ================================== ==========================================

Errors map the same way on both kinds: 400 for a malformed request, 404
(with the structured ``name`` field) for an unknown attribute, 409 for a
duplicate create and 503 (with ``shard``) for an unreachable shard.  An
estimate batch is answered from one published snapshot without taking a
lock, so one response is always internally consistent.  When the service is
constructed with an :class:`~repro.service.ingest.IngestPipeline`, ingest
requests are buffered through it (202, ``"buffered": true``); otherwise they
are applied synchronously before the response is sent.
"""

from __future__ import annotations

import contextlib
import io
import json
import socket
import threading
import time
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, unquote, urlparse

from ..exceptions import (
    ConfigurationError,
    DuplicateAttributeError,
    HistogramError,
    ShardUnavailableError,
    UnknownAttributeError,
)
from ..obs.process import ProcessTelemetry
from ..obs.profile import DEFAULT_SAMPLE_INTERVAL_S, SamplingProfiler
from ..obs.registry import MetricsRegistry
from ..obs.trace import TRACE_HEADER, RequestObserver, route_label, use_trace
from .ingest import IngestPipeline
from .store import HistogramStore

__all__ = ["StatisticsServer"]

#: The exposition content type Prometheus scrapers expect.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: A route's answer: HTTP status and JSON body.
Reply = tuple[int, dict[str, Any]]

#: Seconds a kept connection may stay silent between requests, and seconds
#: one request may take to arrive from its first byte, before the edge closes
#: the connection and frees its thread.  ``StatisticsClient`` reuses a
#: connection only while it has been idle for less than half of this, so the
#: two never race.
EDGE_IDLE_TIMEOUT_S = 30.0

#: Seconds :meth:`EdgeServer.stop` waits for handlers still answering a
#: request before it releases the kind's machinery regardless.
STOP_GRACE_S = 5.0

#: Seconds a closing connection lingers at most (see ``_EdgeHTTPServer``).
CLOSE_LINGER_S = 1.0

#: Largest request body the edge reads, in bytes.  A longer declared body is
#: answered with 413 before any of it is read: reading allocates the declared
#: length up front and then waits for all of it.  The largest bodies this
#: repository's own clients send are far smaller: perfbench's
#: ``/cluster/ingest`` preload (278,433 bytes) and a ``restore`` of a 64 KB
#: DADO snapshot (417,417 bytes).
MAX_BODY_BYTES = 64 << 20

#: Seconds between the serving loop's checks of its shutdown flag.
#: :meth:`EdgeServer.stop` waits for the next check, and the standard
#: library's 0.5 s default made every stop cost half a second.
SERVE_POLL_INTERVAL_S = 0.05


class _BodyTooLarge(Exception):
    """A request declared a body longer than :data:`MAX_BODY_BYTES`."""


def _set_timeout(sock: socket.socket, seconds: float) -> None:
    """``sock.settimeout(seconds)``, skipped when it is set already.

    The call releases the GIL, and a request thread that must win it back
    from a busy ingest flush waits up to the interpreter's switch interval.
    """
    if sock.gettimeout() != seconds:
        sock.settimeout(seconds)


class _RequestReader(socket.SocketIO):
    """The raw reads under an :class:`EdgeHandler`'s ``rfile``.

    Between requests a read waits up to the handler's idle timeout; the
    first byte of a request starts its deadline, and every later read of it
    waits only for the time left, so a client that trickles bytes cannot
    hold the thread past it.  The expiry raises :class:`TimeoutError`, which
    the base class answers by closing the connection.
    """

    def __init__(self, handler: EdgeHandler) -> None:
        super().__init__(handler.connection, "rb")
        self._handler = handler

    def readinto(self, buffer: Any) -> int | None:
        handler = self._handler
        if handler.request_deadline is None:
            _set_timeout(self._sock, handler.timeout)
            count = super().readinto(buffer)
            if count:
                handler.request_deadline = time.monotonic() + handler.timeout
            return count
        remaining = handler.request_deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("the request did not arrive within its deadline")
        self._sock.settimeout(remaining)
        return super().readinto(buffer)


class EdgeHandler(BaseHTTPRequestHandler):
    """HTTP plumbing shared by both server kinds.

    Subclasses answer their own routes in :meth:`_backend_route`; everything
    else -- parsing, the error mapping, tracing, ``/metrics``, ``/profile``
    and the estimate routes -- lives here once.
    """

    protocol_version = "HTTP/1.1"
    # Buffered, so a response's headers and body leave in one write.
    wbufsize = -1
    # A response longer than the buffer takes several writes; Nagle would
    # hold the last one for the client's delayed ACK on a reused connection.
    disable_nagle_algorithm = True
    # The idle timeout, and each request's deadline (see _RequestReader): on
    # expiry the base class closes the connection.
    timeout = EDGE_IDLE_TIMEOUT_S

    # Set by EdgeServer when binding the handler class.
    edge: EdgeServer

    #: When the request being read must have arrived; ``None`` while idle.
    request_deadline: float | None = None

    def setup(self) -> None:
        super().setup()
        self.rfile.close()
        self.rfile = io.BufferedReader(_RequestReader(self))
        self._tracked = self.edge._track(self.connection)

    def handle_one_request(self) -> None:
        self.request_deadline = self.command = self._status_sent = None
        try:
            super().handle_one_request()
        finally:
            if self._status_sent is None and self.request_deadline is not None:
                # Cut off in its request line or headers: no answer, status 0,
                # as a request cut off in its body is counted.
                self._count_unhandled(0)

    def parse_request(self) -> bool:
        if self.request_deadline is None:
            # The request line came whole from the read buffer, sent behind
            # the previous request: its deadline starts now.
            self.request_deadline = time.monotonic() + self.timeout
        return super().parse_request()

    def handle(self) -> None:
        # A connection whose thread starts after stop() began is shut and closed unserved.
        if self._tracked:
            super().handle()
        else:
            with contextlib.suppress(OSError):
                self.connection.shutdown(socket.SHUT_RD)

    def finish(self) -> None:
        try:
            super().finish()
        finally:
            if self._tracked:
                self.edge._untrack(self.connection)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Write no per-request line to stderr; the request metrics count them."""

    def send_error(self, code: int, message: str | None = None, explain: str | None = None) -> None:
        """Refuse what the base class will not serve (a malformed request line,
        an overlong line, an unsupported method) with the edge's JSON body,
        closing the connection; counted once under its route, or ``/other``."""
        if not self.command:
            # The request line did not parse: answer it as HTTP/1.1, not 0.9.
            self.request_version = self.protocol_version
        self.close_connection = True
        self._trace_id = None
        self._status_sent = 0
        try:
            self._send_json(code, {"error": message or HTTPStatus(code).phrase})
        finally:
            self._count_unhandled(self._status_sent)

    def _count_unhandled(self, status: int) -> None:
        """Count a request the edge ended before :meth:`_handle` began."""
        observer = self.edge.observer
        if observer is None:
            return
        observer.finish(
            None,
            method=self.command or "",
            route=route_label(self._route()) if self.command else "/other",
            status=status,
            elapsed_s=time.monotonic() - (self.request_deadline - self.timeout),
        )

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _send_json(self, status: int, payload: dict[str, Any]) -> None:
        self._send_body(status, json.dumps(payload).encode("utf-8"), "application/json")

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        self._send_body(status, text.encode("utf-8"), content_type)

    def _send_body(self, status: int, body: bytes, content_type: str) -> None:
        # The request is read: its answer gets the whole timeout to leave.
        _set_timeout(self.connection, self.timeout)
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        trace_id = getattr(self, "_trace_id", None)
        if trace_id is not None:
            # Echo the request's trace id so callers can correlate responses
            # with the slow-request log.
            self.send_header(TRACE_HEADER, trace_id)
        if self.edge._stopped:
            # stop() has begun: answer this request, then let the thread go.
            self.close_connection = True
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)
        self.wfile.flush()
        # Set once the answer left: a request whose reply could not be
        # written is counted with status 0.
        self._status_sent = status

    def _read_json(self) -> dict[str, Any]:
        length_text = self.headers.get("Content-Length") or "0"
        if not length_text.isdecimal():
            # Where the body ends is unknown, so the connection cannot be reused.
            self.close_connection = True
            raise ValueError("Content-Length must be a non-negative integer")
        length = int(length_text)
        if length > MAX_BODY_BYTES:
            # Unread, the body cannot be skipped to reach a next request.
            self.close_connection = True
            raise _BodyTooLarge(
                f"request body of {length} bytes exceeds the limit of {MAX_BODY_BYTES} bytes"
            )
        if length == 0:
            return {}
        payload = json.loads(self.rfile.read(length).decode("utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def _route(self) -> tuple[str, ...]:
        parsed = urlparse(self.path)
        return tuple(unquote(part) for part in parsed.path.split("/") if part)

    def _query_params(self) -> dict[str, str]:
        parsed = urlparse(self.path)
        return {key: values[-1] for key, values in parse_qs(parsed.query).items()}

    def _handle(self, method: str) -> None:
        observer = self.edge.observer
        trace = None
        start = 0.0
        self._status_sent = 0
        self._trace_id = None
        if observer is not None:
            trace = observer.begin(self.headers.get(TRACE_HEADER))
            if trace is not None:
                self._trace_id = trace.trace_id
            start = time.perf_counter()
        # The trace is active for the whole dispatch, so coordinator fan-out
        # legs (which run on this thread) stamp the same id on every shard
        # request frame.  use_trace(None) is a no-op context: the untraced
        # path pays one threading.local swap.
        try:
            with use_trace(trace):
                self._handle_inner(method)
        finally:
            # Also when a socket error (a body read that timed out, a reset
            # while replying) ends the request; the base class then closes.
            if observer is not None:
                observer.finish(
                    trace,
                    method=method,
                    route=route_label(self._route()),
                    status=self._status_sent,
                    elapsed_s=time.perf_counter() - start,
                )

    def _handle_inner(self, method: str) -> None:
        try:
            payload = self._read_json() if method in ("POST", "PUT") else {}
        except _BodyTooLarge as error:
            self._send_json(413, {"error": str(error)})
            return
        except (ValueError, json.JSONDecodeError) as error:
            self._send_json(400, {"error": f"invalid JSON body: {error}"})
            return
        try:
            self._dispatch(method, self._route(), payload)
        except UnknownAttributeError as error:
            # `name` is the structured field clients parse; the message is
            # for humans (its quoting is not a stable contract).
            self._send_json(404, {"error": str(error), "name": error.name})
        except DuplicateAttributeError as error:
            self._send_json(409, {"error": str(error)})
        except ShardUnavailableError as error:
            self._send_json(503, {"error": str(error), "shard": error.shard_id})
        except (HistogramError, KeyError, TypeError, ValueError) as error:
            self._send_json(400, {"error": f"{type(error).__name__}: {error}"})
        except Exception as error:  # pragma: no cover - defensive
            self._send_json(500, {"error": f"{type(error).__name__}: {error}"})

    def do_GET(self) -> None:  # noqa: N802
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._handle("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._handle("DELETE")

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _dispatch(self, method: str, route: tuple[str, ...], payload: dict[str, Any]) -> None:
        edge = self.edge
        reply: Reply | None
        is_estimate = len(route) == 3 and route[0] == "attributes" and route[2] == "estimate"
        if is_estimate and method in ("GET", "POST"):
            reply = self._estimate(method, route[1], payload)
        elif route == ("metrics",) and method == "GET":
            if edge.metrics is not None:
                self._send_text(200, edge.render_metrics(), METRICS_CONTENT_TYPE)
                return
            reply = 404, {"error": "metrics are not enabled on this server"}
        elif route == ("profile",) and method == "GET":
            if edge.profiler is None:
                reply = 404, {"error": "profiling is not enabled on this server"}
            else:
                reply = 200, edge.profile_report()
        else:
            reply = self._backend_route(method, route, payload)
        if reply is None:
            reply = 404, {"error": f"no route for {method} {self.path}"}
        self._send_json(*reply)

    def _estimate(self, method: str, name: str, payload: dict[str, Any]) -> Reply:
        query = self.edge.backend.query
        if method == "POST":
            queries = payload.get("queries")
            if not isinstance(queries, list):
                raise ValueError('estimate body must contain a "queries" list')
            return 200, query(name, queries)
        single = {
            key: (value if key == "op" else float(value))
            for key, value in self._query_params().items()
        }
        response = query(name, [single])
        return 200, {"generation": response["generation"], "result": response["results"][0]}

    def _backend_route(
        self, method: str, route: tuple[str, ...], payload: dict[str, Any]
    ) -> Reply | None:
        """Answer one of the server kind's own routes; ``None`` when none matches."""
        raise NotImplementedError

    @staticmethod
    def _create_options(payload: dict[str, Any]) -> dict[str, Any]:
        """The ``POST /attributes`` fields both kinds' ``create`` accept."""
        return {
            "name": payload["name"],
            "kind": payload.get("kind", "dc"),
            "memory_kb": float(payload.get("memory_kb", 1.0)),
            "value_unit": float(payload.get("value_unit", 1.0)),
            "disk_factor": float(payload.get("disk_factor", 20.0)),
            "seed": int(payload.get("seed", 0)),
            "exist_ok": bool(payload.get("exist_ok", False)),
        }

    @staticmethod
    def _ingest_lists(payload: dict[str, Any]) -> tuple[list[Any], list[Any]]:
        """The ``insert`` / ``delete`` arrays of an ingest body."""
        inserts = payload.get("insert") or []
        deletes = payload.get("delete") or []
        if not isinstance(inserts, list) or not isinstance(deletes, list):
            raise ValueError('"insert" and "delete" must be JSON arrays of numbers')
        return inserts, deletes


def _unacknowledged(connection: socket.socket) -> bool:
    """Whether Linux's ``SIOCOUTQ`` (``TIOCOUTQ``'s number) is nonzero; False if unknown."""
    try:
        import fcntl
        import termios
        return fcntl.ioctl(connection.fileno(), termios.TIOCOUTQ, bytes(4)) != bytes(4)
    except (ImportError, OSError):
        return False


class _EdgeHTTPServer(ThreadingHTTPServer):
    """A thread per connection, and a close staged as RFC 9112 §9.6 asks.

    Closing over unread input resets the connection and loses the answers
    not yet acknowledged, so, within :data:`CLOSE_LINGER_S`: discard input
    until they are, shut the write side, discard input until the client
    closes.  They must be acknowledged first because after ``stop()``'s read
    shutdown, input arriving once the write side is shut resets too.
    """

    def shutdown_request(self, request: socket.socket) -> None:
        deadline = time.monotonic() + CLOSE_LINGER_S
        with contextlib.suppress(OSError):
            request.settimeout(0.0)
            while _unacknowledged(request) and time.monotonic() < deadline:
                with contextlib.suppress(BlockingIOError):
                    request.recv(65536)
                time.sleep(0.002)
            request.shutdown(socket.SHUT_WR)
            while (remaining := deadline - time.monotonic()) > 0:
                request.settimeout(remaining)
                if not request.recv(65536):
                    break
        request.close()


class EdgeServer:
    """The lifecycle both server kinds share: a threaded HTTP server over a backend.

    ``backend`` answers ``query(name, queries)`` and carries the ``metrics``
    registry the server reports into by default.  Subclasses set
    :attr:`handler_class`, :attr:`server_label` and :attr:`thread_name`, and
    hook their own start / stop work into :meth:`_on_start` /
    :meth:`_on_stop`.
    """

    handler_class: type[EdgeHandler]
    server_label: str
    thread_name: str

    def __init__(
        self,
        backend: Any,
        *,
        host: str,
        port: int,
        metrics: MetricsRegistry | None,
        slow_request_ms: float | None,
        trace: bool,
        trace_sink: Any | None,
        profile: bool | float,
    ) -> None:
        self.backend = backend
        # The server reports into the backend's registry by default, so one
        # scrape covers HTTP, store, WAL, pipeline and fan-out metrics;
        # tracing or a slow-request threshold forces a registry into existence.
        registry = metrics if metrics is not None else backend.metrics
        if registry is None and (trace or slow_request_ms is not None):
            registry = MetricsRegistry()
        self.metrics = registry
        self.observer: RequestObserver | None = None
        self.telemetry: ProcessTelemetry | None = None
        if registry is not None:
            self.observer = RequestObserver(
                registry,
                server_label=self.server_label,
                slow_request_ms=slow_request_ms,
                trace=trace,
                sink=trace_sink,
            )
            self.telemetry = ProcessTelemetry(registry)
        # profile=True samples at the default interval; a float is an
        # explicit sampling interval in seconds.  The profiler runs for the
        # server's whole lifetime and GET /profile reports the collapsed
        # hot-path attribution so far.
        self.profiler: SamplingProfiler | None = None
        if profile:
            interval = DEFAULT_SAMPLE_INTERVAL_S if profile is True else float(profile)
            self.profiler = SamplingProfiler(interval)
        bound = type(f"_Bound{self.handler_class.__name__}", (self.handler_class,), {"edge": self})
        self._httpd = _EdgeHTTPServer((host, port), bound)
        self._thread: threading.Thread | None = None
        self._started = False
        # Each open connection and the handler thread serving it, so stop()
        # can close kept connections and wait for their handlers.  The lock
        # guards only this map and the flag; socket calls happen outside it.
        self._connections: dict[socket.socket, threading.Thread] = {}
        self._connections_lock = threading.Lock()
        self._stopped = False

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` pair."""
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    def render_metrics(self) -> str:
        """The ``/metrics`` exposition, with the process vitals refreshed first."""
        assert self.metrics is not None and self.telemetry is not None
        self.telemetry.update()
        return self.metrics.render()

    def profile_report(self) -> dict[str, Any]:
        """The ``/profile`` body: the sampling profiler's attribution so far."""
        assert self.profiler is not None
        return self.profiler.attribution()

    def _track(self, connection: socket.socket) -> bool:
        """Record a handler's connection; ``False`` once :meth:`stop` has begun."""
        with self._connections_lock:
            if self._stopped:
                return False
            self._connections[connection] = threading.current_thread()
        if self.observer is not None:
            self.observer.connection_opened()
        return True

    def _untrack(self, connection: socket.socket) -> None:
        with self._connections_lock:
            del self._connections[connection]
        if self.observer is not None:
            self.observer.connection_closed()

    def _on_start(self) -> None:
        """Start the kind's own machinery before the first request is served."""

    def _on_stop(self) -> None:
        """Release the kind's own machinery after the last request was served."""

    def _begin(self) -> None:
        self._on_start()
        if self.profiler is not None:
            self.profiler.start()
        self._started = True

    def start(self) -> EdgeServer:
        """Serve requests from a background daemon thread."""
        if self._thread is None:
            self._begin()
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                args=(SERVE_POLL_INTERVAL_S,),
                name=self.thread_name,
                daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve requests on the calling thread until interrupted."""
        self._begin()
        self._httpd.serve_forever(SERVE_POLL_INTERVAL_S)

    def stop(self) -> None:
        """Stop serving, close kept connections, then release the kind's machinery.

        Stops accepting, then shuts the read side of every open connection:
        an idle handler reads EOF and exits, and one mid-request still
        writes its answer (with ``Connection: close``).  Those handlers get
        :data:`STOP_GRACE_S` to finish before :meth:`_on_stop` runs, so a
        write acknowledged on a kept connection is never lost to the
        pipeline drain.

        Idempotent, and safe on a server that was constructed but never
        started: ``BaseServer.shutdown`` would block forever waiting for a
        ``serve_forever`` loop that never ran, so it is only invoked after a
        start, while the bound socket is always closed.
        """
        with self._connections_lock:
            if self._stopped:
                return
            # From here no new connection is served (see _track).
            self._stopped = True
            kept = list(self._connections.items())
        if self._started:
            self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        for connection, _ in kept:
            with contextlib.suppress(OSError):  # its handler already closed it
                connection.shutdown(socket.SHUT_RD)
        deadline = time.monotonic() + STOP_GRACE_S
        for _, handler in kept:
            handler.join(max(0.0, deadline - time.monotonic()))
        if self.profiler is not None:
            self.profiler.stop()
        self._on_stop()

    def __enter__(self) -> EdgeServer:
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


class _StatisticsHandler(EdgeHandler):
    """The single-node routes, answered from the server's store."""

    server_version = "repro-statistics/1.0"
    edge: StatisticsServer

    def _backend_route(
        self, method: str, route: tuple[str, ...], payload: dict[str, Any]
    ) -> Reply | None:
        store = self.edge.store
        if route == ("health",) and method == "GET":
            return 200, {"status": "ok", "attributes": len(store)}
        if route in (("stats",), ("attributes",)) and method == "GET":
            body: dict[str, Any] = {
                "attributes": [stats.to_dict() for stats in store.stats_all()]
            }
            # /stats is the operator surface: it also reports the ingest
            # pipeline's lifetime counters (requeued/dropped make the
            # bounded-undercount policy visible).
            if route == ("stats",) and self.edge.pipeline is not None:
                body["pipeline"] = self.edge.pipeline.stats
            return 200, body
        if route == ("attributes",) and method == "POST":
            return 201, store.create(**self._create_options(payload)).to_dict()
        if len(route) == 2 and route[0] == "attributes":
            name = route[1]
            if method == "GET":
                return 200, store.stats(name).to_dict()
            if method == "DELETE":
                store.drop(name)
                return 200, {"dropped": name}
        if len(route) == 3 and route[0] == "attributes":
            name, action = route[1], route[2]
            if action == "ingest" and method == "POST":
                return self._ingest(name, payload)
            if action == "snapshot" and method == "GET":
                return 200, store.snapshot(name)
            if action == "restore" and method == "POST":
                snapshot = payload.get("snapshot", payload)
                return 200, store.restore(name, snapshot).to_dict()
        return None

    def _ingest(self, name: str, payload: dict[str, Any]) -> Reply:
        inserts, deletes = self._ingest_lists(payload)
        store, pipeline = self.edge.store, self.edge.pipeline
        if name not in store:
            raise UnknownAttributeError(name)
        if pipeline is not None:
            pipeline.submit(name, inserts)
            pipeline.submit_delete(name, deletes)
            return 202, {
                "buffered": True,
                "inserted": len(inserts),
                "deleted": len(deletes),
                "pending": pipeline.pending_count(name),
            }
        try:
            inserted = store.insert(name, inserts)
        except ConfigurationError:
            # Boundary validation rejects the batch before any mutation, so
            # the generic 400 handler is accurate here.
            raise
        except HistogramError as error:
            # insert_many cannot report how much of the batch was applied;
            # flag the partial apply and return the new generation so clients
            # know not to blindly retry.
            return 400, {
                "error": f"{type(error).__name__}: {error}",
                "partial": True,
                "generation": store.stats(name).generation,
            }
        try:
            deleted = store.delete(name, deletes)
        except HistogramError as error:
            # The insert half is already committed; a plain 400 would invite
            # the client to retry the whole batch and double-insert, so the
            # error response reports what was applied.
            return 400, {
                "error": f"{type(error).__name__}: {error}",
                "partial": True,
                "inserted": inserted,
                "generation": store.stats(name).generation,
            }
        return 200, {
            "buffered": False,
            "inserted": inserted,
            "deleted": deleted,
            "generation": store.stats(name).generation,
        }


class StatisticsServer(EdgeServer):
    """A threaded HTTP façade over a :class:`HistogramStore`.

    ``port=0`` binds an ephemeral port (the default, right for tests); the
    bound address is available as :attr:`address` after :meth:`start`.  The
    server runs in a daemon thread, so it never blocks interpreter exit; use
    :meth:`serve_forever` to run it in the foreground instead (the CLI does).

    Also usable as a context manager: entering starts the server, leaving
    stops it and closes the ingest pipeline (when one was supplied).
    """

    handler_class = _StatisticsHandler
    server_label = "service"
    thread_name = "repro-statistics-server"

    def __init__(
        self,
        store: HistogramStore | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        pipeline: IngestPipeline | None = None,
        metrics: MetricsRegistry | None = None,
        slow_request_ms: float | None = None,
        trace: bool = False,
        trace_sink: Any | None = None,
        profile: bool | float = False,
    ) -> None:
        self.store = store if store is not None else HistogramStore()
        self.pipeline = pipeline
        super().__init__(
            self.store,
            host=host,
            port=port,
            metrics=metrics,
            slow_request_ms=slow_request_ms,
            trace=trace,
            trace_sink=trace_sink,
            profile=profile,
        )

    def _on_start(self) -> None:
        if self.pipeline is not None:
            self.pipeline.start()

    def _on_stop(self) -> None:
        if self.pipeline is not None:
            self.pipeline.close()
