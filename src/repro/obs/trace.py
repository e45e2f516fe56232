"""Lightweight request tracing: trace ids, spans, and the slow-request log.

A trace follows one request through the stack: the ``X-Repro-Trace-Id``
header is generated at the edge (the first server that sees the request
without one, or a client that opened a trace explicitly), propagated
client -> ``StatisticsServer`` -> ``ClusterCoordinator`` -> every shard
fan-out leg, and echoed back on the response.  Along the way each layer
records named spans (one ``fanout:<shard>`` span per shard leg) onto the
active :class:`Trace`; when a request finishes above the configured
slow-request threshold, the trace is emitted as one structured JSON line.

The active trace rides a ``threading.local``: :func:`use_trace` activates a
trace for the current thread.  The HTTP client attaches the active trace's
id to outgoing requests automatically, and the binary shard transport puts
it in every request frame's envelope; the worker re-activates it around the
op it serves -- that is how one trace spans the coordinator's shard legs.

Span recording appends to a list under the trace's own lock -- a leaf lock,
like the metric locks (see :mod:`repro.obs.registry`): no span or metric
update path acquires store locks or blocks on I/O (repro-verify REP009).
"""

from __future__ import annotations

import json
import logging
import threading
import time
import uuid
from collections.abc import Callable
from contextlib import contextmanager
from typing import Any

from .registry import LATENCY_BUCKETS_S, MetricsRegistry

__all__ = [
    "TRACE_HEADER",
    "Trace",
    "RequestObserver",
    "current_trace",
    "current_trace_id",
    "new_trace_id",
    "use_trace",
]

#: The propagation header, generated at the edge when absent.
TRACE_HEADER = "X-Repro-Trace-Id"

#: Structured slow-request log lines go here unless a sink is supplied.
_SLOW_LOGGER = logging.getLogger("repro.obs.slowlog")


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id."""
    return uuid.uuid4().hex[:16]


class Trace:
    """One request's identity plus its recorded spans.

    Spans are ``(name, offset_s, duration_s)`` triples relative to the
    trace's start; :meth:`span` and :meth:`add_span` may be called from any
    thread (appends serialise on the trace's leaf lock).
    """

    __slots__ = ("trace_id", "started", "_lock", "_spans")

    def __init__(self, trace_id: str | None = None) -> None:
        self.trace_id = trace_id or new_trace_id()
        self.started = time.perf_counter()
        self._lock = threading.Lock()
        self._spans: list[tuple[str, float, float]] = []

    @contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield self
        finally:
            end = time.perf_counter()
            with self._lock:
                self._spans.append((name, start - self.started, end - start))

    def add_span(self, name: str, offset_s: float, duration_s: float) -> None:
        with self._lock:
            self._spans.append((name, float(offset_s), float(duration_s)))

    def spans(self) -> list[tuple[str, float, float]]:
        with self._lock:
            return list(self._spans)

    def to_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "spans": [
                {
                    "name": name,
                    "offset_ms": round(offset * 1000.0, 3),
                    "duration_ms": round(duration * 1000.0, 3),
                }
                for name, offset, duration in self.spans()
            ],
        }


_active = threading.local()


def current_trace() -> Trace | None:
    """The trace active on this thread, if any."""
    return getattr(_active, "trace", None)


def current_trace_id() -> str | None:
    trace = current_trace()
    return trace.trace_id if trace is not None else None


@contextmanager
def use_trace(trace: Trace | None):
    """Activate ``trace`` for the current thread (restores the previous one).

    Passing ``None`` is a no-op context, so call sites need no branching:
    ``with use_trace(current_trace_captured_earlier): ...``.
    """
    previous = getattr(_active, "trace", None)
    _active.trace = trace
    try:
        yield trace
    finally:
        _active.trace = previous


def _default_sink(entry: dict[str, Any]) -> None:
    _SLOW_LOGGER.warning(json.dumps(entry, sort_keys=True))


class RequestObserver:
    """Per-server HTTP observability: route metrics, tracing, slow-request log.

    One instance per server process, shared by every handler thread.  The
    handler calls :meth:`begin` with the incoming trace header (a trace is
    opened when tracing is enabled or the caller already carries an id --
    propagation is never refused), dispatches inside ``use_trace``, then
    calls :meth:`finish`, which records the per-route latency metrics and
    emits the structured slow-request line when the request ran longer than
    ``slow_request_ms``.  The handler also reports each connection it opens
    and closes, which shows how often clients reuse one.
    """

    def __init__(
        self,
        metrics: MetricsRegistry,
        *,
        server_label: str = "service",
        slow_request_ms: float | None = None,
        trace: bool = False,
        sink: Callable[[dict[str, Any]], None] | None = None,
    ) -> None:
        self.metrics = metrics
        self.server_label = server_label
        self.slow_request_ms = slow_request_ms
        self.trace_enabled = bool(trace) or slow_request_ms is not None
        self.sink = sink if sink is not None else _default_sink
        self._m_seconds = metrics.distribution(
            "repro_http_request_seconds",
            "HTTP request latency per route template",
            LATENCY_BUCKETS_S,
            labelnames=("route",),
        )
        self._m_requests = metrics.counter(
            "repro_http_requests_total",
            "HTTP requests served, per route template and status code",
            labelnames=("route", "status"),
        )
        self._m_slow = metrics.counter(
            "repro_http_slow_requests_total",
            "Requests that exceeded the slow-request threshold",
            labelnames=("route",),
        )
        self._m_connections = metrics.counter(
            "repro_http_connections_total", "HTTP connections accepted"
        )
        self._m_open_connections = metrics.gauge(
            "repro_http_open_connections", "HTTP connections open now"
        )

    def connection_opened(self) -> None:
        """Count a connection the edge accepted and is now serving."""
        self._m_connections.inc()
        self._m_open_connections.inc()

    def connection_closed(self) -> None:
        """A served connection was closed (by either side, or by ``stop``)."""
        self._m_open_connections.dec()

    def begin(self, header_id: str | None) -> Trace | None:
        """Open a trace for one request (or pass when tracing is off).

        An incoming ``X-Repro-Trace-Id`` always opens a trace -- the caller
        opted in upstream; without one, the edge generates an id only when
        tracing is enabled here.
        """
        if header_id:
            return Trace(str(header_id))
        if self.trace_enabled:
            return Trace()
        return None

    def finish(
        self,
        trace: Trace | None,
        *,
        method: str,
        route: str,
        status: int,
        elapsed_s: float,
    ) -> None:
        """Record one finished request: metrics, then the slow log."""
        self._m_seconds.observe(elapsed_s, route=route)
        self._m_requests.inc(1, route=route, status=str(status))
        elapsed_ms = elapsed_s * 1000.0
        if self.slow_request_ms is None or elapsed_ms < self.slow_request_ms:
            return
        self._m_slow.inc(1, route=route)
        entry = {
            "event": "slow_request",
            "server": self.server_label,
            "method": method,
            "route": route,
            "status": status,
            "duration_ms": round(elapsed_ms, 3),
            "threshold_ms": self.slow_request_ms,
        }
        if trace is not None:
            entry.update(trace.to_dict())
        self.sink(entry)


#: The only attribute sub-actions that may appear in a route template.
#: Everything else -- typos, scans, overlong paths -- collapses to /other,
#: so no request shape can mint new label values.
_ATTRIBUTE_ACTIONS = frozenset(
    {"ingest", "estimate", "snapshot", "restore", "rebalance"}
)
_SHARD_ACTIONS = frozenset({"drain", "resync"})


def route_label(route: tuple[str, ...]) -> str:
    """Collapse a request path to a low-cardinality route template.

    Attribute and shard names are replaced with placeholders, and the final
    action segment is admitted only from the fixed route tables above;
    unknown heads, unknown actions and overlong garbage paths all collapse
    to ``/other`` so a scan of random URLs cannot inflate the metric label
    space.
    """
    if not route:
        return "/"
    head = route[0]
    if head == "attributes":
        if len(route) == 1:
            return "/attributes"
        if len(route) == 2:
            return "/attributes/{name}"
        if len(route) == 3 and route[2] in _ATTRIBUTE_ACTIONS:
            return f"/attributes/{{name}}/{route[2]}"
        return "/other"
    if head == "shards" and len(route) == 3 and route[2] in _SHARD_ACTIONS:
        return f"/shards/{{id}}/{route[2]}"
    if head in ("health", "stats", "metrics", "profile") and len(route) == 1:
        return "/" + head
    if head == "cluster" and len(route) == 2 and route[1] in ("stats", "ingest"):
        return "/cluster/" + route[1]
    return "/other"
