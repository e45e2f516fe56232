"""Stdlib HTTP client for the statistics service.

A thin JSON wrapper over :mod:`http.client` mirroring every server route, so
tests (and the CLI's ``store-stats`` command) can drive an in-process
:class:`~repro.service.server.StatisticsServer` without third-party
dependencies.

Each thread that calls a client keeps one HTTP/1.1 connection of its own
(in a :class:`threading.local`), so one client is safe to share between
threads and a thread's sequential requests pay one TCP handshake and one
server handler thread, not one per request.  Before a request is written on
a kept connection, two checks decide whether it is reused:

* it has been idle for less than :data:`REUSE_IDLE_LIMIT_S`, half the
  edge's idle timeout, so the server never closes it under the write;
* a zero-timeout readability probe finds nothing to read.  An idle
  connection that reads EOF was closed by the server (a restart, a stop);
  one that holds bytes no request asked for cannot be trusted either.

Otherwise the connection is dropped and a new one is opened, *before*
anything is written.  An answer that will close the connection
(``Connection: close``, HTTP/1.0) is never reused, and a connection whose
request failed is discarded.  :meth:`StatisticsClient.close` closes every
connection the client keeps, on every thread; a later request opens a new
one.

Attribute names are URL-escaped with :func:`urllib.parse.quote` (``safe=''``),
so names containing ``/``, spaces or ``%`` route correctly; the server
unquotes each path segment on the way in.

Connection failures are retried with bounded exponential backoff (a server
may still be binding or briefly restarting).  Retries never risk
double-applying a write: a *connect* failure is always retriable because
nothing reached the server, while a failure after the request was handed to
the transport is only retried for idempotent ``GET`` requests -- a ``POST``
whose fate is unknown is raised immediately so the caller decides (REP011).
That holds on a reused connection too: the probe runs before the write, so
a stale kept connection costs a reconnect, never a re-sent ``POST``.
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time
from http.client import HTTPConnection, HTTPException
from collections.abc import Mapping, Sequence
from typing import Any
from urllib.parse import quote

from .._validation import require_positive_float
from ..exceptions import ServiceError, UnknownAttributeError
from ..obs.trace import TRACE_HEADER, current_trace_id
from .server import EDGE_IDLE_TIMEOUT_S

__all__ = ["StatisticsClient"]

#: A kept connection idle this long is replaced rather than reused.
REUSE_IDLE_LIMIT_S = EDGE_IDLE_TIMEOUT_S / 2


def _nothing_to_read(sock: socket.socket | None, timeout: float | None) -> bool:
    """The zero-timeout readability probe: ``True`` when ``sock`` is open and silent."""
    if sock is None:  # closed by StatisticsClient.close()
        return False
    try:
        sock.settimeout(0.0)
        # EOF (the server closed) or bytes no request asked for.
        sock.recv(1, socket.MSG_PEEK)
    except BlockingIOError:
        return True
    except OSError:  # reset by the server
        return False
    finally:
        sock.settimeout(timeout)
    return False


class StatisticsClient:
    """Client for a running :class:`StatisticsServer` at ``host:port``.

    Parameters
    ----------
    retries:
        Additional attempts after a retriable transport failure (0 disables
        retrying; default 2, i.e. up to 3 connection attempts).
    retry_backoff:
        Sleep before the first retry, doubled on each subsequent one.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 10.0,
        retries: int = 2,
        retry_backoff: float = 0.05,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if retries:
            require_positive_float(retry_backoff, "retry_backoff")
        self.retries = int(retries)
        self.retry_backoff = float(retry_backoff)
        # Per thread: ``connection`` (kept, or absent) and ``idle_since``.
        self._kept = threading.local()
        # Every connection opened and not closed yet, on any thread, for close().
        self._open: set[HTTPConnection] = set()
        self._open_lock = threading.Lock()

    def close(self) -> None:
        """Close every thread's kept connection (idempotent); a later request opens a new one."""
        with self._open_lock:
            connections, self._open = self._open, set()
        for connection in connections:
            connection.close()

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _discard(self, connection: HTTPConnection) -> None:
        connection.close()
        with self._open_lock:
            self._open.discard(connection)

    def _reusable_connection(self) -> HTTPConnection | None:
        """Take this thread's kept connection if it is safe to write to.

        A connection that fails a check, or that :meth:`close` closed, is
        dropped here, before anything is written, so replacing it is a
        connect-phase step.
        """
        connection = getattr(self._kept, "connection", None)
        if connection is None:
            return None
        self._kept.connection = None
        idle_s = time.monotonic() - self._kept.idle_since
        if idle_s < REUSE_IDLE_LIMIT_S and _nothing_to_read(connection.sock, self.timeout):
            return connection
        self._discard(connection)
        return None

    def _raw_request(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        headers: Mapping[str, str] | None = None,
    ) -> tuple[int, bytes]:
        headers = dict(headers or {})
        # Propagate the active trace so one id follows the request through
        # coordinator fan-out legs down to each shard's request log.
        trace_id = current_trace_id()
        if trace_id is not None:
            headers[TRACE_HEADER] = trace_id
        idempotent = method == "GET"
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(self.retry_backoff * (2 ** (attempt - 1)))
            connection = self._reusable_connection()
            if connection is None:
                connection = HTTPConnection(self.host, self.port, timeout=self.timeout)
                try:
                    # Connect separately from sending: a failure here cannot
                    # have reached the server, so it is always safe to retry.
                    connection.connect()
                except OSError as error:
                    last_error = error
                    continue
                with self._open_lock:
                    self._open.add(connection)
            try:
                connection.request(method, path, body=body, headers=headers)
                response = connection.getresponse()
                raw = response.read()
            except (OSError, HTTPException) as error:
                self._discard(connection)
                # The request may or may not have been processed; only an
                # idempotent GET can be retried without double-applying.
                if not idempotent:
                    raise
                last_error = error
                continue
            if response.will_close:
                self._discard(connection)
            else:
                self._kept.connection = connection
                self._kept.idle_since = time.monotonic()
            return response.status, raw
        assert last_error is not None
        raise last_error

    def _request(
        self, method: str, path: str, payload: Mapping[str, Any] | None = None
    ) -> dict[str, Any]:
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        status, raw = self._raw_request(method, path, body, headers)
        try:
            decoded = json.loads(raw.decode("utf-8")) if raw else {}
        except json.JSONDecodeError:
            decoded = {"error": raw.decode("utf-8", "replace")}
        if status >= 400:
            message = decoded.get("error", f"HTTP {status}")
            if status == 404 and "unknown attribute" in str(message):
                raise UnknownAttributeError(
                    self._unknown_attribute_name(decoded, str(message))
                )
            error = ServiceError(f"HTTP {status}: {message}")
            # Expose the structured body (e.g. partial-apply reports from
            # /ingest) to callers that need more than the message.
            error.payload = decoded
            raise error
        return decoded

    @staticmethod
    def _unknown_attribute_name(decoded: Mapping[str, Any], message: str) -> str:
        """Best-effort attribute name from a 404 body.

        Prefers the server's structured ``name`` field; falls back to the
        first quoted token of the human-readable message.  A body without
        either (an old server, a proxy error page that happens to contain
        the trigger phrase) yields the whole message rather than crashing
        the client on a parse assumption.
        """
        name = decoded.get("name")
        if isinstance(name, str) and name:
            return name
        match = re.search(r"'([^']*)'", message)
        if match is not None:
            return match.group(1)
        return message

    @staticmethod
    def _attribute_path(name: str, action: str = "") -> str:
        path = f"/attributes/{quote(name, safe='')}"
        return f"{path}/{action}" if action else path

    # ------------------------------------------------------------------
    # API surface
    # ------------------------------------------------------------------
    def health(self) -> dict[str, Any]:
        """Liveness probe."""
        return self._request("GET", "/health")

    def metrics_text(self) -> str:
        """Fetch the Prometheus text exposition (``GET /metrics``) verbatim."""
        status, raw = self._raw_request("GET", "/metrics")
        text = raw.decode("utf-8")
        if status >= 400:
            raise ServiceError(f"HTTP {status}: {text.strip()}")
        return text

    def create(
        self,
        name: str,
        kind: str = "dc",
        *,
        memory_kb: float = 1.0,
        value_unit: float = 1.0,
        disk_factor: float = 20.0,
        seed: int = 0,
        exist_ok: bool = False,
    ) -> dict[str, Any]:
        """Create an attribute on the server; returns its stats."""
        return self._request(
            "POST",
            "/attributes",
            {
                "name": name,
                "kind": kind,
                "memory_kb": memory_kb,
                "value_unit": value_unit,
                "disk_factor": disk_factor,
                "seed": seed,
                "exist_ok": exist_ok,
            },
        )

    def drop(self, name: str) -> dict[str, Any]:
        """Drop an attribute."""
        return self._request("DELETE", self._attribute_path(name))

    def stats(self, name: str | None = None) -> dict[str, Any]:
        """Stats of one attribute, or of every attribute when ``name`` is None."""
        if name is None:
            return self._request("GET", "/stats")
        return self._request("GET", self._attribute_path(name))

    def ingest(
        self,
        name: str,
        insert: Sequence[float] = (),
        delete: Sequence[float] = (),
    ) -> dict[str, Any]:
        """Send a batch of inserts and/or deletes for one attribute."""
        return self._request(
            "POST",
            self._attribute_path(name, "ingest"),
            {"insert": list(insert), "delete": list(delete)},
        )

    def query(self, name: str, queries: Sequence[Mapping[str, Any]]) -> dict[str, Any]:
        """Evaluate a consistent batch of estimate queries (one lock on the server)."""
        return self._request(
            "POST", self._attribute_path(name, "estimate"), {"queries": list(queries)}
        )

    def estimate_range(self, name: str, low: float, high: float) -> float:
        """Estimated number of values in the closed range [low, high]."""
        response = self.query(name, [{"op": "range", "low": low, "high": high}])
        return float(response["results"][0])

    def estimate_equal(self, name: str, value: float) -> float:
        """Estimated number of values equal to ``value``."""
        response = self.query(name, [{"op": "equal", "value": value}])
        return float(response["results"][0])

    def cdf(self, name: str, xs: Sequence[float]) -> list[float]:
        """Approximate CDF evaluated at each point of ``xs``."""
        response = self.query(name, [{"op": "cdf", "xs": list(xs)}])
        return [float(v) for v in response["results"][0]]

    def total_count(self, name: str) -> float:
        """Total number of values represented for ``name``."""
        response = self.query(name, [{"op": "total"}])
        return float(response["results"][0])

    def snapshot(self, name: str) -> dict[str, Any]:
        """Fetch the full serialised state of one attribute."""
        return self._request("GET", self._attribute_path(name, "snapshot"))

    def restore(self, name: str, snapshot: Mapping[str, Any]) -> dict[str, Any]:
        """Restore an attribute from a :meth:`snapshot` payload."""
        return self._request(
            "POST", self._attribute_path(name, "restore"), {"snapshot": dict(snapshot)}
        )
