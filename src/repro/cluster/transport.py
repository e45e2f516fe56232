"""Binary shard transport: persistent connections + length-prefixed frames.

This is the one wire between the coordinator and a shard that lives in
another process.  Spawned shard processes (:mod:`repro.cluster.supervisor`)
speak it over a small pool of **persistent** connections, so no request pays
a TCP handshake or HTTP head parsing.

Every request is an ``(op, args)`` pair of :data:`~repro.cluster.protocol.OPS`,
which declares each op once (:data:`IDEMPOTENT_OPS` comes from there).  A
worker answers ``ping`` itself and every other request with
:func:`~repro.cluster.protocol.dispatch`, as the coordinator serves its
in-process legs, so an op the table refuses fails alike in both places.

Frame format
------------

Every request and response is one self-framing binary record -- the WAL's
framing discipline (see "Record format" in :mod:`repro.service.wal`) with its
own magic::

    MAGIC (2 bytes, b"SB") | length (4 bytes, big-endian) |
    crc32 (4 bytes, big-endian, over the payload) | payload (UTF-8 JSON)

The request payload is an envelope ``{"id": <int>, "op": <name>,
"args": {...}, "trace": <trace id or absent>}``; the response echoes the id:
``{"id": <int>, "ok": true, "result": ...}`` on success or ``{"id": <int>,
"ok": false, "error": {"type": ..., "message": ..., "name": ...}}`` on an
application error, where ``type`` is the exception class name from
:mod:`repro.exceptions` (reconstructed on the client from a whitelist -- an
unknown type degrades to :class:`~repro.exceptions.ServiceError`).

Retry discipline (REP011)
-------------------------

Every request takes one round trip, :func:`_exchange`, and is retried under
one budget, the client's ``retries``.  A connect failure cannot have reached
the shard, so :meth:`BinaryShardClient.checkout_with_retry` always retries
it, with bounded exponential backoff.  Once a frame reached the wire the
op's fate is unknown: only an op in :data:`IDEMPOTENT_OPS` (a read) is sent
again, at most ``retries`` more times; a write is sent exactly once, since
resending it over a fresh connection could double-apply it on a shard that
processed the request and lost only the reply.  The analysis rule REP011
machine-checks this file for that shape.

Non-blocking fan-out
--------------------

:func:`try_pipelined_scatter` takes the coordinator's legs to process shards
in the wire's own shape, ``{shard_id: (op, args)}``; in a mixed fleet the
coordinator dispatches its other legs in process.  When every target shard
is a :class:`ProcessShard`, the calling thread writes every request frame
back-to-back and then multiplexes the replies with :mod:`selectors` -- one
coordinator thread drives N shard processes, with no thread per shard.  A
single request (:meth:`ProcessShard._call`, and through it the supervisor's
pings) is a scatter of one leg.
"""

from __future__ import annotations

import itertools
import json
import selectors
import socket
import struct
import threading
import time
import zlib
from collections.abc import Callable, Mapping
from typing import Any

from ..exceptions import (
    ClusterError,
    ConfigurationError,
    DeletionError,
    DomainError,
    DuplicateAttributeError,
    EmptyHistogramError,
    HistogramError,
    InsufficientDataError,
    ServiceError,
    ShardUnavailableError,
    UnknownAttributeError,
)
from ..obs.trace import Trace, current_trace_id, use_trace
from .protocol import IDEMPOTENT_OPS, ShardBackend, dispatch

__all__ = [
    "FrameError",
    "IDEMPOTENT_OPS",
    "READY_PREFIX",
    "BinaryShardClient",
    "BinaryShardServer",
    "ProcessShard",
    "encode_frame",
    "try_pipelined_scatter",
]

#: Same header discipline as the WAL record format (``repro/service/wal.py``):
#: 2-byte magic + payload length + payload crc32, all big-endian.
_MAGIC = b"SB"
_HEADER = struct.Struct(">2sII")

#: First token of the one readiness line a shard worker process prints on
#: stdout (``REPRO-SHARD-READY shard=<id> port=<port> pid=<pid>
#: incarnation=<hex>``).  Lives here -- not in :mod:`repro.cluster.worker`
#: -- so the supervisor never imports the worker module the child
#: re-executes with ``-m``.
READY_PREFIX = "REPRO-SHARD-READY"

#: Upper bound on one frame's payload: large enough for any snapshot the
#: cluster ships around, small enough that a corrupt length field cannot make
#: the receiver try to buffer gigabytes.
MAX_PAYLOAD_BYTES = 1 << 28

#: Idle connections one :class:`BinaryShardClient` keeps open.
POOL_SIZE = 4

#: Exception classes the wire protocol transports by name.
_EXCEPTION_TYPES: dict[str, type[Exception]] = {
    cls.__name__: cls
    for cls in (
        HistogramError,
        ConfigurationError,
        EmptyHistogramError,
        DomainError,
        DeletionError,
        InsufficientDataError,
        ServiceError,
        UnknownAttributeError,
        DuplicateAttributeError,
        ClusterError,
    )
}


class FrameError(ConnectionError):
    """A frame failed validation (magic/length/crc) or the peer closed.

    Subclasses :class:`ConnectionError` (hence :class:`OSError`) so every
    transport-failure path -- the retry loops, ``ShardUnavailableError``
    classification -- treats a torn or corrupt frame exactly like a dead
    connection, which is what it means.
    """


def _json_default(value: Any) -> Any:
    # Callers hand the coordinator numpy scalars/arrays; the wire is JSON.
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    tolist = getattr(value, "tolist", None)
    if callable(tolist):
        return tolist()
    raise TypeError(f"cannot serialise {type(value).__name__} on the shard wire")


def encode_frame(payload: Mapping[str, Any]) -> bytes:
    """Encode one envelope as ``magic | length | crc32 | JSON payload``."""
    body = json.dumps(payload, separators=(",", ":"), default=_json_default).encode(
        "utf-8"
    )
    if len(body) > MAX_PAYLOAD_BYTES:
        raise FrameError(f"frame payload of {len(body)} bytes exceeds the protocol cap")
    return _HEADER.pack(_MAGIC, len(body), zlib.crc32(body) & 0xFFFFFFFF) + body


class _FrameParser:
    """Incremental frame decoder over an append-only byte buffer."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> None:
        self._buffer.extend(data)

    def pop(self) -> dict[str, Any] | None:
        """Decode and remove one complete frame, or return None."""
        if len(self._buffer) < _HEADER.size:
            return None
        magic, length, crc = _HEADER.unpack_from(self._buffer)
        if magic != _MAGIC:
            raise FrameError(f"bad frame magic {bytes(magic)!r}")
        if length > MAX_PAYLOAD_BYTES:
            raise FrameError(f"frame length {length} exceeds the protocol cap")
        end = _HEADER.size + length
        if len(self._buffer) < end:
            return None
        body = bytes(self._buffer[_HEADER.size : end])
        del self._buffer[:end]
        if zlib.crc32(body) & 0xFFFFFFFF != crc:
            raise FrameError("frame payload failed its crc32 check")
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise FrameError(f"frame payload is not valid JSON: {error}") from error
        if not isinstance(payload, dict):
            raise FrameError("frame payload must be a JSON object")
        return payload


def describe_exception(error: Exception) -> dict[str, Any]:
    """The wire form of an application error raised by a shard op."""
    info: dict[str, Any] = {"type": type(error).__name__, "message": str(error)}
    name = getattr(error, "name", None)
    if isinstance(name, str):
        info["name"] = name
    return info


def build_exception(info: Mapping[str, Any]) -> Exception:
    """Reconstruct a shard-side application error from its wire form."""
    type_name = str(info.get("type", "ServiceError"))
    message = str(info.get("message", type_name))
    cls = _EXCEPTION_TYPES.get(type_name)
    name = info.get("name")
    if cls in (UnknownAttributeError, DuplicateAttributeError) and isinstance(name, str):
        return cls(name)
    if cls is not None:
        try:
            return cls(message)
        except Exception:  # pragma: no cover - exotic constructor signature
            pass
    return ServiceError(f"{type_name}: {message}")


def _request_frame(
    connection: ShardConnection, op: str, args: Mapping[str, Any]
) -> tuple[int, bytes]:
    """The next request id on ``connection`` and the frame that carries it."""
    request_id = connection.next_request_id()
    payload: dict[str, Any] = {"id": request_id, "op": op, "args": dict(args)}
    trace_id = current_trace_id()
    if trace_id is not None:
        payload["trace"] = trace_id
    return request_id, encode_frame(payload)


def _reply_outcome(reply: Mapping[str, Any], request_id: int) -> tuple[bool, Any]:
    """``(True, result)``, or ``(False, the shard's application error)``.

    A reply to another request raises :class:`FrameError`: the stream is out
    of step, like a torn frame.
    """
    if reply.get("id") != request_id:
        raise FrameError(f"reply id {reply.get('id')!r} does not match request {request_id}")
    if reply.get("ok"):
        return True, reply.get("result")
    error_info = reply.get("error")
    return False, build_exception(error_info if isinstance(error_info, Mapping) else {})


class ShardConnection:
    """One persistent connection with its incremental frame parser."""

    _CHUNK = 65536

    def __init__(self, sock: socket.socket) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._parser = _FrameParser()
        self._ids = itertools.count(1)

    def next_request_id(self) -> int:
        return next(self._ids)

    def fileno(self) -> int:
        return self._sock.fileno()

    def set_blocking(self, blocking: bool, timeout: float | None = None) -> None:
        if blocking:
            self._sock.settimeout(timeout)
        else:
            self._sock.setblocking(False)

    def send(self, frame: bytes) -> None:
        self._sock.sendall(frame)

    def receive_step(self) -> dict[str, Any] | None:
        """One non-blocking read step; a complete frame, or None for 'not yet'."""
        payload = self._parser.pop()
        if payload is not None:
            return payload
        try:
            chunk = self._sock.recv(self._CHUNK)
        except (BlockingIOError, InterruptedError):
            return None
        if not chunk:
            raise FrameError("connection closed before a complete reply frame")
        self._parser.feed(chunk)
        return self._parser.pop()

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass


class BinaryShardClient:
    """Connection pool and retry settings for one :class:`BinaryShardServer`.

    ``timeout`` bounds one round of a request, ``retries`` is the one retry
    budget (extra connect attempts per send, and extra sends of an
    idempotent op), and the backoff doubles from ``retry_backoff``.  The
    pool keeps up to :data:`POOL_SIZE` idle connections; a scatter can check
    out more (they are closed on check-in once the pool is full).
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
        self.timeout = float(timeout)
        if retries < 0:
            raise ConfigurationError(f"retries must be >= 0, got {retries}")
        self.retries = int(retries)
        self.retry_backoff = float(retry_backoff)
        self._idle: list[ShardConnection] = []
        self._pool_lock = threading.Lock()
        self._closed = False
        self.transport_stats = {"connect_retries": 0, "backoff_seconds": 0.0}
        self._stats_lock = threading.Lock()
        self._m_connect_retries: Any | None = None
        self._m_backoff_seconds: Any | None = None
        self._endpoint = f"{host}:{port}"

    def bind_metrics(self, metrics: Any) -> None:
        """Mirror transport stats into ``metrics`` with an endpoint label."""
        self._m_connect_retries = metrics.counter(
            "repro_client_connect_retries_total",
            "Connection attempts that failed and were retried, per endpoint",
            labelnames=("endpoint",),
        )
        self._m_backoff_seconds = metrics.counter(
            "repro_client_retry_backoff_seconds_total",
            "Total time slept in retry backoff, per endpoint",
            labelnames=("endpoint",),
        )

    def _record_connect_failure(self) -> None:
        with self._stats_lock:
            self.transport_stats["connect_retries"] += 1
        if self._m_connect_retries is not None:
            self._m_connect_retries.inc(1, endpoint=self._endpoint)

    def backoff(self, attempt: int) -> float:
        """Record and return the pause before retry ``attempt`` (1-based)."""
        pause = self.retry_backoff * (2 ** (attempt - 1))
        with self._stats_lock:
            self.transport_stats["backoff_seconds"] += pause
        if self._m_backoff_seconds is not None:
            self._m_backoff_seconds.inc(pause, endpoint=self._endpoint)
        return pause

    # -- pool ----------------------------------------------------------
    def checkout_with_retry(self) -> ShardConnection:
        """A pooled connection, or a freshly connected one (connect phase).

        Nothing has reached the shard yet, so a failed connect is always
        retried, with backoff; the last failure propagates as
        :class:`OSError`.
        """
        last_error: OSError | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(self.backoff(attempt))
            with self._pool_lock:
                if self._closed:
                    raise FrameError("client is closed")
                if self._idle:
                    return self._idle.pop()
            # Connect OUTSIDE the pool lock: socket I/O under a held lock
            # would stall every concurrent checkout (and trips the lockcheck
            # monitor).
            try:
                sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
            except OSError as error:
                self._record_connect_failure()
                last_error = error
                continue
            return ShardConnection(sock)
        assert last_error is not None
        raise last_error

    def checkin(self, connection: ShardConnection) -> None:
        connection.set_blocking(True, self.timeout)
        with self._pool_lock:
            if not self._closed and len(self._idle) < POOL_SIZE:
                self._idle.append(connection)
                return
        connection.close()

    def discard(self, connection: ShardConnection) -> None:
        """Close a connection that failed, and the idle ones with it.

        They all reach the same worker, and a failure most often means that
        worker exited: after a respawn on the same port, reusing the dead
        idle connections would spend a read's whole retry budget on them.
        """
        with self._pool_lock:
            idle, self._idle = self._idle, []
        for dead in (connection, *idle):
            dead.close()

    def close(self) -> None:
        """Close every pooled connection (idempotent)."""
        with self._pool_lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()


class ProcessShard(ShardBackend):
    """A shard served by a spawned process over the binary transport.

    The coordinator's scatter (:func:`try_pipelined_scatter`) multiplexes
    this backend's persistent connections, and a lone request,
    :meth:`_call`, is a scatter of one leg; either way a request is an
    ``(op, args)`` pair of :data:`~repro.cluster.protocol.OPS`.
    Transport failures (after the client's bounded retries) are wrapped into
    :class:`~repro.exceptions.ShardUnavailableError` carrying this shard's
    id, so callers can tell "shard down" from "bad request".

    :attr:`incarnation` is the token the worker printed in its readiness
    line.  The :class:`~repro.cluster.supervisor.ShardSupervisor` sets it at
    spawn and again when it respawns the worker; it stays ``None`` on a
    shard built by hand, whose views the coordinator then never holds.
    """

    def __init__(self, shard_id: str, client: BinaryShardClient) -> None:
        super().__init__(shard_id)
        self.client = client

    def bind_metrics(self, metrics: Any) -> None:
        self.client.bind_metrics(metrics)

    def _unavailable(self, error: Exception) -> ShardUnavailableError:
        return ShardUnavailableError(self.shard_id, error)

    def _call(self, op: str, args: Mapping[str, Any]) -> Any:
        ok, value, _ = _exchange({self.shard_id: (self, (op, dict(args)))})[self.shard_id]
        if not ok:
            raise value
        return value


# ----------------------------------------------------------------------
# server side
# ----------------------------------------------------------------------
class BinaryShardServer:
    """Serve one backend over the binary frame protocol.

    The server answers ``ping`` itself and every other request with
    :func:`~repro.cluster.protocol.dispatch`.  One daemon thread accepts;
    each persistent connection gets its own daemon thread (a coordinator
    holds a handful of connections per shard, not one per request, so the
    thread count is bounded by peers, not load).
    """

    def __init__(
        self, backend: ShardBackend, *, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.backend = backend
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(64)
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._stopping = threading.Event()
        self._accept_thread: threading.Thread | None = None
        self._conn_lock = threading.Lock()
        self._connections: set[socket.socket] = set()

    def start(self) -> BinaryShardServer:
        if self._accept_thread is None:
            self._accept_thread = threading.Thread(
                target=self._accept_loop, name="repro-shard-accept", daemon=True
            )
            self._accept_thread.start()
        return self

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                sock, _ = self._listener.accept()
            except OSError:
                break  # listener closed by stop()
            with self._conn_lock:
                if self._stopping.is_set():
                    sock.close()
                    break
                self._connections.add(sock)
            threading.Thread(
                target=self._serve_connection,
                args=(sock,),
                name="repro-shard-conn",
                daemon=True,
            ).start()

    def _serve_connection(self, sock: socket.socket) -> None:
        parser = _FrameParser()
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while not self._stopping.is_set():
                try:
                    payload = parser.pop()
                except FrameError:
                    return  # corrupt stream: drop the connection
                if payload is None:
                    chunk = sock.recv(65536)
                    if not chunk:
                        return
                    parser.feed(chunk)
                    continue
                sock.sendall(encode_frame(self._respond(payload)))
        except OSError:
            pass  # peer went away mid-read/write
        finally:
            sock.close()
            with self._conn_lock:
                self._connections.discard(sock)

    def _respond(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        request_id = payload.get("id")
        op = payload.get("op")
        args = payload.get("args") or {}
        trace_id = payload.get("trace")
        try:
            if op == "ping":
                result: Any = {"status": "ok", "shard": self.backend.shard_id}
            else:
                # Re-activate the caller's trace so shard-side spans and logs
                # carry the same id the coordinator stamped on the request.
                with use_trace(Trace(trace_id) if isinstance(trace_id, str) else None):
                    result = dispatch(self.backend, op, args)
            return {"id": request_id, "ok": True, "result": result}
        except Exception as error:
            return {"id": request_id, "ok": False, "error": describe_exception(error)}

    def stop(self) -> None:
        """Close the listener and every open connection (idempotent)."""
        self._stopping.set()
        # A thread blocked in accept() is not reliably woken by close() on
        # Linux; a throwaway self-connection guarantees the accept returns
        # and the loop observes the stop flag.
        try:
            with socket.create_connection(self.address, timeout=1.0):
                pass
        except OSError:
            pass
        self._listener.close()
        with self._conn_lock:
            connections = list(self._connections)
            self._connections.clear()
        for sock in connections:
            sock.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None

    def __enter__(self) -> BinaryShardServer:
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


# ----------------------------------------------------------------------
# non-blocking scatter (the coordinator's fan-out over process shards)
# ----------------------------------------------------------------------
def try_pipelined_scatter(
    shards: Mapping[str, ShardBackend], legs: Mapping[str, tuple[str, dict[str, Any]]]
) -> dict[str, tuple[bool, Any, float]] | None:
    """Send one ``(op, args)`` leg per process shard without extra threads.

    Returns ``{shard_id: (ok, value, elapsed_s)}`` -- ``value`` is the op's
    result when ``ok`` and an exception otherwise (transport failures already
    wrapped as :class:`ShardUnavailableError`, application errors
    reconstructed) -- or ``None`` when some member is not a
    :class:`ProcessShard` (the caller then runs the legs itself).
    """
    if not shards or not all(
        isinstance(shard, ProcessShard) for shard in shards.values()
    ):
        return None
    return _execute_scatter(
        {shard_id: (shard, legs[shard_id]) for shard_id, shard in shards.items()}
    )


def _execute_scatter(
    legs: Mapping[str, tuple[ProcessShard, tuple[str, dict[str, Any]]]],
) -> dict[str, tuple[bool, Any, float]]:
    """The pipelined scatter: every leg through :func:`_exchange`.

    :meth:`ProcessShard._call` calls :func:`_exchange` itself, so a tool that
    wraps both this function and ``_call`` (``perfbench/layers.py``) sees
    each op once.
    """
    return _exchange(legs)


def _exchange(
    legs: Mapping[str, tuple[ProcessShard, tuple[str, dict[str, Any]]]],
) -> dict[str, tuple[bool, Any, float]]:
    """Send every leg and gather its reply: the transport's one round trip.

    Each round runs :func:`_send_and_receive` over the legs still open.  A
    leg whose frame may have reached the wire but got no usable reply is
    *lost*: a read in :data:`IDEMPOTENT_OPS` goes out again in the next
    round, after backoff, until its client's ``retries`` are spent; any
    other op finishes as unavailable at once (REP011).  So an idempotent op
    is sent at most ``retries + 1`` times, and a write exactly once.

    Returns ``{shard_id: (ok, value, elapsed_s)}``: ``value`` is the op's
    result when ``ok`` and an exception otherwise (transport failures
    wrapped as :class:`ShardUnavailableError`, application errors
    reconstructed); ``elapsed_s`` runs from the first round's start.
    """
    start = time.perf_counter()
    outcomes: dict[str, tuple[bool, Any, float]] = {}

    def finish(shard_id: str, ok: bool, value: Any) -> None:
        outcomes[shard_id] = (ok, value, time.perf_counter() - start)

    todo, rounds = dict(legs), 0
    while todo:
        if rounds:
            time.sleep(max(shard.client.backoff(rounds) for shard, _ in todo.values()))
        lost = _send_and_receive(todo, finish)
        rounds += 1
        todo = {}
        for shard_id, error in lost.items():
            shard, (op, _) = legs[shard_id]
            idempotent = op in IDEMPOTENT_OPS
            if idempotent and rounds <= shard.client.retries:
                todo[shard_id] = legs[shard_id]
            else:
                finish(shard_id, False, shard._unavailable(error))
    return outcomes


def _send_and_receive(
    legs: Mapping[str, tuple[ProcessShard, tuple[str, dict[str, Any]]]],
    finish: Callable[[str, bool, Any], None],
) -> dict[str, OSError]:
    """One round: send every leg's frame, then multiplex the replies.

    Phase 1 checks out a connection per leg (a connect failure, retried
    there, finishes the leg as unavailable: nothing reached the shard) and
    writes every request frame back-to-back.  Phase 2 reads the replies on
    the calling thread until the largest client timeout.  Answered legs go
    to ``finish``; the lost ones are returned with their errors.
    """
    lost: dict[str, OSError] = {}
    pending: dict[str, tuple[ShardConnection, int]] = {}
    for shard_id, (shard, (op, args)) in legs.items():
        client = shard.client
        try:
            connection = client.checkout_with_retry()
        except OSError as error:
            finish(shard_id, False, shard._unavailable(error))
            continue
        request_id, frame = _request_frame(connection, op, args)
        try:
            connection.send(frame)
        except OSError as error:
            # Nothing guarantees the frame left this host, but nothing
            # guarantees it did not: the op's fate is unknown.
            client.discard(connection)
            lost[shard_id] = error
        else:
            connection.set_blocking(False)
            pending[shard_id] = (connection, request_id)
    if not pending:
        return lost

    deadline = time.perf_counter() + max(legs[shard_id][0].client.timeout for shard_id in pending)
    selector = selectors.DefaultSelector()
    for shard_id, (connection, _) in pending.items():
        selector.register(connection, selectors.EVENT_READ, shard_id)
    try:
        while pending:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                for shard_id, (connection, _) in pending.items():
                    legs[shard_id][0].client.discard(connection)
                    lost[shard_id] = socket.timeout("no reply frame within the client timeout")
                break
            for key, _events in selector.select(remaining):
                shard_id = key.data
                connection, request_id = pending[shard_id]
                client = legs[shard_id][0].client
                try:
                    reply = connection.receive_step()
                    if reply is None:
                        continue  # no whole frame yet
                    outcome = _reply_outcome(reply, request_id)
                except OSError as error:
                    # A closed or corrupt stream, or a reply to another
                    # request: no usable reply, the op's fate is unknown.
                    selector.unregister(connection)
                    client.discard(connection)
                    lost[shard_id] = error
                else:
                    selector.unregister(connection)
                    client.checkin(connection)
                    finish(shard_id, *outcome)
                del pending[shard_id]
    finally:
        selector.close()
    return lost
