"""Unit tests for the persistent binary shard transport.

Covers the frame codec (WAL-style ``magic | length | crc32 | JSON``
framing), the error-reconstruction whitelist, the REP011 retry discipline
of the one round trip (connect-phase always retriable; after the wire an
idempotent op is sent at most ``retries + 1`` times, a write once, alone or
as a scatter leg), and the pipelined ``(op, args)`` scatter.
"""

import socket
import struct
import threading

import pytest

from repro.cluster import BinaryShardClient, BinaryShardServer, LocalShard, ProcessShard
from repro.cluster.transport import (
    IDEMPOTENT_OPS,
    POOL_SIZE,
    FrameError,
    _FrameParser,
    _execute_scatter,
    build_exception,
    describe_exception,
    encode_frame,
    try_pipelined_scatter,
)
from repro.core.segment_view import SegmentView
from repro.exceptions import (
    DuplicateAttributeError,
    ServiceError,
    ShardUnavailableError,
    UnknownAttributeError,
)
from repro.service import HistogramStore


@pytest.fixture
def server():
    store = HistogramStore()
    backend = LocalShard("shard-0", store)
    with BinaryShardServer(backend) as running:
        yield running
    store.close()


@pytest.fixture
def client(server):
    host, port = server.address
    c = BinaryShardClient(host, port, timeout=10.0, retries=2, retry_backoff=0.01)
    yield c
    c.close()


@pytest.fixture
def shard(client):
    return ProcessShard("shard-0", client)


class TestFrameCodec:
    def test_roundtrip(self):
        parser = _FrameParser()
        parser.feed(encode_frame({"id": 1, "op": "ping", "args": {}}))
        assert parser.pop() == {"id": 1, "op": "ping", "args": {}}
        assert parser.pop() is None

    def test_incremental_feed(self):
        frame = encode_frame({"id": 2, "ok": True, "result": [1.5, 2.5]})
        parser = _FrameParser()
        for offset in range(len(frame)):
            parser.feed(frame[offset : offset + 1])
        assert parser.pop() == {"id": 2, "ok": True, "result": [1.5, 2.5]}

    def test_two_frames_one_buffer(self):
        parser = _FrameParser()
        parser.feed(encode_frame({"id": 1}) + encode_frame({"id": 2}))
        assert parser.pop() == {"id": 1}
        assert parser.pop() == {"id": 2}

    def test_bad_magic_rejected(self):
        frame = bytearray(encode_frame({"id": 1}))
        frame[0:2] = b"WR"  # a WAL record is NOT a transport frame
        parser = _FrameParser()
        parser.feed(bytes(frame))
        with pytest.raises(FrameError, match="magic"):
            parser.pop()

    def test_corrupt_payload_fails_crc(self):
        frame = bytearray(encode_frame({"id": 1, "op": "ingest"}))
        frame[-1] ^= 0xFF
        parser = _FrameParser()
        parser.feed(bytes(frame))
        with pytest.raises(FrameError, match="crc32"):
            parser.pop()

    def test_oversize_length_rejected_before_buffering(self):
        header = struct.Struct(">2sII").pack(b"SB", 1 << 30, 0)
        parser = _FrameParser()
        parser.feed(header)
        with pytest.raises(FrameError, match="cap"):
            parser.pop()

    def test_non_object_payload_rejected(self):
        body = b"[1,2,3]"
        import zlib

        frame = struct.Struct(">2sII").pack(b"SB", len(body), zlib.crc32(body)) + body
        parser = _FrameParser()
        parser.feed(frame)
        with pytest.raises(FrameError, match="object"):
            parser.pop()


class TestErrorReconstruction:
    def test_unknown_attribute_keeps_name(self):
        info = describe_exception(UnknownAttributeError("age"))
        rebuilt = build_exception(info)
        assert isinstance(rebuilt, UnknownAttributeError)
        assert rebuilt.name == "age"

    def test_duplicate_attribute_keeps_name(self):
        rebuilt = build_exception(describe_exception(DuplicateAttributeError("age")))
        assert isinstance(rebuilt, DuplicateAttributeError)
        assert rebuilt.name == "age"

    def test_unlisted_type_degrades_to_service_error(self):
        rebuilt = build_exception({"type": "SystemExit", "message": "nope"})
        assert type(rebuilt) is ServiceError
        assert "SystemExit" in str(rebuilt)

    def test_empty_info_degrades_to_service_error(self):
        assert isinstance(build_exception({}), ServiceError)


class TestRoundTrip:
    def test_create_ingest_query_stats(self, shard):
        shard._call("create", {"name": "age", "kind": "dc", "memory_kb": 0.5})
        values = [float(v % 50) for v in range(500)]
        shard._call("ingest_many", {"items": {"age": {"insert": values}}})
        stats = shard._call("stats", {"name": "age"})
        assert stats["total_count"] == pytest.approx(500.0)
        view = SegmentView.from_wire(shard._call("published", {"name": "age"})["view"])
        assert view.range_count(0.0, 50.0) == pytest.approx(500.0, rel=0.05)
        assert shard._call("names", {}) == ["age"]
        assert shard._call("health", {})["status"] == "ok"

    def test_snapshot_restore_bit_identical(self, shard):
        shard._call("create", {"name": "age", "kind": "dc", "memory_kb": 0.5})
        values = [float(v % 90) for v in range(700)]
        shard._call("ingest_many", {"items": {"age": {"insert": values}}})
        snapshot = shard._call("snapshot", {"name": "age"})
        shard._call("drop", {"name": "age"})
        shard._call("create", {"name": "age", "kind": "dc", "memory_kb": 0.5})
        shard._call("restore", {"name": "age", "snapshot": snapshot})
        restored = shard._call("snapshot", {"name": "age"})
        # Identical state; only the restored attribute's own mutation counter
        # differs (create + restore each bump it).
        assert {k: v for k, v in restored.items() if k != "generation"} == {
            k: v for k, v in snapshot.items() if k != "generation"
        }

    def test_ingest_many_applies_a_stream_in_one_frame(self, server, shard):
        shard._call("create", {"name": "a", "kind": "dc", "memory_kb": 0.5})
        shard._call("create", {"name": "b", "kind": "dc", "memory_kb": 0.5})
        counts = shard._call(
            "ingest_many",
            {"items": {"a": {"insert": [1.0, 2.0]}, "b": {"insert": [3.0], "delete": [3.0]}}},
        )
        token = server.backend.incarnation
        assert counts == {
            "inserted": 3,
            "deleted": 1,
            "versions": {"a": [token, 1], "b": [token, 2]},
        }
        with pytest.raises(UnknownAttributeError):
            shard._call(
                "ingest_many", {"items": {"b": {"insert": [4.0]}, "ghost": {"insert": [5.0]}}}
            )
        assert shard._call("stats", {"name": "b"})["total_count"] == pytest.approx(1.0)

    def test_application_error_crosses_the_wire(self, shard):
        with pytest.raises(UnknownAttributeError) as excinfo:
            shard._call("stats", {"name": "missing"})
        assert excinfo.value.name == "missing"

    def test_generation_advances(self, shard):
        shard._call("create", {"name": "age", "kind": "dc", "memory_kb": 0.5})
        before = shard._call("published", {"name": "age"})["generation"]
        shard._call("ingest_many", {"items": {"age": {"insert": [1.0]}}})
        assert shard._call("published", {"name": "age"})["generation"] > before

    def test_ping_answers_without_backend_dispatch(self, shard):
        assert shard._call("ping", {})["status"] == "ok"

    def test_unknown_op_rejected(self, shard):
        with pytest.raises(ServiceError, match="unknown shard op"):
            shard._call("shutdown", {})

    def test_ingest_many_is_the_only_value_op(self, shard):
        shard._call("create", {"name": "age", "kind": "dc", "memory_kb": 0.5})
        with pytest.raises(ServiceError, match="unknown shard op 'ingest'"):
            shard._call("ingest", {"name": "age", "insert": [1.0]})
        assert shard._call("stats", {"name": "age"})["total_count"] == pytest.approx(0.0)

    def test_estimates_are_not_a_shard_op(self, shard):
        # The front end answers estimates from the published views it holds.
        shard._call("create", {"name": "age", "kind": "dc", "memory_kb": 0.5})
        with pytest.raises(ServiceError, match="unknown shard op 'query'"):
            shard._call("query", {"name": "age", "queries": [{"op": "total"}]})

    def test_connection_pool_reuses_sockets(self, client, shard):
        shard._call("ping", {})
        connection = client.checkout_with_retry()
        client.checkin(connection)
        assert client.checkout_with_retry() is connection
        client.checkin(connection)
        for _ in range(5):
            shard._call("ping", {})
        # Sequential calls never needed a second connection.
        assert len(client._idle) == 1


class TestRetryDiscipline:
    def test_connect_phase_retries_then_raises(self):
        # A port nothing listens on: every attempt fails in the connect
        # phase, which is always retriable -- then the last error surfaces.
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()
        client = BinaryShardClient(
            "127.0.0.1", port, timeout=1.0, retries=2, retry_backoff=0.01
        )
        shard = ProcessShard("shard-0", client)
        with pytest.raises(ShardUnavailableError) as excinfo:
            shard._call("ingest_many", {"items": {"age": {"insert": [1.0]}}})
        assert isinstance(excinfo.value.cause, OSError)
        assert client.transport_stats["connect_retries"] == 3

    def test_post_wire_failure_on_write_never_retries(self, server, client, shard):
        shard._call("create", {"name": "age", "kind": "dc", "memory_kb": 0.5})
        # Poison the pooled connection: the next send/receive fails after
        # the frame may have reached the wire.
        connection = client.checkout_with_retry()
        client.checkin(connection)
        connection._sock.close()
        with pytest.raises(ShardUnavailableError):
            shard._call("ingest_many", {"items": {"age": {"insert": [2.0]}}})
        # No silent replay happened: the value was never applied.
        assert shard._call("stats", {"name": "age"})["total_count"] == pytest.approx(0.0)

    def test_post_wire_failure_on_read_retries_on_fresh_connection(
        self, server, client, shard
    ):
        shard._call("create", {"name": "age", "kind": "dc", "memory_kb": 0.5})
        connection = client.checkout_with_retry()
        client.checkin(connection)
        connection._sock.close()
        assert shard._call("names", {}) == ["age"]  # retried transparently

    def test_a_read_reaches_a_worker_restarted_behind_a_full_pool(self):
        # The worker restarts on the same port, so every pooled connection
        # is dead; the first failure drops them all and the re-ask connects.
        server = BinaryShardServer(LocalShard("shard-0")).start()
        host, port = server.address
        client = BinaryShardClient(host, port, retries=2, retry_backoff=0.001)
        pooled = [client.checkout_with_retry() for _ in range(POOL_SIZE)]
        for connection in pooled:
            client.checkin(connection)
        server.stop()
        restarted = BinaryShardServer(LocalShard("shard-0"), port=port).start()
        try:
            assert ProcessShard("shard-0", client)._call("names", {}) == []
        finally:
            restarted.stop()
            client.close()

    def test_idempotent_op_set_is_reads_only(self):
        assert "ingest_many" not in IDEMPOTENT_OPS
        assert "restore" not in IDEMPOTENT_OPS
        assert "create" not in IDEMPOTENT_OPS
        assert "drop" not in IDEMPOTENT_OPS
        assert {"names", "published", "stats", "snapshot", "health"} <= IDEMPOTENT_OPS

    def test_client_close_is_idempotent(self, client, shard):
        shard._call("ping", {})
        client.close()
        client.close()
        with pytest.raises(FrameError, match="closed"):
            client.checkout_with_retry()


class _ReplyDropper:
    """A shard endpoint that reads one request frame per connection and
    closes it unanswered: every send's fate is unknown to the client."""

    def __init__(self) -> None:
        self.ops: list[str] = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()[:2]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return  # closed by stop()
            with sock:
                parser = _FrameParser()
                payload = None
                while payload is None:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    parser.feed(chunk)
                    payload = parser.pop()
                if payload is not None:
                    self.ops.append(payload["op"])

    def stop(self) -> None:
        self._listener.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept()
        self._listener.close()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()


class TestRetryBudget:
    """One budget: a read goes out at most ``retries + 1`` = 3 times and a
    write once, whether it is a lone call or one leg of a scatter."""

    @pytest.fixture
    def dropper(self):
        endpoint = _ReplyDropper()
        yield endpoint
        endpoint.stop()

    @pytest.fixture
    def dropping_shard(self, dropper):
        client = BinaryShardClient(*dropper.address, timeout=5.0, retries=2, retry_backoff=0.001)
        yield ProcessShard("dropping", client)
        client.close()

    WRITE = ("ingest_many", {"items": {"age": {"insert": [1.0]}}})

    def test_a_lone_read_is_sent_retries_plus_one_times(self, dropper, dropping_shard):
        with pytest.raises(ShardUnavailableError):
            dropping_shard._call("published", {"name": "age"})
        assert dropper.ops == ["published"] * 3

    def test_a_lone_write_is_sent_once(self, dropper, dropping_shard):
        with pytest.raises(ShardUnavailableError):
            dropping_shard._call(*self.WRITE)
        assert dropper.ops == ["ingest_many"]

    @pytest.mark.parametrize(
        ("leg", "sends"), [(("published", {"name": "age"}), 3), (WRITE, 1)]
    )
    def test_a_scatter_leg_keeps_the_same_budget(
        self, dropper, dropping_shard, shard, leg, sends
    ):
        shard._call("create", {"name": "age", "kind": "dc", "memory_kb": 0.5})
        op, args = leg
        outcomes = _execute_scatter(
            {"dropping": (dropping_shard, leg), "shard-0": (shard, (op, args))}
        )
        assert dropper.ops == [op] * sends
        ok, error, _ = outcomes["dropping"]
        assert not ok and isinstance(error, ShardUnavailableError)
        assert outcomes["shard-0"][0]  # the healthy leg answered


class TestPipelinedScatter:
    @pytest.fixture
    def fleet(self):
        stores = [HistogramStore() for _ in range(2)]
        servers = []
        shards = {}
        clients = []
        for index, store in enumerate(stores):
            shard_id = f"shard-{index}"
            server = BinaryShardServer(LocalShard(shard_id, store)).start()
            servers.append(server)
            host, port = server.address
            client = BinaryShardClient(host, port, retry_backoff=0.01)
            clients.append(client)
            shards[shard_id] = ProcessShard(shard_id, client)
        yield shards
        for client in clients:
            client.close()
        for server in servers:
            server.stop()
        for store in stores:
            store.close()

    @staticmethod
    def legs(fleet, op, **args):
        return {shard_id: (op, dict(args)) for shard_id in fleet}

    def test_simple_call_is_pipelined(self, fleet):
        outcome = try_pipelined_scatter(fleet, self.legs(fleet, "create", name="age", kind="dc"))
        assert outcome is not None
        assert set(outcome) == {"shard-0", "shard-1"}
        assert all(ok for ok, _, _ in outcome.values())
        names = try_pipelined_scatter(fleet, self.legs(fleet, "names"))
        assert names is not None
        assert [value for _, value, _ in names.values()] == [["age"], ["age"]]

    def test_per_shard_payloads_are_recorded(self, fleet):
        try_pipelined_scatter(fleet, self.legs(fleet, "create", name="age", kind="dc"))
        payloads = {"shard-0": [1.0, 2.0], "shard-1": [3.0]}
        outcome = try_pipelined_scatter(
            fleet,
            {
                shard_id: ("ingest_many", {"items": {"age": {"insert": values}}})
                for shard_id, values in payloads.items()
            },
        )
        assert outcome is not None
        counts = try_pipelined_scatter(fleet, self.legs(fleet, "stats", name="age"))
        assert counts is not None
        totals = {sid: value["total_count"] for sid, (_, value, _) in counts.items()}
        assert totals == {"shard-0": pytest.approx(2.0), "shard-1": pytest.approx(1.0)}

    def test_application_error_is_an_outcome_not_a_raise(self, fleet):
        outcome = try_pipelined_scatter(fleet, self.legs(fleet, "stats", name="missing"))
        assert outcome is not None
        for ok, value, _ in outcome.values():
            assert not ok
            assert isinstance(value, UnknownAttributeError)

    def test_non_process_shard_falls_back(self, fleet):
        mixed = dict(fleet)
        mixed["local"] = LocalShard("local")
        assert try_pipelined_scatter(mixed, self.legs(mixed, "names")) is None

    def test_dead_shard_is_an_unavailable_outcome(self, fleet):
        try_pipelined_scatter(fleet, self.legs(fleet, "create", name="age", kind="dc"))
        # Kill shard-1's server; its pooled connection and reconnects fail.
        client = fleet["shard-1"].client
        client.close()
        dead = BinaryShardClient(
            client.host, 1, timeout=0.5, retries=0, retry_backoff=0.01
        )
        fleet["shard-1"] = ProcessShard("shard-1", dead)
        outcome = try_pipelined_scatter(fleet, self.legs(fleet, "names"))
        assert outcome is not None
        ok0, value0, _ = outcome["shard-0"]
        ok1, value1, _ = outcome["shard-1"]
        assert ok0 and value0 == ["age"]
        assert not ok1 and isinstance(value1, ShardUnavailableError)
        dead.close()


class TestConcurrentClients:
    def test_parallel_calls_share_the_pool(self, server):
        host, port = server.address
        client = BinaryShardClient(host, port, retry_backoff=0.01)
        shard = ProcessShard("shard-0", client)
        shard._call("create", {"name": "age", "kind": "dc", "memory_kb": 0.5})
        errors = []

        def worker(base):
            try:
                for i in range(10):
                    values = [float(base * 100 + i)]
                    shard._call("ingest_many", {"items": {"age": {"insert": values}}})
            except Exception as error:  # noqa: BLE001 - the assertion
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert errors == []
        assert shard._call("stats", {"name": "age"})["total_count"] == pytest.approx(40.0)
        client.close()
