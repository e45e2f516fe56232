"""Fault injection against REAL shard processes (the spawned fleet).

The in-process fault-injection suite exercises the coordinator's failover
logic with simulated outages (``FlakyShard``).  This module points the same
scenarios at actual OS processes spawned by the
:class:`~repro.cluster.supervisor.ShardSupervisor`: ``kill -9`` a worker,
read through the outage, let the supervisor respawn it on the same port,
and heal it with ``resync`` -- asserting bit-identical state, not just
plausible counts.

Marked ``slow``: each test pays real process spawn/teardown (a few seconds).
The nightly CI job runs them; locally use ``pytest -m slow``.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.cluster import ClusterCoordinator, ShardRouter, ShardSupervisor
from repro.cluster import supervisor as supervisor_module
from repro.exceptions import ShardUnavailableError, UnknownAttributeError
from repro.obs import MetricsRegistry

pytestmark = pytest.mark.slow


def _values(n, modulus=500):
    return [float(v % modulus) for v in range(n)]


@pytest.fixture
def fast_polls(monkeypatch):
    """The supervisor notices a dead worker within 0.1 s."""
    monkeypatch.setattr(supervisor_module, "POLL_INTERVAL_S", 0.1)


@pytest.fixture
def fleet(tmp_path, fast_polls):
    """3 spawned shards with per-shard WALs, rf=2, replica reads on."""
    supervisor = ShardSupervisor(3, wal_root=tmp_path / "wal")
    shards = supervisor.start()
    router = ShardRouter([s.shard_id for s in shards], replication_factor=2)
    coordinator = ClusterCoordinator(shards, router=router, replica_reads=True)
    try:
        yield supervisor, coordinator
    finally:
        supervisor.close()


class TestSpawnedFleetBasics:
    def test_ingest_and_estimates_cross_process(self, fleet):
        supervisor, coordinator = fleet
        coordinator.create("age", "dc", memory_kb=0.5)
        coordinator.ingest("age", insert=_values(3000))
        assert coordinator.total_count("age") == pytest.approx(3000.0)
        estimate = coordinator.estimate_range("age", 0.0, 250.0)
        assert estimate == pytest.approx(1500.0, rel=0.1)

    def test_describe_reports_live_fleet(self, fleet):
        supervisor, coordinator = fleet
        described = supervisor.describe()
        assert sorted(described) == ["shard-0", "shard-1", "shard-2"]
        for info in described.values():
            assert info["alive"] is True
            assert info["restarts"] == 0
            assert info["pid"] > 0

    def test_every_shard_carries_its_workers_incarnation(self, fleet):
        supervisor, coordinator = fleet
        described = supervisor.describe()
        tokens = {
            shard_id: coordinator.shard(shard_id).incarnation for shard_id in coordinator.shard_ids
        }
        assert tokens == {shard_id: info["incarnation"] for shard_id, info in described.items()}
        assert len(set(tokens.values())) == len(tokens)

    def test_close_leaves_no_processes(self, tmp_path):
        supervisor = ShardSupervisor(2, wal_root=tmp_path / "wal")
        supervisor.start()
        pids = [supervisor.pid(sid) for sid in supervisor.shard_ids]
        supervisor.close()
        supervisor.close()  # idempotent
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


class TestKillNineFailover:
    def test_reads_fail_over_while_a_worker_is_down(self, fleet):
        supervisor, coordinator = fleet
        coordinator.create("age", "dc", memory_kb=0.5)
        coordinator.ingest("age", insert=_values(2000))
        before = coordinator.total_count("age")

        victim = coordinator.router.replicas_for("age")[0]
        os.kill(supervisor.pid(victim), signal.SIGKILL)
        # The primary is gone; the replica answers (connect retries + failover).
        assert coordinator.total_count("age") == pytest.approx(before)

    def test_supervisor_respawns_on_the_same_port(self, fleet):
        supervisor, coordinator = fleet
        victim = supervisor.shard_ids[0]
        port_before = supervisor.port(victim)
        os.kill(supervisor.pid(victim), signal.SIGKILL)
        supervisor.wait_until_alive(victim, timeout=30.0)
        described = supervisor.describe()
        assert described[victim]["restarts"] == 1
        assert described[victim]["port"] == port_before
        assert any("exited" in event for event in described[victim]["events"])

    def test_wal_recovery_is_bit_identical_after_kill_nine(self, fleet):
        supervisor, coordinator = fleet
        coordinator.create("age", "dc", memory_kb=0.5)
        coordinator.ingest("age", insert=_values(1500))
        primary = coordinator.router.replicas_for("age")[0]
        shard = coordinator.shard(primary)
        snapshot_before = shard._call("snapshot", {"name": "age"})

        os.kill(supervisor.pid(primary), signal.SIGKILL)
        supervisor.wait_until_alive(primary, timeout=30.0)
        # The respawned worker replayed its own WAL: same state, bit for bit.
        assert shard._call("snapshot", {"name": "age"}) == snapshot_before

    def test_resync_heals_a_wiped_replica_bit_identically(self, fast_polls):
        # No WAL for the victim's data to survive on: a respawned worker
        # comes back empty and only resync can heal it.
        supervisor = ShardSupervisor(3)
        shards = supervisor.start()
        router = ShardRouter([s.shard_id for s in shards], replication_factor=2)
        coordinator = ClusterCoordinator(shards, router=router, replica_reads=True)
        try:
            coordinator.create("age", "dc", memory_kb=0.5)
            coordinator.ingest("age", insert=_values(2500))
            primary_id, follower_id = coordinator.router.replicas_for("age")
            reference = coordinator.shard(primary_id)._call("snapshot", {"name": "age"})

            os.kill(supervisor.pid(follower_id), signal.SIGKILL)
            supervisor.wait_until_alive(follower_id, timeout=30.0)
            # Respawned without durable state: the attribute is gone.
            assert coordinator.shard(follower_id)._call("names", {}) == []

            healed = coordinator.resync(follower_id)
            assert "age" in healed["resynced"]
            healed_snapshot = coordinator.shard(follower_id)._call("snapshot", {"name": "age"})
            ref = {k: v for k, v in reference.items() if k != "generation"}
            got = {k: v for k, v in healed_snapshot.items() if k != "generation"}
            assert got == ref
        finally:
            supervisor.close()

    def test_writes_surface_unavailable_when_all_replicas_down(self, tmp_path, monkeypatch):
        monkeypatch.setattr(supervisor_module, "MAX_RESTARTS", 0)
        supervisor = ShardSupervisor(2, wal_root=tmp_path / "wal")
        shards = supervisor.start()
        router = ShardRouter([s.shard_id for s in shards], replication_factor=1)
        coordinator = ClusterCoordinator(shards, router=router)
        try:
            coordinator.create("age", "dc", memory_kb=0.5)
            target = coordinator.router.replicas_for("age")[0]
            os.kill(supervisor.pid(target), signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if not supervisor.describe()[target]["alive"]:
                    break
                time.sleep(0.05)
            with pytest.raises(ShardUnavailableError):
                coordinator.ingest("age", insert=[1.0])
        finally:
            supervisor.close()


class TestRestartCap:
    def test_restarts_stop_at_the_cap(self, tmp_path, monkeypatch):
        monkeypatch.setattr(supervisor_module, "MAX_RESTARTS", 1)
        monkeypatch.setattr(supervisor_module, "POLL_INTERVAL_S", 0.05)
        supervisor = ShardSupervisor(1, wal_root=tmp_path / "wal")
        supervisor.start()
        try:
            shard_id = supervisor.shard_ids[0]
            os.kill(supervisor.pid(shard_id), signal.SIGKILL)
            supervisor.wait_until_alive(shard_id, timeout=30.0)
            assert supervisor.describe()[shard_id]["restarts"] == 1
            # Second murder: the cap is reached, the shard stays down.
            os.kill(supervisor.pid(shard_id), signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                info = supervisor.describe()[shard_id]
                if not info["alive"]:
                    break
                time.sleep(0.05)
            info = supervisor.describe()[shard_id]
            assert info["alive"] is False
            assert info["restarts"] == 1
        finally:
            supervisor.close()


class TestHeldViewsAcrossKillNine:
    """A respawn changes the worker's incarnation, which retires its views."""

    @staticmethod
    def wait_for_respawn(supervisor, shard, before):
        deadline = time.monotonic() + 30.0
        while shard.incarnation == before:
            assert time.monotonic() < deadline, "the supervisor never reported a respawn"
            time.sleep(0.05)
        supervisor.wait_until_alive(shard.shard_id, timeout=30.0)

    def test_with_a_wal_the_view_is_fetched_once_more_and_the_total_holds(
        self, tmp_path, fast_polls
    ):
        supervisor = ShardSupervisor(2, wal_root=tmp_path / "wal")
        shards = supervisor.start()
        registry = MetricsRegistry()
        router = ShardRouter([s.shard_id for s in shards], replication_factor=2)
        coordinator = ClusterCoordinator(shards, router=router, metrics=registry)
        try:
            coordinator.create("age", "dc", memory_kb=0.5)
            coordinator.ingest("age", insert=_values(1500))
            assert coordinator.total_count("age") == pytest.approx(1500.0)
            reads = registry.get("repro_cluster_view_reads_total")
            fetched = reads.value(outcome="fetched")
            shard = coordinator.shard(coordinator.router.replicas_for("age")[0])
            before = shard.incarnation

            os.kill(supervisor.pid(shard.shard_id), signal.SIGKILL)
            self.wait_for_respawn(supervisor, shard, before)
            assert coordinator.total_count("age") == pytest.approx(1500.0)
            assert reads.value(outcome="fetched") == fetched + 1
            assert coordinator.total_count("age") == pytest.approx(1500.0)
            assert reads.value(outcome="fetched") == fetched + 1  # held again
        finally:
            supervisor.close()

    def test_without_a_wal_no_read_after_the_respawn_uses_the_dead_view(self, fast_polls):
        supervisor = ShardSupervisor(2)
        shards = supervisor.start()
        coordinator = ClusterCoordinator(shards)
        try:
            coordinator.create("age", "dc", memory_kb=0.5)
            coordinator.ingest("age", insert=_values(50))
            assert coordinator.total_count("age") == pytest.approx(50.0)
            shard = coordinator.shard(coordinator.router.replicas_for("age")[0])
            before = shard.incarnation

            os.kill(supervisor.pid(shard.shard_id), signal.SIGKILL)
            self.wait_for_respawn(supervisor, shard, before)
            # The new worker holds nothing, and the read says so.
            with pytest.raises(UnknownAttributeError):
                coordinator.total_count("age")
            # Re-seeded behind the coordinator, back at the dead view's
            # generation: only the incarnation tells the two apart.
            shard._call("create", {"name": "age", "kind": "dc", "memory_kb": 0.5})
            shard._call("ingest_many", {"items": {"age": {"insert": [700.0] * 5}}})
            assert shard._call("published", {"name": "age"})["generation"] == 1
            assert coordinator.total_count("age") == pytest.approx(5.0)
        finally:
            supervisor.close()
