"""Replication correctness under injected faults.

The contracts under test (ISSUE 5 acceptance criteria):

* **failover reads**: with one of two replicas down, every read --
  query/estimate, snapshot, stats -- succeeds via the surviving replica;
* **exactly-once writes**: no scripted failure (fail-before-apply,
  fail-after-apply, fail-N-then-heal, hard down) ever double-applies a
  write; count conservation is asserted against the exact submitted totals;
* **resync**: after healing, replica snapshots are bit-identical (histogram
  state and lifetime counters; generations are replica-local by design).
"""

from __future__ import annotations

import threading

import pytest

from fault_injection import FlakyShard
from repro.cluster import ClusterClient, ClusterCoordinator, ClusterServer, LocalShard, ShardRouter
from repro.exceptions import ClusterError, ShardUnavailableError, UnknownAttributeError

N_SHARDS = 4


@pytest.fixture
def cluster():
    shards = [FlakyShard(LocalShard(f"shard-{index}")) for index in range(N_SHARDS)]
    router = ShardRouter([shard.shard_id for shard in shards], replication_factor=2)
    coordinator = ClusterCoordinator(shards, router=router)
    yield coordinator, {shard.shard_id: shard for shard in shards}


def replica_pair(coordinator, by_id, name):
    primary_id, follower_id = coordinator.router.replicas_for(name)
    return by_id[primary_id], by_id[follower_id]


def identical_snapshots(shard_a, shard_b, name) -> bool:
    """Bit-identical replica state: histogram + lifetime counters.

    Generations are replica-local (resync's restore bumps the target's), so
    they are excluded on purpose.
    """
    snap_a = shard_a.inner.snapshot(name)
    snap_b = shard_b.inner.snapshot(name)
    keys = ("histogram", "inserted", "deleted", "kind", "memory_kb")
    return all(snap_a[key] == snap_b[key] for key in keys)


def exact_total(shard, name) -> float:
    return shard.inner.store.total_count(name)


class TestFailoverReads:
    def test_reads_survive_a_dead_primary(self, cluster):
        coordinator, by_id = cluster
        coordinator.create("age", "dc", memory_kb=0.5)
        coordinator.ingest("age", insert=[float(v % 90) for v in range(1000)])
        primary, follower = replica_pair(coordinator, by_id, "age")

        primary.down = True
        result = coordinator.query("age", [{"op": "total"}])
        assert result["results"][0] == pytest.approx(1000.0)
        assert result["shard"] == follower.shard_id
        assert coordinator.estimate_range("age", 0, 89) == pytest.approx(1000.0, rel=0.05)
        assert coordinator.snapshot("age")["name"] == "age"
        assert coordinator.attribute_stats("age")["shard"] == follower.shard_id
        assert "age" in coordinator.names()

    def test_reads_survive_a_dead_follower(self, cluster):
        coordinator, by_id = cluster
        coordinator.create("age", "dc", memory_kb=0.5)
        coordinator.ingest("age", insert=[float(v % 90) for v in range(1000)])
        primary, follower = replica_pair(coordinator, by_id, "age")

        follower.down = True
        result = coordinator.query("age", [{"op": "total"}])
        assert result["results"][0] == pytest.approx(1000.0)
        assert result["shard"] == primary.shard_id

    def test_partitioned_reads_survive_a_dead_piece_primary(self, cluster):
        coordinator, by_id = cluster
        coordinator.create("hot", "dc", memory_kb=0.5, partition_boundaries=[500.0])
        coordinator.ingest("hot", insert=[float(v % 1000) for v in range(2000)])
        piece_replicas = coordinator.router.partition_replicas("hot")
        first_piece_primary = next(iter(piece_replicas))

        by_id[first_piece_primary].down = True
        assert coordinator.total_count("hot") == pytest.approx(2000.0)
        assert coordinator.estimate_range("hot", 0, 499) == pytest.approx(1000.0, rel=0.1)

    def test_all_replicas_down_raises(self, cluster):
        coordinator, by_id = cluster
        coordinator.create("age", "dc", memory_kb=0.5)
        for shard in replica_pair(coordinator, by_id, "age"):
            shard.down = True
        with pytest.raises(ShardUnavailableError):
            coordinator.query("age", [{"op": "total"}])
        with pytest.raises(ShardUnavailableError):
            coordinator.ingest("age", insert=[1.0])


class TestExactlyOnceWrites:
    def test_fail_before_apply_never_applies_and_resync_heals(self, cluster):
        coordinator, by_id = cluster
        coordinator.create("age", "dc", memory_kb=0.5)
        primary, follower = replica_pair(coordinator, by_id, "age")

        follower.fail_next_ingests(1, when="before")
        result = coordinator.ingest("age", insert=[float(v) for v in range(100)])
        assert result["failed_replicas"] == [follower.shard_id]
        assert exact_total(primary, "age") == pytest.approx(100.0)
        assert exact_total(follower, "age") == pytest.approx(0.0)  # never arrived
        assert coordinator.is_stale("age", follower.shard_id)

        report = coordinator.resync(follower.shard_id)
        assert report["resynced"]["age"] == primary.shard_id
        assert exact_total(follower, "age") == pytest.approx(100.0)  # not 200
        assert identical_snapshots(primary, follower, "age")
        assert not coordinator.is_stale("age", follower.shard_id)

    def test_fail_after_apply_is_not_double_applied(self, cluster):
        coordinator, by_id = cluster
        coordinator.create("age", "dc", memory_kb=0.5)
        primary, follower = replica_pair(coordinator, by_id, "age")

        follower.fail_next_ingests(1, when="after")
        result = coordinator.ingest("age", insert=[float(v) for v in range(100)])
        assert result["failed_replicas"] == [follower.shard_id]
        # The write DID land before the response was lost; the coordinator
        # must not retry it (that would make it 200).
        assert exact_total(follower, "age") == pytest.approx(100.0)
        assert coordinator.is_stale("age", follower.shard_id)

        coordinator.resync(follower.shard_id)
        assert exact_total(follower, "age") == pytest.approx(100.0)
        assert identical_snapshots(primary, follower, "age")

    def test_fail_n_then_heal_conserves_counts(self, cluster):
        coordinator, by_id = cluster
        coordinator.create("age", "dc", memory_kb=0.5)
        primary, follower = replica_pair(coordinator, by_id, "age")

        follower.fail_next_ingests(3, when="before")
        for batch in range(5):
            coordinator.ingest("age", insert=[float(batch * 20 + i) for i in range(20)])
        assert exact_total(primary, "age") == pytest.approx(100.0)
        assert exact_total(follower, "age") == pytest.approx(40.0)  # healed for 2 of 5

        coordinator.resync(follower.shard_id)
        assert exact_total(follower, "age") == pytest.approx(100.0)
        assert identical_snapshots(primary, follower, "age")

    def test_down_replica_then_resync_bit_identical(self, cluster):
        coordinator, by_id = cluster
        coordinator.create("age", "dc", memory_kb=0.5)
        primary, follower = replica_pair(coordinator, by_id, "age")

        follower.down = True
        for batch in range(4):
            result = coordinator.ingest(
                "age", insert=[float(batch * 25 + i) for i in range(25)]
            )
            assert result["failed_replicas"] == [follower.shard_id]
        assert exact_total(primary, "age") == pytest.approx(100.0)

        follower.down = False
        report = coordinator.resync(follower.shard_id)
        assert report["resynced"]["age"] == primary.shard_id
        assert exact_total(follower, "age") == pytest.approx(100.0)
        assert identical_snapshots(primary, follower, "age")
        assert coordinator.stats()["stale_replicas"] == []

    def test_batch_ingest_with_one_replica_down_conserves_counts(self, cluster):
        coordinator, by_id = cluster
        coordinator.create("age", "dc", memory_kb=0.5)
        coordinator.create("hot", "dc", memory_kb=0.5, partition_boundaries=[500.0])
        primary, follower = replica_pair(coordinator, by_id, "age")

        follower.down = True
        result = coordinator.ingest_batch(
            {
                "age": [float(v % 90) for v in range(300)],
                "hot": {"insert": [float(v % 1000) for v in range(400)]},
            }
        )
        assert result["inserted"] == 700
        assert coordinator.total_count("age") == pytest.approx(300.0)
        assert coordinator.total_count("hot") == pytest.approx(400.0)

        follower.down = False
        coordinator.resync(follower.shard_id)
        assert coordinator.stats()["stale_replicas"] == []
        # Every replica pair of every group is bit-identical again.
        for replicas in coordinator.router.replica_sets_for("age"):
            assert identical_snapshots(by_id[replicas[0]], by_id[replicas[1]], "age")
        for replicas in coordinator.router.replica_sets_for("hot"):
            assert identical_snapshots(by_id[replicas[0]], by_id[replicas[1]], "hot")

    def test_stream_failing_after_its_first_attribute_marks_the_whole_stream(self, cluster):
        coordinator, by_id = cluster
        names = [f"attribute-{index}" for index in range(8)]
        for name in names:
            coordinator.create(name, "dc", memory_kb=0.5)
        victim = by_id["shard-0"]
        stream = [
            name for name in names if victim.shard_id in coordinator.router.replicas_for(name)
        ]
        assert len(stream) >= 2

        # The victim's first attribute applies, then its reply is lost: the
        # ingest_many stream stops there, so the rest never reach the shard.
        victim.fail_next_ingests(1, when="after")
        result = coordinator.ingest_batch(
            {name: [float(index)] * 10 for index, name in enumerate(names)}
        )
        assert result["inserted"] == 80
        assert result["failed_replicas"] == sorted(f"{name}@{victim.shard_id}" for name in stream)
        assert coordinator.stale_replicas() == sorted((name, victim.shard_id) for name in stream)
        assert [exact_total(victim, name) for name in stream] == [10.0] + [0.0] * (len(stream) - 1)

        coordinator.resync(victim.shard_id)
        assert coordinator.stale_replicas() == []
        for name in stream:
            [sibling] = [
                sid for sid in coordinator.router.replicas_for(name) if sid != victim.shard_id
            ]
            assert identical_snapshots(victim, by_id[sibling], name)
            assert coordinator.total_count(name) == pytest.approx(10.0)

    def test_partitioned_write_fails_only_when_whole_piece_group_is_down(self, cluster):
        coordinator, by_id = cluster
        coordinator.create("hot", "dc", memory_kb=0.5, partition_boundaries=[500.0])
        piece_replicas = coordinator.router.partition_replicas("hot")
        piece_id, replicas = next(iter(piece_replicas.items()))
        for shard_id in replicas:
            by_id[shard_id].down = True
        values_for_piece = [100.0] if piece_id == list(piece_replicas)[0] else [900.0]
        with pytest.raises(ShardUnavailableError):
            coordinator.ingest("hot", insert=values_for_piece)


class TestPartialFailureMarking:
    def test_fully_failed_group_still_marks_other_groups_stale(self, cluster):
        """A lost write for one piece must not hide another piece's stale replica."""
        coordinator, by_id = cluster
        coordinator.create("hot", "dc", memory_kb=0.5, partition_boundaries=[500.0])
        piece_replicas = coordinator.router.partition_replicas("hot")
        (first_piece, first_ids), (second_piece, second_ids) = piece_replicas.items()
        # First piece: both replicas down (write lost -> must raise).
        for shard_id in first_ids:
            by_id[shard_id].down = True
        # Second piece: only the follower down (partial -> must be marked).
        by_id[second_ids[1]].down = True

        with pytest.raises(ShardUnavailableError):
            coordinator.ingest("hot", insert=[100.0, 900.0])  # one value per piece
        assert coordinator.is_stale("hot", second_ids[1])
        # The fully-failed group's replicas still agree; neither is stale.
        assert not coordinator.is_stale("hot", first_ids[0])
        assert not coordinator.is_stale("hot", first_ids[1])

    def test_create_with_down_replica_does_not_poison_later_writes(self, cluster):
        """A replica that missed the create must not fail every later write.

        The revived replica raises UnknownAttributeError on ingest; the
        coordinator treats that as a replica failure (mark stale), not an
        application error, and resync's restore re-creates the attribute.
        """
        coordinator, by_id = cluster
        primary_id, follower_id = coordinator.router.replicas_for("age")
        follower = by_id[follower_id]

        follower.down = True
        created = coordinator.create("age", "dc", memory_kb=0.5)
        assert created["failed_replicas"] == [follower_id]
        assert coordinator.is_stale("age", follower_id)

        # Revived but without the attribute: writes keep succeeding.
        follower.down = False
        result = coordinator.ingest("age", insert=[float(v) for v in range(100)])
        assert result["failed_replicas"] == [follower_id]
        assert coordinator.total_count("age") == pytest.approx(100.0)

        report = coordinator.resync(follower_id)
        assert report["resynced"]["age"] == primary_id
        assert exact_total(follower, "age") == pytest.approx(100.0)
        assert identical_snapshots(by_id[primary_id], follower, "age")
        # A truly unknown attribute still raises for the caller.
        with pytest.raises(UnknownAttributeError):
            coordinator.ingest("ghost", insert=[1.0])

    def test_read_failover_skips_stale_replica_missing_the_attribute(self, cluster):
        """Primary down + stale follower without the attribute: the client
        must see 'shard unavailable' (retry/heal), not 'unknown attribute'."""
        coordinator, by_id = cluster
        primary_id, follower_id = coordinator.router.replicas_for("age")
        by_id[follower_id].down = True
        coordinator.create("age", "dc", memory_kb=0.5)  # follower misses it
        by_id[follower_id].down = False
        by_id[primary_id].down = True
        with pytest.raises(ShardUnavailableError):
            coordinator.query("age", [{"op": "total"}])

    def test_restore_with_one_replica_down_marks_it_stale(self, cluster):
        coordinator, by_id = cluster
        coordinator.create("age", "dc", memory_kb=0.5)
        coordinator.ingest("age", insert=[float(v) for v in range(100)])
        snapshot = coordinator.snapshot("age")
        primary, follower = replica_pair(coordinator, by_id, "age")

        follower.down = True
        coordinator.restore("age", snapshot)  # must succeed on the primary
        assert coordinator.is_stale("age", follower.shard_id)

        follower.down = False
        coordinator.resync(follower.shard_id)
        assert identical_snapshots(primary, follower, "age")
        assert not coordinator.is_stale("age", follower.shard_id)


class GatedRestoreShard(LocalShard):
    """A local shard whose restore waits until the test releases it."""

    def __init__(self, shard_id: str) -> None:
        super().__init__(shard_id)
        self.restoring = threading.Event()
        self.release = threading.Event()

    def restore(self, name, snapshot):
        self.restoring.set()
        assert self.release.wait(5.0)
        return super().restore(name, snapshot)


class TestResyncFence:
    """Writes acknowledged during a resync copy replay onto every replica."""

    @pytest.fixture
    def gated(self):
        shards = [FlakyShard(GatedRestoreShard(f"shard-{index}")) for index in range(N_SHARDS)]
        router = ShardRouter([shard.shard_id for shard in shards], replication_factor=2)
        coordinator = ClusterCoordinator(shards, router=router)
        coordinator.create("age", "dc", memory_kb=0.5)
        coordinator.ingest("age", insert=[float(v % 90) for v in range(500)])
        by_id = {shard.shard_id: shard for shard in shards}
        return coordinator, replica_pair(coordinator, by_id, "age")

    @staticmethod
    def resync_around_writes(coordinator, target, script):
        """Resync ``target`` while two writes arrive during its copy.

        ``script`` runs after both writes were acknowledged as buffered and
        before the copy finishes; returns the resync's report or error.
        """
        outcome = {}

        def run():
            try:
                outcome["report"] = coordinator.resync(target.shard_id)
            except Exception as error:  # noqa: BLE001 - the assertion
                outcome["error"] = error

        thread = threading.Thread(target=run)
        thread.start()
        assert target.inner.restoring.wait(5.0)
        for value in (1000.0, 1001.0):
            assert coordinator.ingest("age", insert=[value])["buffered_for_move"] is True
        script()
        target.inner.release.set()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        return outcome

    def test_buffered_writes_land_exactly_once_on_every_replica(self, gated):
        coordinator, (primary, follower) = gated
        outcome = self.resync_around_writes(coordinator, follower, lambda: None)
        assert outcome["report"]["resynced"] == {"age": primary.shard_id}
        assert exact_total(primary, "age") == pytest.approx(502.0)
        assert exact_total(follower, "age") == pytest.approx(502.0)
        assert identical_snapshots(primary, follower, "age")
        stats = coordinator.stats()
        assert stats["dropped_buffered_ops"] == 0
        assert stats["stale_replicas"] == []

    def test_a_replica_failing_the_replay_is_marked_and_the_other_applies(self, gated):
        coordinator, (primary, follower) = gated
        outcome = self.resync_around_writes(
            coordinator, follower, lambda: follower.fail_next_ingests(1)
        )
        assert outcome["report"]["resynced"] == {"age": primary.shard_id}
        assert exact_total(primary, "age") == pytest.approx(502.0)
        assert exact_total(follower, "age") == pytest.approx(501.0)
        assert coordinator.stale_replicas() == [("age", follower.shard_id)]
        assert coordinator.stats()["dropped_buffered_ops"] == 0

        coordinator.resync(follower.shard_id)
        assert exact_total(follower, "age") == pytest.approx(502.0)
        assert identical_snapshots(primary, follower, "age")

    def test_a_replay_failing_on_every_replica_is_counted_and_raises(self, gated):
        coordinator, (primary, follower) = gated

        def fail_both():
            primary.fail_next_ingests(1)
            follower.fail_next_ingests(1)

        outcome = self.resync_around_writes(coordinator, follower, fail_both)
        assert isinstance(outcome.get("error"), ShardUnavailableError)
        assert coordinator.stats()["dropped_buffered_ops"] == 1
        # The write behind the dropped one still landed, on both replicas.
        assert exact_total(primary, "age") == pytest.approx(501.0)
        assert exact_total(follower, "age") == pytest.approx(501.0)
        assert identical_snapshots(primary, follower, "age")


class TestDropUnderFailure:
    def test_drop_with_down_replica_succeeds_and_is_retryable(self, cluster):
        coordinator, by_id = cluster
        coordinator.create("age", "dc", memory_kb=0.5)
        coordinator.ingest("age", insert=[1.0, 2.0, 3.0])
        primary, follower = replica_pair(coordinator, by_id, "age")

        follower.down = True
        result = coordinator.drop("age")
        assert result["shards"] == [primary.shard_id]
        assert result["unreached"] == [follower.shard_id]
        assert "age" not in primary.inner.names()

        # The revived replica still holds a zombie copy; retrying the drop
        # clears it (the already-dropped primary counts as dropped).
        follower.down = False
        assert "age" in coordinator.names()
        retried = coordinator.drop("age")
        assert retried["shards"] == [follower.shard_id]
        assert "unreached" not in retried
        assert "age" not in coordinator.names()

    def test_partial_drop_keeps_partition_routing_until_complete(self, cluster):
        """An incomplete drop must not withdraw the partition: the retry
        routes by it to reach the revived zombie piece."""
        coordinator, by_id = cluster
        coordinator.create("hot", "dc", memory_kb=0.5, partition_boundaries=[500.0])
        coordinator.ingest("hot", insert=[float(v % 1000) for v in range(400)])
        piece_replicas = coordinator.router.partition_replicas("hot")
        zombie_id = next(iter(piece_replicas))  # a piece primary

        by_id[zombie_id].down = True
        result = coordinator.drop("hot")
        assert result["unreached"] == [zombie_id]
        assert coordinator.router.is_partitioned("hot")  # routing survives

        by_id[zombie_id].down = False
        retried = coordinator.drop("hot")
        assert retried["shards"] == [zombie_id]
        assert "unreached" not in retried
        assert not coordinator.router.is_partitioned("hot")
        assert "hot" not in coordinator.names()

    def test_drop_unknown_attribute_still_raises(self, cluster):
        coordinator, _ = cluster
        with pytest.raises(UnknownAttributeError):
            coordinator.drop("ghost")


class TestMergeCacheFailover:
    def test_stale_follower_snapshot_is_not_cached_under_primary_generation(self, cluster):
        """A merge built from a stale failover snapshot must not be pinned.

        The generation probe (stats) can be served by the fresh primary
        while the snapshot fetch fails over to a stale follower; caching
        that under-counting merge under the primary's generation would
        serve it until the next write.  Keyed on the snapshots actually
        used, the very next probe misses and rebuilds from the primary.
        """
        coordinator, by_id = cluster
        coordinator.create("hot", "dc", memory_kb=0.5, partition_boundaries=[500.0])
        coordinator.ingest("hot", insert=[float(v % 1000) for v in range(1000)])
        assert coordinator.total_count("hot") == pytest.approx(1000.0)

        piece_replicas = coordinator.router.partition_replicas("hot")
        piece_primary_id, piece_follower_id = next(iter(piece_replicas.values()))
        primary, follower = by_id[piece_primary_id], by_id[piece_follower_id]

        # Make the follower stale: it misses a 100-value write to this piece.
        follower.fail_next_ingests(1, when="before")
        low_piece_value = 100.0  # routes to the first piece (boundary 500)
        coordinator.ingest("hot", insert=[low_piece_value] * 100)
        assert coordinator.is_stale("hot", piece_follower_id)

        # Probe path (stats) healthy, snapshot path down on the primary:
        # the rebuild is forced onto the stale follower's snapshot.
        primary.snapshot_down = True
        assert coordinator.total_count("hot") == pytest.approx(1000.0)  # stale merge

        # Primary's snapshot path heals; no new writes happen.  The cached
        # stale merge must NOT satisfy the fresh-primary generation probe.
        primary.snapshot_down = False
        assert coordinator.total_count("hot") == pytest.approx(1100.0)


class TestOperationalGuards:
    def test_rebalance_and_drain_require_rf1(self, cluster):
        coordinator, _ = cluster
        coordinator.create("age", "dc", memory_kb=0.5)
        with pytest.raises(ClusterError, match="replication_factor"):
            coordinator.rebalance("age", "shard-0")
        with pytest.raises(ClusterError, match="replication_factor"):
            coordinator.drain("shard-0")

    def test_resync_reports_unrecoverable_rf1_attributes(self):
        shards = [FlakyShard(LocalShard(f"shard-{index}")) for index in range(2)]
        coordinator = ClusterCoordinator(shards)  # RF = 1
        coordinator.create("age", "dc", memory_kb=0.5)
        home = coordinator.router.shard_for("age")
        report = coordinator.resync(home)
        assert report["unrecoverable"] == ["age"]
        assert report["resynced"] == {}


class TestResyncOverHttp:
    def test_resync_route_and_client_verb(self, cluster):
        coordinator, by_id = cluster
        coordinator.create("age", "dc", memory_kb=0.5)
        primary, follower = replica_pair(coordinator, by_id, "age")
        follower.down = True
        coordinator.ingest("age", insert=[float(v) for v in range(50)])
        follower.down = False

        with ClusterServer(coordinator) as server:
            host, port = server.address
            client = ClusterClient(host, port)
            report = client.resync(follower.shard_id)
            assert report["resynced"]["age"] == primary.shard_id
            stats = client.cluster_stats()
            assert stats["placement"]["replication_factor"] == 2
            assert stats["stale_replicas"] == []
        assert exact_total(follower, "age") == pytest.approx(50.0)
