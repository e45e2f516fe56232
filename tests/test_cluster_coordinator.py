"""Tests for the scatter-gather ClusterCoordinator over in-process shards."""

import threading
import time

import numpy as np
import pytest

from fault_injection import FlakyShard
from repro import ClusterError, ConfigurationError, HistogramStore, UnknownAttributeError
from repro.cluster import (
    BinaryShardClient,
    BinaryShardServer,
    ClusterCoordinator,
    LocalShard,
    ProcessShard,
    ShardRouter,
)
from repro.cluster import transport
from repro.cluster.coordinator import INGEST_LEG_VALUES, _stream_legs
from repro.core.base import SnapshotHistogram
from repro.core.segment_view import SegmentView
from repro.distributed.union import superimpose
from repro.exceptions import ServiceError, ShardUnavailableError
from repro.obs import MetricsRegistry
from repro.persistence import histogram_from_dict
from repro.service import DurabilityConfig
from repro.service.store import evaluate_queries


@pytest.fixture
def coordinator():
    return ClusterCoordinator([LocalShard(f"shard-{i}") for i in range(4)])


def ingest_uniform(coordinator, name, n=8000, domain=(0.0, 5000.0), seed=3):
    rng = np.random.default_rng(seed)
    values = rng.uniform(domain[0], domain[1], n)
    coordinator.ingest(name, insert=values.tolist())
    return values


class TestRegistryAndRouting:
    def test_create_places_on_routed_shard(self, coordinator):
        created = coordinator.create("age", "dc", memory_kb=0.5)
        assert created["partitioned"] is False
        shard_id = created["shard"]
        assert shard_id == coordinator.router.shard_for("age")
        assert "age" in coordinator.shard(shard_id).names()

    def test_partitioned_create_places_pieces_on_every_shard(self, coordinator):
        created = coordinator.create(
            "hot", "dc", memory_kb=0.5, partition_boundaries=[1250.0, 2500.0, 3750.0]
        )
        assert created["partitioned"] is True
        assert set(created["pieces"]) == set(coordinator.shard_ids)
        for shard_id in coordinator.shard_ids:
            assert "hot" in coordinator.shard(shard_id).names()

    def test_failed_partitioned_create_withdraws_the_partition(self, coordinator):
        coordinator.shard("shard-0").create("hot", "dc", memory_kb=0.5)
        with pytest.raises(Exception):
            coordinator.create("hot", "dc", partition_boundaries=[100.0])
        assert not coordinator.router.is_partitioned("hot")

    def test_drop_removes_every_piece(self, coordinator):
        coordinator.create("hot", "dc", partition_boundaries=[100.0, 200.0, 300.0])
        coordinator.drop("hot")
        for shard_id in coordinator.shard_ids:
            assert "hot" not in coordinator.shard(shard_id).names()
        assert not coordinator.router.is_partitioned("hot")

    def test_names_lists_partitioned_attributes_once(self, coordinator):
        coordinator.create("age", "dc")
        coordinator.create("hot", "dc", partition_boundaries=[100.0, 200.0, 300.0])
        assert coordinator.names() == ["age", "hot"]

    def test_duplicate_shard_ids_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterCoordinator([LocalShard("a"), LocalShard("a")])


class TestScatterGatherIngest:
    def test_partitioned_ingest_splits_by_value(self, coordinator):
        coordinator.create("hot", "dc", memory_kb=0.5,
                           partition_boundaries=[1250.0, 2500.0, 3750.0])
        values = ingest_uniform(coordinator, "hot")
        partition = coordinator.router.partition_for("hot")
        for shard_id in coordinator.shard_ids:
            expected = sum(1 for v in values if partition.shard_for_value(v) == shard_id)
            held = coordinator.shard(shard_id).store.total_count("hot")
            assert held == pytest.approx(expected)

    def test_cluster_total_conserves_every_value(self, coordinator):
        coordinator.create("hot", "dc", memory_kb=0.5,
                           partition_boundaries=[1250.0, 2500.0, 3750.0])
        values = ingest_uniform(coordinator, "hot")
        assert coordinator.total_count("hot") == pytest.approx(len(values))

    def test_partitioned_deletes_route_by_value(self, coordinator):
        coordinator.create("hot", "dc", memory_kb=0.5, partition_boundaries=[100.0])
        coordinator.ingest("hot", insert=[50.0] * 10 + [150.0] * 10)
        coordinator.ingest("hot", delete=[50.0, 150.0, 150.0])
        assert coordinator.total_count("hot") == pytest.approx(17.0)

    def test_ingest_batch_groups_per_shard(self, coordinator):
        coordinator.create("age", "dc", memory_kb=0.5)
        coordinator.create("hot", "dc", memory_kb=0.5, partition_boundaries=[100.0])
        report = coordinator.ingest_batch(
            {"age": [1.0, 2.0, 3.0], "hot": [50.0, 150.0], "empty": []}
        )
        assert report["inserted"] == 5
        assert sum(report["per_shard"].values()) == 5
        assert coordinator.total_count("age") == pytest.approx(3.0)
        assert coordinator.total_count("hot") == pytest.approx(2.0)

    def test_ingest_batch_applies_deletes(self, coordinator):
        coordinator.create("age", "dc", memory_kb=0.5)
        coordinator.create("hot", "dc", memory_kb=0.5, partition_boundaries=[100.0])
        coordinator.ingest_batch(
            {"age": [10.0] * 6, "hot": [50.0] * 8 + [150.0] * 8}
        )
        report = coordinator.ingest_batch(
            {
                "age": {"insert": [11.0, 12.0], "delete": [10.0, 10.0, 10.0]},
                "hot": {"delete": [50.0, 150.0]},
            }
        )
        assert report["inserted"] == 2
        assert report["deleted"] == 5
        assert sum(report["per_shard"].values()) == 2
        assert sum(report["per_shard_deleted"].values()) == 5
        assert coordinator.total_count("age") == pytest.approx(5.0)
        assert coordinator.total_count("hot") == pytest.approx(14.0)
        # Partitioned deletes must have landed on the piece owning the value.
        partition = coordinator.router.partition_for("hot")
        low_shard = partition.shard_for_value(50.0)
        high_shard = partition.shard_for_value(150.0)
        assert coordinator.shard(low_shard).store.total_count("hot") == pytest.approx(7.0)
        assert coordinator.shard(high_shard).store.total_count("hot") == pytest.approx(7.0)

    def test_unknown_attribute_propagates(self, coordinator):
        with pytest.raises(UnknownAttributeError):
            coordinator.ingest("ghost", insert=[1.0])


class TestIngestMany:
    def test_applies_a_stream_in_order_and_stops_at_the_first_failure(self):
        applied = []

        class RecordingStore(HistogramStore):
            def insert(self, name, values, **kwargs):
                applied.append((name, "insert"))
                return super().insert(name, values, **kwargs)

            def delete(self, name, values):
                applied.append((name, "delete"))
                return super().delete(name, values)

        shard = LocalShard("shard-0", RecordingStore())
        shard.create("a", "dc", memory_kb=0.5)
        shard.create("c", "dc", memory_kb=0.5)
        counts = shard.ingest_many(
            {"c": {"insert": [1.0, 2.0, 3.0], "delete": [1.0]}, "a": {"insert": [4.0]}}
        )
        # The reply also carries each written attribute's version: c took
        # an insert and a delete (generation 2), a one insert (generation 1).
        token = shard.incarnation
        assert counts == {
            "inserted": 4,
            "deleted": 1,
            "versions": {"c": [token, 2], "a": [token, 1]},
        }
        assert applied == [("c", "insert"), ("c", "delete"), ("a", "insert")]

        applied.clear()
        with pytest.raises(UnknownAttributeError):
            shard.ingest_many(
                {"a": {"insert": [5.0]}, "ghost": {"insert": [6.0]}, "c": {"insert": [7.0]}}
            )
        assert applied == [("a", "insert"), ("ghost", "insert")]
        assert shard.store.total_count("a") == pytest.approx(2.0)
        assert shard.store.total_count("c") == pytest.approx(2.0)

    def test_streams_are_cut_into_legs_without_splitting_an_attribute(self):
        def values(count):
            return {"insert": [1.0] * (count - count // 4), "delete": [1.0] * (count // 4)}

        small = INGEST_LEG_VALUES // 4
        stream = {
            "a": values(small),
            "b": values(small),
            "c": values(INGEST_LEG_VALUES + 1),
            "d": values(3 * small),
            "e": values(small + 1),
        }
        legs = _stream_legs(stream)
        assert [list(leg) for leg in legs] == [["a", "b"], ["c"], ["d"], ["e"]]
        assert [name for leg in legs for name in leg] == list(stream)

    def test_a_stream_longer_than_the_call_timeout_still_applies(self):
        # Each attribute alone applies well inside the client's 1 s timeout;
        # the whole 1.6 s stream does not, so it must go out in several legs.
        class SlowShard(LocalShard):
            def ingest_many(self, items):
                time.sleep(
                    sum(len(v.get("insert", ())) + len(v.get("delete", ())) for v in items.values())
                    * 1e-4
                )
                return super().ingest_many(items)

        names = ["a", "b", "c", "d"]
        values = [float(v % 100) for v in range(4000)]
        backend = SlowShard("shard-0")
        with BinaryShardServer(backend) as server:
            client = BinaryShardClient(*server.address, timeout=1.0)
            try:
                coordinator = ClusterCoordinator([ProcessShard("shard-0", client)])
                for name in names:
                    coordinator.create(name, "dc", memory_kb=0.5)
                response = coordinator.ingest_batch({name: values for name in names})
            finally:
                client.close()
        assert "failed_replicas" not in response
        assert response["per_shard"] == {"shard-0": 16000}
        assert coordinator.stale_replicas() == []
        for name in names:
            assert backend.store.total_count(name) == pytest.approx(4000.0)


class TestFanOutThreads:
    def test_fan_outs_start_no_threads(self, tmp_path):
        fsynced = [
            HistogramStore(durability=DurabilityConfig(tmp_path / f"shard-{i}", fsync=True))
            for i in range(2)
        ]
        inputs = [
            ([LocalShard("shard-0"), LocalShard("shard-1")], 1),
            # Both replicas' writes wait on fsync, and still run on this thread.
            ([LocalShard(f"shard-{i}", store) for i, store in enumerate(fsynced)], 2),
        ]
        for shards, replication_factor in inputs:
            before = threading.active_count()
            coordinator = ClusterCoordinator(
                shards,
                router=ShardRouter(["shard-0", "shard-1"], replication_factor=replication_factor),
            )
            coordinator.create("age", "dc", memory_kb=0.5)
            coordinator.create("hot", "dc", memory_kb=0.5, partition_boundaries=[100.0])
            assert "failed_replicas" not in coordinator.ingest("age", insert=[1.0, 2.0])
            coordinator.ingest_batch({"age": [3.0], "hot": [50.0, 150.0]})
            assert coordinator.total_count("hot") == pytest.approx(2.0)
            coordinator.stats()
            coordinator.drop("hot")
            assert threading.active_count() == before
        for store in fsynced:
            assert store.total_count("age") == pytest.approx(3.0)
            store.close()


class TestMergedEstimates:
    BOUNDARIES = [1250.0, 2500.0, 3750.0]

    def build(self, coordinator, n=12000):
        coordinator.create("hot", "dc", memory_kb=0.5,
                           partition_boundaries=self.BOUNDARIES)
        return ingest_uniform(coordinator, "hot", n=n)

    def reference_store(self, values):
        store = HistogramStore()
        store.create("hot", "dc", memory_kb=0.5)
        store.insert("hot", values.tolist())
        return store

    def test_merged_estimates_close_to_unsharded_reference(self, coordinator):
        values = self.build(coordinator)
        reference = self.reference_store(values)
        total = float(len(values))
        for low, high in ((0.0, 5000.0), (500.0, 1500.0), (2000.0, 3000.0), (100.0, 4900.0)):
            merged = coordinator.estimate_range("hot", low, high)
            single = reference.estimate_range("hot", low, high)
            assert abs(merged - single) <= 0.02 * total

    def test_query_batch_is_served_from_one_merged_snapshot(self, coordinator):
        self.build(coordinator)
        response = coordinator.query(
            "hot", [{"op": "total"}, {"op": "range", "low": 0.0, "high": 5000.0}]
        )
        assert response["merged"] is True
        assert response["results"][0] == pytest.approx(response["results"][1], rel=0.01)

    def test_merge_cache_hits_until_a_shard_write(self, coordinator):
        self.build(coordinator)
        first = coordinator.query("hot", [{"op": "total"}])
        again = coordinator.query("hot", [{"op": "total"}])
        assert again["generation"] == first["generation"]
        assert coordinator.merged_histogram("hot") is coordinator.merged_histogram("hot")
        coordinator.ingest("hot", insert=[42.0])
        after = coordinator.query("hot", [{"op": "total"}])
        assert after["generation"] > first["generation"]
        assert after["results"][0] == pytest.approx(first["results"][0] + 1.0)

    def test_cached_merge_equals_from_scratch_rebuild(self, coordinator):
        self.build(coordinator)
        cached = coordinator.merged_histogram("hot")
        partition = coordinator.router.partition_for("hot")
        members = [
            histogram_from_dict(
                dict(coordinator.shard(shard_id).snapshot("hot")["histogram"])
            )
            for shard_id in partition.piece_shard_ids
        ]
        scratch = superimpose(members)
        assert [
            (b.left, b.right, b.count) for b in cached.buckets()
        ] == [(b.left, b.right, b.count) for b in scratch.buckets()]

    def test_merged_estimates_on_empty_partition_are_zero(self, coordinator):
        coordinator.create("hot", "dc", partition_boundaries=self.BOUNDARIES)
        assert coordinator.total_count("hot") == 0.0
        assert coordinator.estimate_range("hot", 0.0, 5000.0) == 0.0
        assert coordinator.cdf("hot", [0.0, 100.0]) == [0.0, 0.0]

    def test_unpartitioned_query_delegates_to_home_shard(self, coordinator):
        coordinator.create("age", "dc", memory_kb=0.5)
        coordinator.ingest("age", insert=[float(v % 90) for v in range(2000)])
        response = coordinator.query("age", [{"op": "total"}])
        assert response["shard"] == coordinator.router.shard_for("age")
        assert response["results"][0] == pytest.approx(2000.0)


class TestMergedAnswersAreSumsOfPieceAnswers:
    """The merged histogram is the lossless union of the piece views, so a
    merged ``range`` or ``total`` answer, and ``cdf`` x ``total``, is the sum
    of the pieces' answers on the views that served it (``equal`` is not
    additive where a piece's bucket closes: ROADMAP records that finding)."""

    @staticmethod
    def published(coordinator, shard_id):
        wire = coordinator.shard(shard_id).published("hot")["view"]
        return SnapshotHistogram(SegmentView.from_wire(wire))

    def queries(self, coordinator, rng):
        """Totals, CDFs and windows, many of them ending on a piece bucket border."""
        borders = {0.0, 1000.0}
        for shard_id in coordinator.shard_ids:
            for bucket in self.published(coordinator, shard_id).buckets():
                borders.update((bucket.left, bucket.right))
        ends = np.sort(np.fromiter(borders, dtype=float))
        lows = np.concatenate([ends, rng.uniform(-50.0, 1050.0, 40)])
        highs = np.concatenate([rng.choice(ends, len(ends)), rng.uniform(-50.0, 1050.0, 40)])
        windows = [
            {"op": "range", "low": float(min(low, high)), "high": float(max(low, high))}
            for low, high in zip(lows, highs, strict=True)
        ]
        xs = [float(x) for x in np.concatenate([ends, rng.uniform(-50.0, 1050.0, 20)])]
        return [{"op": "total"}, {"op": "cdf", "xs": xs}, *windows]

    @pytest.mark.parametrize("replication_factor", [1, 2])
    @pytest.mark.parametrize("boundaries", [[500.0], [300.0, 650.0]])
    @pytest.mark.parametrize("kind", ["dc", "dvo", "dado"])
    def test_random_partitioned_history(self, kind, boundaries, replication_factor):
        rng = np.random.default_rng([len(boundaries), replication_factor, ord(kind[-1])])
        ids = [f"shard-{i}" for i in range((len(boundaries) + 1) * replication_factor)]
        router = ShardRouter(ids, replication_factor=replication_factor)
        coordinator = ClusterCoordinator([LocalShard(shard_id) for shard_id in ids], router=router)
        coordinator.create("hot", kind, memory_kb=1.0, partition_boundaries=boundaries)
        live: list[float] = []
        for _ in range(4):
            centres = rng.choice(np.arange(25.0, 1000.0, 75.0), 400)
            inserts = np.concatenate(
                [centres + rng.integers(-20, 21, 400), rng.uniform(0.0, 1000.0, 200)]
            ).tolist()
            coordinator.ingest("hot", insert=inserts)
            live.extend(inserts)
            rng.shuffle(live)
            deletes, live = live[:150], live[150:]
            coordinator.ingest("hot", delete=deletes)
            queries = self.queries(coordinator, rng)
            response = coordinator.query("hot", queries)
            pieces = [
                evaluate_queries(self.published(coordinator, shard_id), queries)
                for shard_id in response["shards"].values()
            ]
            total, cdf, *ranges = response["results"]
            assert total == pytest.approx(sum(piece[0] for piece in pieces), rel=1e-9)
            assert total == pytest.approx(len(live), rel=1e-9)
            for index, merged in enumerate(ranges, start=2):
                expected = sum(piece[index] for piece in pieces)
                assert merged == pytest.approx(expected, rel=1e-9, abs=1e-9)
            for index, value in enumerate(cdf):
                expected = sum(piece[1][index] * piece[0] for piece in pieces)
                assert value * total == pytest.approx(expected, rel=1e-9, abs=1e-9)


class TestRebalance:
    def test_move_preserves_counts_and_reroutes(self, coordinator):
        coordinator.create("age", "dc", memory_kb=0.5)
        coordinator.ingest("age", insert=[float(v % 90) for v in range(3000)])
        source = coordinator.router.shard_for("age")
        target = next(s for s in coordinator.shard_ids if s != source)
        report = coordinator.rebalance("age", target)
        assert report["moved"] is True
        assert coordinator.router.shard_for("age") == target
        assert coordinator.total_count("age") == pytest.approx(3000.0)
        assert "age" not in coordinator.shard(source).names()

    def test_move_to_current_home_is_a_noop(self, coordinator):
        coordinator.create("age", "dc")
        home = coordinator.router.shard_for("age")
        assert coordinator.rebalance("age", home)["moved"] is False

    def test_partitioned_attribute_cannot_be_rebalanced(self, coordinator):
        coordinator.create("hot", "dc", partition_boundaries=[100.0])
        with pytest.raises(ClusterError):
            coordinator.rebalance("hot", "shard-0")

    def test_writes_during_move_are_buffered_and_replayed(self):
        """Writes arriving mid-copy land exactly once on the target."""
        restore_entered = threading.Event()
        release_restore = threading.Event()

        class SlowRestoreShard(LocalShard):
            def restore(self, name, snapshot):
                restore_entered.set()
                assert release_restore.wait(5.0)
                return super().restore(name, snapshot)

        source = LocalShard("source")
        target = SlowRestoreShard("target")
        coordinator = ClusterCoordinator([source, target])
        coordinator.router.assign("age", "source")
        coordinator.create("age", "dc", memory_kb=0.5)
        coordinator.ingest("age", insert=[float(v % 90) for v in range(1000)])

        mover = threading.Thread(target=coordinator.rebalance, args=("age", "target"))
        mover.start()
        assert restore_entered.wait(5.0)
        # The copy is in flight: these writes must buffer, not block or vanish.
        buffered = coordinator.ingest("age", insert=[1.0, 2.0], delete=[1.0])
        assert buffered["buffered_for_move"] is True
        release_restore.set()
        mover.join(timeout=10.0)
        assert not mover.is_alive()
        assert coordinator.router.shard_for("age") == "target"
        assert coordinator.total_count("age") == pytest.approx(1001.0)

    def test_failed_move_replays_buffer_onto_source(self):
        restore_entered = threading.Event()
        release_restore = threading.Event()

        class FailingRestoreShard(LocalShard):
            def restore(self, name, snapshot):
                restore_entered.set()
                assert release_restore.wait(5.0)
                raise RuntimeError("target exploded")

        source = LocalShard("source")
        target = FailingRestoreShard("target")
        coordinator = ClusterCoordinator([source, target])
        coordinator.router.assign("age", "source")
        coordinator.create("age", "dc", memory_kb=0.5)
        coordinator.ingest("age", insert=[float(v) for v in range(100)])

        failure = []

        def move():
            try:
                coordinator.rebalance("age", "target")
            except RuntimeError as error:
                failure.append(error)

        mover = threading.Thread(target=move)
        mover.start()
        assert restore_entered.wait(5.0)
        coordinator.ingest("age", insert=[500.0, 501.0])
        release_restore.set()
        mover.join(timeout=10.0)
        assert failure, "rebalance should have propagated the restore failure"
        assert coordinator.router.shard_for("age") == "source"
        assert coordinator.total_count("age") == pytest.approx(102.0)

    def test_failed_replay_onto_target_lands_every_buffered_write_on_source(self):
        """A replay pass the target fails goes back whole, onto the source."""
        restore_entered = threading.Event()
        release_restore = threading.Event()

        class SlowRestoreShard(LocalShard):
            def restore(self, name, snapshot):
                restore_entered.set()
                assert release_restore.wait(5.0)
                return super().restore(name, snapshot)

        source = LocalShard("source")
        target = FlakyShard(SlowRestoreShard("target"))
        coordinator = ClusterCoordinator([source, target])
        coordinator.router.assign("age", "source")
        coordinator.create("age", "dc", memory_kb=0.5)
        coordinator.ingest("age", insert=[float(v) for v in range(100)])

        failure = []

        def move():
            try:
                coordinator.rebalance("age", "target")
            except ShardUnavailableError as error:
                failure.append(error)

        mover = threading.Thread(target=move)
        mover.start()
        assert restore_entered.wait(5.0)
        for value in (500.0, 501.0):
            assert coordinator.ingest("age", insert=[value])["buffered_for_move"] is True
        target.fail_next_ingests(1)
        release_restore.set()
        mover.join(timeout=10.0)
        assert failure, "rebalance should have propagated the replay failure"
        assert coordinator.router.shard_for("age") == "source"
        assert coordinator.total_count("age") == pytest.approx(102.0)
        assert source.store.total_count("age") == pytest.approx(102.0)
        assert "age" not in target.inner.names()
        assert coordinator.stats()["dropped_buffered_ops"] == 0

    def test_drain_moves_every_homed_attribute(self, coordinator):
        for index in range(6):
            coordinator.create(f"attribute-{index}", "dc", memory_kb=0.5)
            coordinator.ingest(f"attribute-{index}", insert=[float(index)] * 10)
        coordinator.create("hot", "dc", partition_boundaries=[100.0, 200.0, 300.0])
        victim = coordinator.router.shard_for("attribute-0")
        report = coordinator.drain(victim)
        assert "attribute-0" in report["moved"]
        assert report["skipped_partitioned"] == ["hot"]
        for name in report["moved"]:
            assert coordinator.router.shard_for(name) != victim
        homed = [
            name for name in coordinator.shard(victim).names()
            if not coordinator.router.is_partitioned(name)
        ]
        assert homed == []
        for index in range(6):
            assert coordinator.total_count(f"attribute-{index}") == pytest.approx(10.0)


class TestMoveLegsAreMeasured:
    """``rebalance``, ``resync`` and ``drain`` reach a shard only through
    ``(op, args)`` legs, so every step records its fan-out latency."""

    @staticmethod
    def legs_during(registry, shard_ids, action):
        fanout = registry.get("repro_cluster_fanout_seconds")
        before = {sid: fanout.summary(shard=sid)["count"] for sid in shard_ids}
        action()
        return {sid: fanout.summary(shard=sid)["count"] - before[sid] for sid in shard_ids}

    @staticmethod
    def pinned_cluster(registry):
        coordinator = ClusterCoordinator(
            [LocalShard("source"), LocalShard("target")], metrics=registry
        )
        coordinator.router.assign("age", "source")
        coordinator.create("age", "dc", memory_kb=0.5)
        coordinator.ingest("age", insert=[1.0, 2.0, 3.0])
        return coordinator

    def test_rebalance_measures_its_snapshot_restore_and_drop_legs(self):
        registry = MetricsRegistry()
        coordinator = self.pinned_cluster(registry)
        legs = self.legs_during(
            registry, ["source", "target"], lambda: coordinator.rebalance("age", "target")
        )
        # snapshot and drop on the source, restore on the target
        assert legs == {"source": 2, "target": 1}
        assert coordinator.total_count("age") == pytest.approx(3.0)

    def test_drain_measures_its_names_leg_and_the_moves(self):
        registry = MetricsRegistry()
        coordinator = self.pinned_cluster(registry)
        legs = self.legs_during(
            registry, ["source", "target"], lambda: coordinator.drain("source")
        )
        assert legs == {"source": 3, "target": 1}

    def test_resync_measures_its_snapshot_and_restore_legs(self):
        registry = MetricsRegistry()
        shard_ids = ["shard-0", "shard-1"]
        coordinator = ClusterCoordinator(
            [LocalShard(sid) for sid in shard_ids],
            router=ShardRouter(shard_ids, replication_factor=2),
            metrics=registry,
        )
        coordinator.create("age", "dc", memory_kb=0.5)
        coordinator.ingest("age", insert=[1.0, 2.0, 3.0])
        source = coordinator.router.replicas_for("age")[0]
        target = next(sid for sid in shard_ids if sid != source)
        legs = self.legs_during(registry, shard_ids, lambda: coordinator.resync(target))
        # a names leg on each shard, then snapshot on the source and restore
        # on the target
        assert legs == {source: 2, target: 2}


class TestMixedFleet:
    """One ``LocalShard`` and one ``ProcessShard`` at replication factor 2
    answer as a uniform fleet does, and each leg takes its shard's path:
    process legs through the pipelined scatter, the others through the
    dispatch function a worker serves its requests with."""

    @pytest.fixture
    def fleets(self):
        """``(mixed, uniform)`` coordinators with their registries."""
        stores = [HistogramStore() for _ in range(4)]
        server = BinaryShardServer(LocalShard("shard-1", stores[1])).start()
        remote = ProcessShard("shard-1", BinaryShardClient(*server.address))
        remote.incarnation = stores[1].incarnation  # as the supervisor sets it
        members = [
            [LocalShard("shard-0", stores[0]), remote],
            [LocalShard("shard-0", stores[2]), LocalShard("shard-1", stores[3])],
        ]
        try:
            yield [
                ClusterCoordinator(
                    shards,
                    router=ShardRouter(["shard-0", "shard-1"], replication_factor=2),
                    metrics=MetricsRegistry(),
                )
                for shards in members
            ]
        finally:
            remote.client.close()
            server.stop()
            for store in stores:
                store.close()

    @staticmethod
    def answers(coordinator):
        """The same writes, then every answer a read, listing or heal gives."""
        coordinator.create("age", "dc", memory_kb=0.5)
        coordinator.create("hot", "dvo", memory_kb=0.5, partition_boundaries=[500.0])
        writes = [
            coordinator.ingest("age", insert=[float(v % 90) for v in range(900)]),
            coordinator.ingest_batch(
                {
                    "hot": {
                        "insert": [float(v) for v in range(1000)],
                        "delete": [float(v) for v in range(0, 1000, 7)],
                    }
                }
            ),
        ]
        reads = []
        for _ in range(2):  # fetched, then held
            reads.append(coordinator.query("age", [{"op": "total"}, {"op": "equal", "value": 4.0}]))
            reads.append(
                coordinator.query("hot", [{"op": "total"}, {"op": "range", "low": 250, "high": 750}])
            )
        listings = [coordinator.stats(), coordinator.names(), coordinator.attribute_stats("hot")]
        heals = [coordinator.resync("shard-1"), coordinator.resync("shard-0")]
        after = [coordinator.query(name, [{"op": "total"}]) for name in ("age", "hot")]
        views = coordinator.metrics.get("repro_cluster_view_reads_total")
        counts = {outcome: views.value(outcome=outcome) for outcome in ("held", "fetched")}
        return writes, reads, listings, heals, after, counts

    def test_a_mixed_fleet_answers_as_a_uniform_one(self, fleets):
        mixed, uniform = fleets
        answers = self.answers(mixed)
        assert answers == self.answers(uniform)
        writes, reads, listings, heals, after, counts = answers
        assert reads[2]["results"][0] == pytest.approx(900.0)
        assert reads[3]["merged"] and reads[3]["results"][0] == pytest.approx(1000.0 - 143.0)
        assert listings[1] == ["age", "hot"]
        # ``hot``'s two pieces sit one on each shard: nothing to heal them from.
        assert [(heal["resynced"], heal["unrecoverable"]) for heal in heals] == [
            ({"age": "shard-0"}, ["hot"]),
            ({"age": "shard-1"}, ["hot"]),
        ]
        assert [answer["results"][0] for answer in after] == [reads[2]["results"][0], 857.0]
        # Both attributes fetched once, then held; the resync fetches ``age`` again.
        assert counts == {"held": 3.0, "fetched": 3.0}

    def test_a_replicated_write_sends_its_process_leg_through_the_scatter(
        self, fleets, monkeypatch
    ):
        mixed, _ = fleets
        mixed.create("age", "dc", memory_kb=0.5)
        scattered = []
        execute_scatter = transport._execute_scatter

        def counting(legs):
            scattered.append({shard_id: leg[0] for shard_id, (_, leg) in legs.items()})
            return execute_scatter(legs)

        monkeypatch.setattr(transport, "_execute_scatter", counting)
        mixed.ingest("age", insert=[1.0, 2.0, 3.0])
        assert scattered == [{"shard-1": "ingest_many"}]
        assert mixed.total_count("age") == pytest.approx(3.0)

    @pytest.mark.parametrize("shard_id", ["shard-0", "shard-1"], ids=["local", "process"])
    def test_an_op_outside_the_table_is_refused_alike(self, fleets, shard_id):
        mixed, _ = fleets
        mixed.create("age", "dc", memory_kb=0.5)
        with pytest.raises(ServiceError, match="unknown shard op 'query'"):
            mixed._ask(shard_id, "query", {"name": "age", "queries": [{"op": "total"}]})
        with pytest.raises(ServiceError, match="takes no arguments \\['kind'\\]"):
            mixed._ask(shard_id, "stats", {"name": "age", "kind": "dc"})
        with pytest.raises(ServiceError, match="missing arguments \\['snapshot'\\]"):
            mixed._ask(shard_id, "restore", {"name": "age"})


class TestClusterStats:
    def test_stats_reports_shards_placement_and_merge_cache(self, coordinator):
        coordinator.create("age", "dc")
        coordinator.create("hot", "dc", partition_boundaries=[100.0])
        coordinator.ingest("hot", insert=[50.0, 150.0])
        coordinator.query("hot", [{"op": "total"}])
        stats = coordinator.stats()
        assert {shard["shard_id"] for shard in stats["shards"]} == set(coordinator.shard_ids)
        assert "hot" in stats["placement"]["partitions"]
        assert stats["merge_cache"]["hot"]["generation_sum"] >= 1

    def test_attribute_stats_partitioned_and_not(self, coordinator):
        coordinator.create("age", "dc")
        coordinator.create("hot", "dc", partition_boundaries=[100.0])
        plain = coordinator.attribute_stats("age")
        assert plain["partitioned"] is False
        assert plain["stats"]["name"] == "age"
        partitioned = coordinator.attribute_stats("hot")
        assert partitioned["partitioned"] is True
        assert set(partitioned["pieces"]) == set(
            coordinator.router.partition_for("hot").piece_shard_ids
        )
