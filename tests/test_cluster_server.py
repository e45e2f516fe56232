"""End-to-end tests for the cluster HTTP server and the cluster-aware client."""

import pytest

from repro import ServiceError, UnknownAttributeError
from repro.cluster import ClusterClient, ClusterCoordinator, ClusterServer, LocalShard


@pytest.fixture
def cluster():
    coordinator = ClusterCoordinator([LocalShard(f"shard-{i}") for i in range(3)])
    with ClusterServer(coordinator) as server:
        yield server


@pytest.fixture
def client(cluster):
    host, port = cluster.address
    return ClusterClient(host, port)


class TestClusterRoutes:
    def test_health_reports_shards(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["shards"] == 3
        assert health["attributes"] == 0

    def test_create_ingest_estimate_round_trip(self, client):
        created = client.create("age", "dc", memory_kb=0.5)
        assert created["partitioned"] is False
        client.ingest("age", insert=[float(v % 90) for v in range(2000)])
        assert client.total_count("age") == pytest.approx(2000.0)
        assert client.estimate_range("age", 0, 89) == pytest.approx(2000.0, rel=0.02)

    def test_partitioned_round_trip_with_merged_estimates(self, client):
        created = client.create(
            "hot", "dc", memory_kb=0.5, partition_boundaries=[100.0, 200.0]
        )
        assert created["partitioned"] is True
        assert created["partition"]["boundaries"] == [100.0, 200.0]
        response = client.ingest("hot", insert=[50.0] * 40 + [150.0] * 40 + [250.0] * 40)
        assert response["inserted"] == 120
        assert len(response["per_shard"]) == 3
        batch = client.query("hot", [{"op": "total"}, {"op": "range", "low": 120, "high": 180}])
        assert batch["merged"] is True
        assert batch["results"][0] == pytest.approx(120.0)
        assert batch["results"][1] == pytest.approx(40.0, abs=10.0)

    def test_attribute_stats_routes(self, client):
        client.create("age", "dc")
        client.create("hot", "dc", partition_boundaries=[10.0])
        plain = client.stats("age")
        assert plain["partitioned"] is False and plain["stats"]["name"] == "age"
        partitioned = client.stats("hot")
        assert partitioned["partitioned"] is True
        assert len(partitioned["pieces"]) == 2

    def test_ingest_batch_route_with_deletes(self, client):
        client.create("age", "dc", memory_kb=0.5)
        client.create("hot", "dc", memory_kb=0.5, partition_boundaries=[100.0])
        report = client.ingest_batch({"age": [10.0] * 5, "hot": [50.0, 150.0]})
        assert report["inserted"] == 7
        report = client.ingest_batch(
            {"age": {"insert": [11.0], "delete": [10.0, 10.0]}, "hot": {"delete": [50.0]}}
        )
        assert report["inserted"] == 1
        assert report["deleted"] == 3
        assert client.total_count("age") == pytest.approx(4.0)
        assert client.total_count("hot") == pytest.approx(1.0)

    def test_ingest_batch_route_rejects_malformed_items(self, client):
        with pytest.raises(ServiceError):
            client.ingest_batch({"age": "not-a-list"})

    def test_cluster_stats_route(self, client):
        client.create("hot", "dc", partition_boundaries=[10.0])
        client.ingest("hot", insert=[5.0, 15.0])
        client.total_count("hot")
        stats = client.cluster_stats()
        assert len(stats["shards"]) == 3
        assert "hot" in stats["placement"]["partitions"]
        assert stats["merge_cache"]["hot"]["generation_sum"] >= 1

    def test_rebalance_route(self, client, cluster):
        client.create("age", "dc", memory_kb=0.5)
        client.ingest("age", insert=[1.0, 2.0, 3.0])
        coordinator = cluster.coordinator
        source = coordinator.router.shard_for("age")
        target = next(s for s in coordinator.shard_ids if s != source)
        report = client.rebalance("age", target)
        assert report["moved"] is True and report["to"] == target
        assert client.total_count("age") == pytest.approx(3.0)

    def test_drain_route(self, client, cluster):
        client.create("age", "dc", memory_kb=0.5)
        client.ingest("age", insert=[1.0] * 5)
        victim = cluster.coordinator.router.shard_for("age")
        report = client.drain(victim)
        assert "age" in report["moved"]
        assert client.total_count("age") == pytest.approx(5.0)

    def test_drop_route(self, client):
        client.create("hot", "dc", partition_boundaries=[10.0])
        client.drop("hot")
        with pytest.raises(UnknownAttributeError):
            client.total_count("hot")

    def test_unknown_shard_is_a_client_error(self, client):
        client.create("age", "dc")
        with pytest.raises(ServiceError) as excinfo:
            client.rebalance("age", "no-such-shard")
        assert "unknown shard" in str(excinfo.value)

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/nonsense")
        assert "HTTP 404" in str(excinfo.value)

    def test_get_estimate_via_query_string(self, client):
        client.create("hot", "dc", partition_boundaries=[100.0])
        client.ingest("hot", insert=[50.0] * 10 + [150.0] * 10)
        response = client._request(
            "GET", client._attribute_path("hot", "estimate") + "?op=total"
        )
        assert response["result"] == pytest.approx(20.0)


class TestServiceClientCompatibility:
    """The single-node service surface keeps working against a cluster."""

    def test_statistics_client_drives_a_cluster(self, cluster):
        from repro import StatisticsClient

        host, port = cluster.address
        plain = StatisticsClient(host, port)
        plain.create("age", "dc", memory_kb=0.5)
        plain.ingest("age", insert=[float(v % 90) for v in range(500)])
        assert plain.total_count("age") == pytest.approx(500.0)
        listing = plain.stats()
        assert any(row["name"] == "age" for row in listing["attributes"])
        snapshot = plain.snapshot("age")
        plain.ingest("age", insert=[1.0, 2.0])
        plain.restore("age", snapshot)
        assert plain.total_count("age") == pytest.approx(500.0)

    def test_snapshot_of_partitioned_attribute_is_a_clear_error(self, client):
        client.create("hot", "dc", partition_boundaries=[10.0])
        with pytest.raises(ServiceError, match="range-partitioned"):
            client.snapshot("hot")

    def test_store_stats_cli_works_against_a_cluster(self, cluster):
        import io

        from repro.cli import main

        host, port = cluster.address
        coordinator = cluster.coordinator
        coordinator.create("age", "dc", memory_kb=0.5)
        coordinator.ingest("age", insert=[1.0] * 10)
        out = io.StringIO()
        code = main(["store-stats", "--host", host, "--port", str(port)], out=out)
        assert code == 0
        assert "age" in out.getvalue()
