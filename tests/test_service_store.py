"""Unit tests for the statistics service's HistogramStore."""

import pytest

from repro import DuplicateAttributeError, HistogramStore, UnknownAttributeError
from repro.exceptions import ConfigurationError


@pytest.fixture
def store():
    return HistogramStore()


@pytest.fixture
def loaded_store(store, rng):
    store.create("age", "dc", memory_kb=0.5)
    store.create("price", "dado", memory_kb=0.5)
    store.insert("age", rng.integers(0, 100, 3000).astype(float))
    store.insert("price", rng.integers(0, 500, 3000).astype(float))
    return store


class TestRegistry:
    def test_create_and_contains(self, store):
        stats = store.create("age", "dc", memory_kb=0.5)
        assert stats.name == "age"
        assert stats.kind == "dc"
        assert stats.total_count == 0
        assert "age" in store
        assert len(store) == 1
        assert store.names() == ["age"]

    @pytest.mark.parametrize("kind", ["dc", "dvo", "dado", "ac"])
    def test_create_every_dynamic_kind(self, store, kind):
        stats = store.create(f"attr_{kind}", kind, memory_kb=0.5, disk_factor=2.0)
        assert stats.kind == kind

    def test_duplicate_create_rejected(self, store):
        store.create("age")
        with pytest.raises(DuplicateAttributeError):
            store.create("age")

    def test_duplicate_create_exist_ok(self, store):
        store.create("age", memory_kb=0.5)
        store.insert("age", [1.0, 2.0, 3.0])
        stats = store.create("age", memory_kb=0.5, exist_ok=True)
        assert stats.total_count == 3  # existing attribute untouched

    def test_unknown_kind_rejected(self, store):
        with pytest.raises(ConfigurationError):
            store.create("age", "mystery")

    def test_empty_name_rejected(self, store):
        with pytest.raises(ConfigurationError):
            store.create("")

    def test_drop(self, store):
        store.create("age")
        store.drop("age")
        assert "age" not in store
        with pytest.raises(UnknownAttributeError):
            store.drop("age")

    def test_unknown_attribute_raises(self, store):
        with pytest.raises(UnknownAttributeError):
            store.insert("missing", [1.0])
        with pytest.raises(UnknownAttributeError):
            store.estimate_range("missing", 0, 1)
        with pytest.raises(UnknownAttributeError):
            store.stats("missing")


class TestReadsAndWrites:
    def test_insert_returns_batch_size_and_counts(self, store):
        store.create("age", "dc", memory_kb=0.5)
        assert store.insert("age", [1.0, 2.0, 3.0]) == 3
        assert store.insert("age", []) == 0
        assert store.total_count("age") == pytest.approx(3.0)
        stats = store.stats("age")
        assert stats.inserted == 3
        assert stats.generation == 1

    def test_delete_batch(self, loaded_store):
        before = loaded_store.total_count("age")
        deleted = loaded_store.delete("age", [10.0, 20.0])
        assert deleted == 2
        assert loaded_store.total_count("age") == pytest.approx(before - 2)
        assert loaded_store.stats("age").deleted == 2

    def test_large_delete_batch_takes_vectorised_path(self, loaded_store, rng):
        # Batches above the vectorisation threshold go through one binning
        # pass; totals, per-attribute counters and a single generation bump
        # must match the per-value contract exactly.
        before = loaded_store.total_count("age")
        generation = loaded_store.stats("age").generation
        batch = rng.integers(0, 100, 500).astype(float).tolist()
        assert loaded_store.delete("age", batch) == 500
        assert loaded_store.total_count("age") == pytest.approx(before - 500)
        assert loaded_store.stats("age").deleted == 500
        assert loaded_store.stats("age").generation == generation + 1

    def test_partial_delete_batch_reports_applied_count(self, store):
        from repro.exceptions import DeletionError

        store.create("age", "dc", memory_kb=0.5)
        store.insert("age", [10.0] * 5)
        with pytest.raises(DeletionError) as excinfo:
            store.delete("age", [10.0, 7777.0, 10.0])
        # 10.0 applied, 7777.0 poisoned (loading buffer miss): one applied.
        assert excinfo.value.applied_count == 1
        assert store.stats("age").deleted == 1
        assert store.total_count("age") == pytest.approx(4.0)

    def test_estimates_match_underlying_histogram(self, loaded_store):
        attribute = loaded_store._attribute("age")
        histogram = attribute.histogram
        assert loaded_store.estimate_range("age", 10, 40) == pytest.approx(
            histogram.estimate_range(10, 40)
        )
        assert loaded_store.estimate_equal("age", 50.0) == pytest.approx(
            histogram.estimate_equal(50.0)
        )
        xs = [0.0, 25.0, 99.0]
        assert loaded_store.cdf("age", xs) == pytest.approx(list(histogram.cdf_many(xs)))

    def test_attributes_are_independent(self, loaded_store):
        assert loaded_store.total_count("age") == pytest.approx(3000)
        assert loaded_store.total_count("price") == pytest.approx(3000)
        loaded_store.insert("age", [5.0])
        assert loaded_store.total_count("price") == pytest.approx(3000)

    def test_batched_insert_equivalent_to_per_value_totals(self, store, rng):
        values = rng.integers(0, 80, 2000).astype(float)
        store.create("batched", "dc", memory_kb=0.5)
        store.create("looped", "dc", memory_kb=0.5)
        store.insert("batched", values)
        for value in values:
            store.insert("looped", [value], repartition_interval=1)
        assert store.total_count("batched") == pytest.approx(store.total_count("looped"))
        # The batched maintenance may delay repartitions slightly, but the
        # served distribution must stay close to the per-value one.
        for low, high in [(0, 20), (10, 60), (40, 79)]:
            a = store.estimate_range("batched", low, high)
            b = store.estimate_range("looped", low, high)
            assert a == pytest.approx(b, rel=0.15, abs=30.0)


class TestQueryBatches:
    def test_query_runs_all_ops(self, loaded_store):
        response = loaded_store.query(
            "age",
            [
                {"op": "total"},
                {"op": "range", "low": 0, "high": 99},
                {"op": "equal", "value": 42.0},
                {"op": "cdf", "xs": [0.0, 50.0, 99.0]},
                {"op": "selectivity", "low": 0, "high": 99},
            ],
        )
        total, full_range, equal, cdf, selectivity = response["results"]
        assert total == pytest.approx(3000)
        assert full_range == pytest.approx(total)
        assert equal > 0
        assert cdf[-1] == pytest.approx(1.0)
        assert selectivity == pytest.approx(1.0)
        assert response["generation"] == loaded_store.stats("age").generation

    def test_query_unknown_op_rejected(self, loaded_store):
        with pytest.raises(ConfigurationError):
            loaded_store.query("age", [{"op": "mystery"}])


class TestStats:
    def test_stats_all_sorted(self, loaded_store):
        stats = loaded_store.stats_all()
        assert [s.name for s in stats] == ["age", "price"]
        assert all(s.total_count == pytest.approx(3000) for s in stats)

    def test_stats_to_dict_round_trips_json(self, loaded_store):
        import json

        payload = json.loads(json.dumps(loaded_store.stats("age").to_dict()))
        assert payload["name"] == "age"
        assert payload["kind"] == "dc"
        assert payload["total_count"] == pytest.approx(3000)


class TestSnapshotRestore:
    def test_snapshot_restore_round_trip(self, loaded_store):
        snapshot = loaded_store.snapshot("age")
        before_range = loaded_store.estimate_range("age", 10, 60)
        loaded_store.insert("age", [1.0] * 500)
        loaded_store.restore("age", snapshot)
        assert loaded_store.total_count("age") == pytest.approx(3000)
        assert loaded_store.estimate_range("age", 10, 60) == pytest.approx(before_range)

    def test_restore_bumps_generation(self, loaded_store):
        generation = loaded_store.stats("age").generation
        loaded_store.restore("age", loaded_store.snapshot("age"))
        assert loaded_store.stats("age").generation > generation

    def test_restore_creates_missing_attribute(self, loaded_store):
        snapshot = loaded_store.snapshot("age")
        loaded_store.drop("age")
        stats = loaded_store.restore("age", snapshot)
        assert stats.total_count == pytest.approx(3000)
        assert "age" in loaded_store

    def test_restore_continues_accepting_updates(self, loaded_store):
        snapshot = loaded_store.snapshot("price")
        loaded_store.restore("price", snapshot)
        loaded_store.insert("price", [100.0, 200.0])
        assert loaded_store.total_count("price") == pytest.approx(3002)

    def test_snapshot_all_restore_all(self, loaded_store):
        payload = loaded_store.snapshot_all()
        fresh = HistogramStore()
        restored = fresh.restore_all(payload)
        assert sorted(s.name for s in restored) == ["age", "price"]
        assert fresh.total_count("age") == pytest.approx(3000)
        assert fresh.estimate_range("price", 0, 250) == pytest.approx(
            loaded_store.estimate_range("price", 0, 250)
        )

    def test_snapshot_is_json_compatible(self, loaded_store):
        import json

        payload = json.loads(json.dumps(loaded_store.snapshot_all()))
        fresh = HistogramStore()
        fresh.restore_all(payload)
        assert fresh.total_count("age") == pytest.approx(3000)


class TestFailureAtomicity:
    def test_partial_delete_failure_still_bumps_generation(self, store):
        from repro.exceptions import DeletionError

        store.create("age", "dc", memory_kb=0.5)
        store.insert("age", [5.0])
        generation = store.stats("age").generation
        with pytest.raises(DeletionError):
            store.delete("age", [5.0, 5.0])  # second delete underflows
        # The first delete was applied, so readers must see a new generation.
        assert store.stats("age").generation > generation
        assert store.total_count("age") == pytest.approx(0.0)


class TestValueValidation:
    def test_non_finite_values_rejected_before_mutation(self, store):
        store.create("age", "dc", memory_kb=0.5)
        store.insert("age", [1.0, 2.0])
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigurationError):
                store.insert("age", [3.0, bad])
            with pytest.raises(ConfigurationError):
                store.delete("age", [bad])
        # Nothing from the rejected batches was applied.
        assert store.total_count("age") == pytest.approx(2.0)
        assert store.stats("age").inserted == 2

    def test_explicit_zero_repartition_interval_rejected(self, store):
        store.create("age", "dc", memory_kb=0.5)
        with pytest.raises(ConfigurationError):
            store.insert("age", [1.0], repartition_interval=0)


class TestVersions:
    """``(incarnation, generation)`` names one published view of one store."""

    def test_each_store_instance_mints_its_own_incarnation(self):
        assert HistogramStore().incarnation != HistogramStore().incarnation

    def test_a_recovered_store_mints_a_new_incarnation_outside_its_snapshots(self, tmp_path):
        from repro.service import DurabilityConfig

        store = HistogramStore(durability=DurabilityConfig(tmp_path))
        store.create("age", "dc", memory_kb=0.5)
        store.insert("age", [1.0, 2.0, 3.0])
        snapshot = store.snapshot("age")
        store.close()
        recovered = HistogramStore.recover(tmp_path)
        assert recovered.incarnation != store.incarnation
        assert recovered.snapshot("age") == snapshot  # no token in the payload
        recovered.close()

    def test_published_ships_the_version_and_view_and_counts_the_read(self):
        from repro.core.base import SnapshotHistogram
        from repro.core.segment_view import SegmentView
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        store = HistogramStore(metrics=registry)
        store.create("age", "dc", memory_kb=0.5)
        store.insert("age", [float(v % 20) for v in range(200)])
        published = store.published("age")
        assert (published["incarnation"], published["generation"]) == (store.incarnation, 1)
        shipped = SnapshotHistogram(SegmentView.from_wire(published["view"]))
        queries = [{"op": "total"}, {"op": "range", "low": 2.0, "high": 11.5}]
        assert store.query("age", queries)["results"] == [
            shipped.total_count,
            shipped.estimate_range(2.0, 11.5),
        ]
        reads = registry.get("repro_store_reads_total")
        assert reads.value(attribute="age", op="published") == 1
        with pytest.raises(UnknownAttributeError):
            store.published("ghost")
