"""Unit tests for deterministic cluster placement (ShardRouter / RangePartition)."""

import numpy as np
import pytest

from repro import ClusterError, ConfigurationError
from repro.cluster import RangePartition, ShardRouter


SHARDS = ["shard-0", "shard-1", "shard-2", "shard-3"]


class TestConsistentHashing:
    def test_placement_is_deterministic_across_instances(self):
        names = [f"attribute-{i}" for i in range(50)]
        first = ShardRouter(SHARDS)
        second = ShardRouter(list(SHARDS))
        assert [first.shard_for(n) for n in names] == [second.shard_for(n) for n in names]

    def test_placement_spreads_over_shards(self):
        router = ShardRouter(SHARDS)
        homes = {router.shard_for(f"attribute-{i}") for i in range(200)}
        assert homes == set(SHARDS)

    def test_removing_a_shard_moves_only_its_attributes(self):
        names = [f"attribute-{i}" for i in range(200)]
        full = ShardRouter(SHARDS)
        reduced = ShardRouter(SHARDS[:-1])
        for name in names:
            home = full.shard_for(name)
            if home != SHARDS[-1]:
                assert reduced.shard_for(name) == home

    def test_exclude_walks_past_the_excluded_shard(self):
        router = ShardRouter(SHARDS)
        name = "some-attribute"
        home = router.shard_for(name)
        alternative = router.ring_shard_for(name, exclude=(home,))
        assert alternative != home
        assert alternative in SHARDS

    def test_excluding_every_shard_is_an_error(self):
        router = ShardRouter(SHARDS)
        with pytest.raises(ClusterError):
            router.ring_shard_for("x", exclude=tuple(SHARDS))

    def test_rejects_bad_membership(self):
        with pytest.raises(ConfigurationError):
            ShardRouter([])
        with pytest.raises(ConfigurationError):
            ShardRouter(["a", "a"])
        with pytest.raises(ConfigurationError):
            ShardRouter([""])


class TestOverrides:
    def test_override_beats_the_ring(self):
        router = ShardRouter(SHARDS)
        name = "pinned"
        other = next(s for s in SHARDS if s != router.shard_for(name))
        router.assign(name, other)
        assert router.shard_for(name) == other
        router.unassign(name)
        assert router.shard_for(name) == ShardRouter(SHARDS).shard_for(name)

    def test_override_requires_member_shard(self):
        router = ShardRouter(SHARDS)
        with pytest.raises(ClusterError):
            router.assign("x", "not-a-shard")

    def test_placement_reports_rules(self):
        router = ShardRouter(SHARDS)
        router.assign("pinned", "shard-2")
        router.partition("hot", [10.0, 20.0])
        placement = router.placement()
        assert placement["overrides"] == {"pinned": "shard-2"}
        assert placement["partitions"]["hot"]["boundaries"] == [10.0, 20.0]


class TestRangePartition:
    def test_values_route_by_half_open_ranges(self):
        partition = RangePartition("hot", (10.0, 20.0), ("a", "b", "c"))
        assert partition.shard_for_value(9.9) == "a"
        # A value on a cut point routes to the piece on its right.
        assert partition.shard_for_value(10.0) == "b"
        assert partition.shard_for_value(19.9) == "b"
        assert partition.shard_for_value(20.0) == "c"
        assert partition.shard_for_value(1e9) == "c"

    def test_split_groups_match_scalar_routing(self):
        partition = RangePartition("hot", (10.0, 20.0, 30.0), ("a", "b", "c", "d"))
        rng = np.random.default_rng(5)
        values = rng.uniform(-5.0, 45.0, 500).tolist()
        groups = partition.split(values)
        total = sum(len(g) for g in groups.values())
        assert total == len(values)
        for shard_id, group in groups.items():
            for value in group:
                assert partition.shard_for_value(value) == shard_id

    def test_split_preserves_submission_order_per_shard(self):
        partition = RangePartition("hot", (10.0,), ("a", "b"))
        values = [1.0, 11.0, 2.0, 12.0, 3.0]
        groups = partition.split(values)
        assert groups["a"] == [1.0, 2.0, 3.0]
        assert groups["b"] == [11.0, 12.0]

    def test_pieces_may_share_a_shard(self):
        partition = RangePartition("hot", (10.0, 20.0), ("a", "b", "a"))
        groups = partition.split([5.0, 15.0, 25.0])
        assert groups == {"a": [5.0, 25.0], "b": [15.0]}
        assert partition.piece_shard_ids == ("a", "b")

    def test_default_piece_assignment_is_round_robin(self):
        router = ShardRouter(["s1", "s0"])
        partition = router.partition("hot", [1.0, 2.0, 3.0])
        assert partition.shard_ids == ("s0", "s1", "s0", "s1")

    def test_rejects_malformed_partitions(self):
        with pytest.raises(ConfigurationError):
            RangePartition("hot", (10.0, 10.0), ("a", "b", "c"))
        with pytest.raises(ConfigurationError):
            RangePartition("hot", (20.0, 10.0), ("a", "b", "c"))
        with pytest.raises(ConfigurationError):
            RangePartition("hot", (float("nan"),), ("a", "b"))
        with pytest.raises(ConfigurationError):
            RangePartition("hot", (10.0,), ("a",))

    def test_partition_and_pin_are_mutually_exclusive(self):
        router = ShardRouter(SHARDS)
        router.assign("pinned", "shard-0")
        with pytest.raises(ClusterError):
            router.partition("pinned", [1.0])
        router.partition("hot", [1.0])
        with pytest.raises(ClusterError):
            router.assign("hot", "shard-0")
        with pytest.raises(ClusterError):
            router.shard_for("hot")
