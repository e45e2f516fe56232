"""Property tests for the cluster merge cache (mirrors the spliced-cache guard).

The coordinator caches the merged global histogram of a range-partitioned
attribute together with the piece views it was built from.  The invariant
(the cluster analogue of ``test_properties.py``'s spliced-cache guard):
after ANY interleaving of shard writes and cache-populating queries, the
histogram the cache serves is bit-identical to a from-scratch superimpose
over the current piece snapshots.  The merge is incremental (piece
views retained, only moved pieces re-fetched), so the same property also
pins the incremental path: whatever mix of full rebuilds, cache hits, and
partial re-fetches an interleaving causes, the served histogram may never
drift from the from-scratch answer.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterCoordinator, LocalShard
from repro.distributed.union import superimpose
from repro.persistence import histogram_from_dict

# Hypothesis soak over cluster write interleavings: excluded from the tier-1
# run (pytest.ini), exercised by the scheduled slow-suite CI job.
pytestmark = pytest.mark.slow

BOUNDARIES = [100.0, 200.0, 300.0]

# Each write op: an insert batch of values spread anywhere over the domain
# (so any subset of pieces may be hit), or a single-value delete.
write_op = st.one_of(
    st.lists(
        st.floats(min_value=0.0, max_value=400.0, allow_nan=False, width=32),
        min_size=1,
        max_size=20,
    ),
    st.none(),  # None = query checkpoint (populate + verify the cache)
)


def buckets_of(histogram):
    return [(b.left, b.right, b.count) for b in histogram.buckets()]


def from_scratch_merge(coordinator, name):
    partition = coordinator.router.partition_for(name)
    members = [
        histogram_from_dict(dict(coordinator.shard(sid).snapshot(name)["histogram"]))
        for sid in partition.piece_shard_ids
    ]
    return superimpose(members)


@settings(max_examples=30, deadline=None)
@given(st.lists(write_op, min_size=1, max_size=12))
def test_cached_merge_always_equals_from_scratch_rebuild(ops):
    coordinator = ClusterCoordinator([LocalShard(f"shard-{i}") for i in range(3)])
    coordinator.create("hot", "dc", memory_kb=0.5, partition_boundaries=BOUNDARIES)
    inserted = []
    for op in ops:
        if op is None:
            cached = coordinator.merged_histogram("hot")
            assert buckets_of(cached) == buckets_of(from_scratch_merge(coordinator, "hot"))
        else:
            coordinator.ingest("hot", insert=op)
            inserted.extend(op)
    # Final checkpoint: the cache (whatever mix of hits and rebuilds it
    # went through) must equal the from-scratch merge, and conserve mass.
    final = coordinator.merged_histogram("hot")
    assert buckets_of(final) == buckets_of(from_scratch_merge(coordinator, "hot"))
    assert abs(final.total_count - len(inserted)) <= 1e-6 * max(1, len(inserted))


class CountingShard(LocalShard):
    """A LocalShard that counts piece-view fetches (the ``published`` op)."""

    def __init__(self, shard_id):
        super().__init__(shard_id)
        self.snapshot_calls = 0

    def published(self, name):
        self.snapshot_calls += 1
        return super().published(name)


def test_incremental_merge_refetches_only_moved_pieces():
    """The merge cache retains unmoved pieces and re-fetches only moved ones."""
    shards = [CountingShard(f"shard-{i}") for i in range(4)]
    coordinator = ClusterCoordinator(shards)
    by_id = {shard.shard_id: shard for shard in shards}
    coordinator.create("hot", "dc", memory_kb=0.5, partition_boundaries=BOUNDARIES)
    coordinator.ingest("hot", insert=[50.0, 150.0, 250.0, 350.0])
    coordinator.merged_histogram("hot")
    baseline = {shard.shard_id: shard.snapshot_calls for shard in shards}

    # No writes since the rebuild: a pure cache hit, zero fetches.
    coordinator.merged_histogram("hot")
    assert {s.shard_id: s.snapshot_calls for s in shards} == baseline

    # Move exactly ONE piece (both values inside the first piece's
    # range): the next merge must re-fetch only that piece's shard and
    # reuse every retained member for the others.
    partition = coordinator.router.partition_for("hot")
    moved_shard = partition.piece_shard_ids[0]
    coordinator.ingest("hot", insert=[10.0, 20.0])
    coordinator.merged_histogram("hot")
    expected = {
        shard_id: count + (1 if shard_id == moved_shard else 0)
        for shard_id, count in baseline.items()
    }
    assert {s.shard_id: s.snapshot_calls for s in shards} == expected
    assert by_id[moved_shard].snapshot_calls == baseline[moved_shard] + 1

    # And the incrementally maintained merge is still bit-identical to a
    # from-scratch superimpose over current piece snapshots.
    assert buckets_of(coordinator.merged_histogram("hot")) == buckets_of(
        from_scratch_merge(coordinator, "hot")
    )


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.0, max_value=400.0, allow_nan=False, width=32),
        min_size=0,
        max_size=40,
    )
)
def test_merged_total_equals_sum_of_piece_totals(values):
    coordinator = ClusterCoordinator([LocalShard(f"shard-{i}") for i in range(3)])
    coordinator.create("hot", "dc", memory_kb=0.5, partition_boundaries=BOUNDARIES)
    if values:
        coordinator.ingest("hot", insert=values)
    partition = coordinator.router.partition_for("hot")
    piece_total = sum(
        coordinator.shard(sid).store.total_count("hot")
        for sid in partition.piece_shard_ids
    )
    assert abs(coordinator.total_count("hot") - piece_total) <= 1e-6 * max(1.0, piece_total)
