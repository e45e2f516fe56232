"""Replicated-cluster accuracy property (ISSUE 5 satellite).

With ``replication_factor=2`` and one replica shard killed mid-run under
concurrent writers:

* every write succeeds (the surviving replica of each group applies it),
* every read succeeds (failover), and
* merged estimates for both the range-partitioned and the hashed attribute
  still match an unsharded reference store within a small factor of the
  error bound the benchmark matrix's ``merged_accuracy`` cell asserts (see
  ``BOUND_FACTOR`` for why the concurrent-writer scenario compounds the
  benchmark's single-stream bound).

After the run the killed shard is revived and resynced, and every replica
pair must be bit-identical again.
"""

from __future__ import annotations

import importlib.util
import pathlib
import threading

import numpy as np
import pytest

from fault_injection import FlakyShard
from repro.cluster import ClusterCoordinator, LocalShard, ShardRouter
from repro.service import HistogramStore

pytestmark = pytest.mark.slow

MATRIX_PATH = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "matrix.py"
N_SHARDS = 4
N_WRITERS = 3
BATCHES_PER_WRITER = 12
BATCH = 200
DOMAIN_HIGH = 4000.0


#: The matrix's bound holds for merged-vs-unsharded on ONE ordered insert
#: stream.  Here both sides carry extra, timing-dependent
#: layout divergence: the cluster's serving replica applied three writers'
#: batches in a nondeterministic interleaving while the reference applied
#: them writer-by-writer, and histogram maintenance is order-sensitive.  The
#: two approximation errors compound, so the assertion allows 2x the
#: recorded bound -- tight enough to catch a lost/duplicated batch (which
#: the exact conservation asserts below catch at 1e-9 anyway), loose enough
#: not to flake on an unlucky interleaving.
BOUND_FACTOR = 2.0


def recorded_error_bound() -> float:
    spec = importlib.util.spec_from_file_location("matrix", MATRIX_PATH)
    matrix = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(matrix)
    return float(matrix.CELLS["merged_accuracy"]["max_error"])


@pytest.mark.parametrize("seed", [3, 17, 42])
def test_estimates_match_unsharded_reference_with_one_replica_killed(seed):
    bound = BOUND_FACTOR * recorded_error_bound()
    shards = [FlakyShard(LocalShard(f"shard-{index}")) for index in range(N_SHARDS)]
    by_id = {shard.shard_id: shard for shard in shards}
    router = ShardRouter([shard.shard_id for shard in shards], replication_factor=2)
    coordinator = ClusterCoordinator(shards, router=router)
    # Two pieces on shard-0/shard-1; their followers land on shard-2/3,
    # so killing ANY single shard leaves every replica group alive.
    coordinator.create(
        "hot", "dc", memory_kb=0.5, partition_boundaries=[DOMAIN_HIGH / 2]
    )
    coordinator.create("hashed", "dc", memory_kb=0.5)

    # The victim is a piece primary: reads MUST fail over.
    victim = by_id[next(iter(coordinator.router.partition_replicas("hot")))]

    streams = {}
    rng = np.random.default_rng(seed)
    for writer_index in range(N_WRITERS):
        centres = rng.choice(np.arange(0, DOMAIN_HIGH, 250), BATCHES_PER_WRITER * BATCH)
        noise = rng.integers(-40, 41, BATCHES_PER_WRITER * BATCH)
        streams[writer_index] = np.clip(
            centres + noise, 0, DOMAIN_HIGH - 1
        ).astype(float)

    kill_at = threading.Barrier(N_WRITERS + 1)
    errors = []

    def writer(index: int) -> None:
        values = streams[index]
        try:
            for batch_index in range(BATCHES_PER_WRITER):
                if batch_index == BATCHES_PER_WRITER // 2:
                    kill_at.wait(timeout=30)  # kill happens here
                chunk = values[batch_index * BATCH : (batch_index + 1) * BATCH]
                coordinator.ingest_batch(
                    {"hot": chunk.tolist(), "hashed": chunk.tolist()}
                )
        except Exception as error:  # pragma: no cover - failure reporting
            errors.append(error)

    threads = [
        threading.Thread(target=writer, args=(index,)) for index in range(N_WRITERS)
    ]
    for thread in threads:
        thread.start()
    kill_at.wait(timeout=30)
    victim.down = True
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads), "writers deadlocked"
    assert errors == [], f"writes failed despite a live replica: {errors[0]!r}"

    all_values = np.concatenate([streams[i] for i in range(N_WRITERS)])
    reference = HistogramStore()
    reference.create("hot", "dc", memory_kb=0.5)
    reference.create("hashed", "dc", memory_kb=0.5)
    for index in range(N_WRITERS):
        reference.insert("hot", streams[index])
        reference.insert("hashed", streams[index])

    total = float(len(all_values))
    # Conservation first: no write lost, none double-applied.
    assert coordinator.total_count("hot") == pytest.approx(total, rel=1e-9)
    assert coordinator.total_count("hashed") == pytest.approx(total, rel=1e-9)

    query_rng = np.random.default_rng(1000 + seed)
    for _ in range(25):
        low = float(query_rng.uniform(0, DOMAIN_HIGH * 0.9))
        high = low + float(query_rng.uniform(50, DOMAIN_HIGH / 3))
        for name in ("hot", "hashed"):
            cluster_estimate = coordinator.estimate_range(name, low, high)
            reference_estimate = reference.estimate_range(name, low, high)
            assert abs(cluster_estimate - reference_estimate) <= bound * total, (
                f"{name} [{low:.0f}, {high:.0f}]: cluster={cluster_estimate:.1f} "
                f"reference={reference_estimate:.1f} bound={bound * total:.1f}"
            )

    # Revive + resync.  The resynced shard is bit-identical to the
    # replica it was seeded from (a full-state copy).  Replica pairs the
    # kill never touched hold the same data *multiset* but may have
    # diverged bucket layouts -- concurrent writers' batches can apply
    # in different orders per replica, and histogram maintenance is
    # order-sensitive -- so for those only conservation is asserted.
    victim.down = False
    report = coordinator.resync(victim.shard_id)
    assert coordinator.stats()["stale_replicas"] == []
    for name, source_id in report["resynced"].items():
        source_snapshot = by_id[source_id].inner.snapshot(name)
        victim_snapshot = victim.inner.snapshot(name)
        for key in ("histogram", "inserted", "deleted"):
            assert victim_snapshot[key] == source_snapshot[key]
    for name in ("hot", "hashed"):
        for replicas in coordinator.router.replica_sets_for(name):
            group_totals = {
                sid: by_id[sid].inner.store.total_count(name) for sid in replicas
            }
            first = next(iter(group_totals.values()))
            for shard_total in group_totals.values():
                assert shard_total == pytest.approx(first, rel=1e-9), group_totals
