#!/usr/bin/env python
"""Sharded statistics cluster: scatter-gather ingest and merged estimates.

This example runs a 4-shard cluster in one process and walks through every
cluster-level behaviour:

1. a :class:`~repro.cluster.coordinator.ClusterCoordinator` over four
   in-process :class:`~repro.cluster.protocol.LocalShard` members, with a
   mixed catalog placed by consistent hashing and one hot attribute
   *value-range partitioned* across all shards,
2. scatter-gather ingest -- per-attribute batches routed to home shards,
   the hot attribute split per value and fanned out concurrently,
3. merged global estimates for the partitioned attribute, answered from
   the superimposed union (the paper's Section 8, without its reduce) of the
   piece views the coordinator holds -- each merged answer is the sum of the
   piece answers -- and rebuilt only for pieces a write moved,
4. a rebalance (snapshot/restore move) and a drain, the cluster's
   operational primitives,
5. the HTTP face: a :class:`~repro.cluster.server.ClusterServer` driven
   through the :class:`~repro.cluster.server.ClusterClient`,
6. N-way replication: a ``replication_factor=2`` cluster that keeps serving
   reads and writes with a shard killed, then heals the revived shard with
   ``resync`` (snapshot/restore from a live replica -- exactly-once by
   construction).

Run with::

    python examples/statistics_cluster.py

The same layout, with each shard in its own worker process, can be started
standalone with
``repro-experiments serve-cluster --shards 4 -a age:dc:1.0 -p hot:1250,2500,3750``
and inspected with ``repro-experiments cluster-stats``.
"""

from __future__ import annotations

import numpy as np

from repro import HistogramStore
from repro.cluster import ClusterClient, ClusterCoordinator, ClusterServer, LocalShard


def main() -> None:
    # 1. Four in-process shards behind one coordinator.
    shards = [LocalShard(f"shard-{index}") for index in range(4)]
    coordinator = ClusterCoordinator(shards)

    for name, kind in (("age", "dc"), ("price", "dado"), ("quantity", "dvo")):
        placed = coordinator.create(name, kind, memory_kb=1.0)
        print(f"created {name:<9} -> {placed['shard']} (consistent hashing)")

    # The hot attribute is split across all four shards by value range.
    created = coordinator.create(
        "hot", "dc", memory_kb=1.0, partition_boundaries=[1250.0, 2500.0, 3750.0]
    )
    print(f"created hot       -> range-partitioned over {created['partition']['shard_ids']}")

    # 2. Scatter-gather ingest: one concurrent stream per shard.
    rng = np.random.default_rng(7)
    hot_values = rng.uniform(0.0, 5000.0, 40_000)
    report = coordinator.ingest_batch(
        {
            "age": rng.normal(40.0, 12.0, 10_000).tolist(),
            "price": rng.lognormal(3.0, 0.6, 10_000).tolist(),
            "quantity": rng.integers(1, 50, 10_000).astype(float).tolist(),
            "hot": hot_values.tolist(),
        }
    )
    print(f"ingest_batch applied {report['inserted']} values: {report['per_shard']}")

    # 3. Merged global estimates: no single shard can answer these.
    reference = HistogramStore()
    reference.create("hot", "dc", memory_kb=1.0)
    reference.insert("hot", hot_values)
    for low, high in ((0.0, 5000.0), (1000.0, 3000.0), (2400.0, 2600.0)):
        merged = coordinator.estimate_range("hot", low, high)
        single = reference.estimate_range("hot", low, high)
        exact = float(((hot_values >= low) & (hot_values <= high)).sum())
        print(
            f"hot in [{low:6.0f}, {high:6.0f}]: merged={merged:9.1f}  "
            f"unsharded={single:9.1f}  exact={exact:9.0f}"
        )
    shards = coordinator.query("hot", [{"op": "total"}])["shards"]
    print(f"merged from the piece views held for {sorted(shards.values())} "
          "(each re-fetched only after a write to its piece)")

    # 4. Rebalance: move an attribute, then drain a whole shard.
    home = coordinator.router.shard_for("age")
    target = next(s for s in coordinator.shard_ids if s != home)
    move = coordinator.rebalance("age", target)
    print(f"rebalanced age: {move['from']} -> {move['to']} "
          f"(total preserved: {coordinator.total_count('age'):.0f})")
    drained = coordinator.drain(move["to"])
    print(f"drained {move['to']}: moved {sorted(drained['moved'])} "
          f"(partitioned pieces stay: {drained['skipped_partitioned']})")

    # 5. The same cluster over HTTP.
    with ClusterServer(coordinator) as server:
        host, port = server.address
        client = ClusterClient(host, port)
        health = client.health()
        print(f"cluster server at http://{host}:{port}: "
              f"{health['shards']} shards, {health['attributes']} attributes")
        batch = client.query(
            "hot",
            [{"op": "total"}, {"op": "range", "low": 0, "high": 2500},
             {"op": "selectivity", "low": 0, "high": 2500}],
        )
        total, below, fraction = batch["results"]
        print(f"via HTTP: total={total:.0f}, range[0,2500]={below:.0f}, "
              f"selectivity={fraction:.3f} (merged={batch['merged']})")

    # 6. Replication + failover + resync: a fresh 3-shard cluster where every
    #    attribute lives on two shards.
    from repro.cluster import ShardRouter

    replicas = [LocalShard(f"replica-{index}") for index in range(3)]
    router = ShardRouter([s.shard_id for s in replicas], replication_factor=2)
    replicated = ClusterCoordinator(replicas, router=router)
    replicated.create("latency", "dc", memory_kb=1.0)
    replicated.ingest("latency", insert=rng.exponential(20.0, 20_000).tolist())
    primary_id, follower_id = replicated.router.replicas_for("latency")
    print(f"latency replicated on {primary_id} + {follower_id}")

    # Both replicas hold the full copy; reads prefer the primary and
    # fail over to the follower on ShardUnavailableError (an in-process
    # LocalShard cannot die -- tests/fault_injection.py scripts that).
    served = replicated.query("latency", [{"op": "total"}])
    per_replica = {
        sid: replicated.shard(sid).store.total_count("latency")
        for sid in (primary_id, follower_id)
    }
    print(f"total={served['results'][0]:.0f} served by {served['shard']}; "
          f"each replica holds the full copy: {per_replica}")

    # Heal-by-copy: resync re-seeds a shard's replicas from live siblings.
    report = replicated.resync(follower_id)
    print(f"resync {follower_id}: re-seeded {sorted(report['resynced'])} "
          f"from {sorted(set(report['resynced'].values()))}")


if __name__ == "__main__":
    main()
