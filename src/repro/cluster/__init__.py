"""Sharded statistics cluster: scatter-gather ingest, merged global estimates.

The paper's Section 8 builds a *global* histogram over a shared-nothing union
of sites by superimposing the per-site histograms.  This package turns that
machinery into a serving layer: attributes are spread across N backing
shards, writes are scattered one leg per shard, and global questions about a
range-partitioned attribute are answered from the union of the piece views
the coordinator holds (not reduced to a budget: it holds the views anyway).

* :class:`~repro.cluster.router.ShardRouter` /
  :class:`~repro.cluster.router.RangePartition` -- deterministic placement:
  consistent hashing, explicit pins, value-range partitioning;
* :class:`~repro.cluster.protocol.ShardBackend` with
  :class:`~repro.cluster.protocol.LocalShard` (in-process store) and
  :class:`~repro.cluster.transport.ProcessShard` (spawned worker process
  behind the persistent binary transport) members;
* :class:`~repro.cluster.supervisor.ShardSupervisor` -- spawns each shard as
  its own OS process (own store, own WAL dir, own port), monitors liveness
  and tears the fleet down;
* :class:`~repro.cluster.coordinator.ClusterCoordinator` -- scatter-gather
  ingest (one ``(op, args)`` leg per shard, pipelined over process shards),
  merged global estimates, rebalance / drain;
* :class:`~repro.cluster.server.ClusterServer` /
  :class:`~repro.cluster.server.ClusterClient` -- the JSON HTTP face
  (superset of the single-node service API).
"""

from .coordinator import ClusterCoordinator
from .protocol import LocalShard, ShardBackend
from .router import RangePartition, ShardRouter, stable_hash
from .server import ClusterClient, ClusterServer
from .supervisor import ShardSupervisor
from .transport import BinaryShardClient, BinaryShardServer, ProcessShard

__all__ = [
    "ClusterCoordinator",
    "ShardBackend",
    "LocalShard",
    "ProcessShard",
    "BinaryShardClient",
    "BinaryShardServer",
    "ShardSupervisor",
    "RangePartition",
    "ShardRouter",
    "stable_hash",
    "ClusterClient",
    "ClusterServer",
]
