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
* the shard protocol, :data:`~repro.cluster.protocol.OPS`: every op a
  shard serves, declared once with its arguments, and one
  :func:`~repro.cluster.protocol.dispatch` that runs an ``(op, args)``
  request on a worker and on an in-process shard alike; its members are
  :class:`~repro.cluster.protocol.LocalShard` (in-process store, one method
  per op) and :class:`~repro.cluster.transport.ProcessShard` (spawned
  worker process behind the persistent binary transport), each a
  :class:`~repro.cluster.protocol.ShardBackend`, which carries only an id
  and an incarnation;
* :class:`~repro.cluster.supervisor.ShardSupervisor` -- spawns each shard as
  its own OS process (own store, own WAL dir, own port), monitors liveness
  and tears the fleet down;
* :class:`~repro.cluster.coordinator.ClusterCoordinator` -- scatter-gather
  ingest (one ``(op, args)`` leg per shard, pipelined over process shards
  and dispatched in process over the others, in a mixed fleet too), merged
  global estimates, rebalance / drain;
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
