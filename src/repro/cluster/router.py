"""Deterministic attribute placement for the sharded statistics cluster.

Placement answers one question -- *which shard(s) own attribute X?* -- and it
must answer it identically on every coordinator that ever looks, across
processes and restarts, without a metadata service.  Three rules, in
precedence order:

1. **Explicit assignment overrides** (``assign``): the rebalance protocol
   pins a moved attribute to its new home, beating the hash ring.
2. **Value-range partitions** (``partition``): a single hot attribute is
   split across shards by value range; each *value* (not the attribute) is
   routed by comparing against the partition's cut points.
3. **Consistent hashing**: everything else lands on a hash ring built from
   the shard ids (``replicas`` virtual nodes per shard, SHA-1 based, so
   placement is stable across Python processes -- the builtin ``hash`` is
   salted per process and useless here).  Adding or removing a shard moves
   only the attributes in the affected ring arcs.

The router itself is a pure placement table: it never talks to shards.  The
coordinator owns the mutation discipline (overrides are flipped inside the
rebalance critical section).
"""

from __future__ import annotations

import bisect
import hashlib
import math
import threading
from dataclasses import dataclass
from collections.abc import Iterable, Sequence

import numpy as np

from ..exceptions import ClusterError, ConfigurationError

__all__ = ["RangePartition", "ShardRouter", "stable_hash"]


def stable_hash(key: str) -> int:
    """A process-independent 64-bit hash of ``key`` (SHA-1 prefix)."""
    return int.from_bytes(hashlib.sha1(key.encode("utf-8")).digest()[:8], "big")


@dataclass(frozen=True)
class RangePartition:
    """A value-range split of one attribute across shards.

    ``boundaries`` are the ascending cut points; piece ``i`` covers the
    half-open value range ``[boundaries[i-1], boundaries[i])`` (the first
    piece is unbounded below, the last unbounded above), so a value equal to
    a cut point routes to the piece on its *right* -- the same half-open
    convention the histograms use for shared bucket borders.
    """

    attribute: str
    boundaries: tuple[float, ...]
    shard_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.shard_ids) != len(self.boundaries) + 1:
            raise ConfigurationError(
                f"partition of {self.attribute!r} needs exactly "
                f"{len(self.boundaries) + 1} shard ids for "
                f"{len(self.boundaries)} boundaries, got {len(self.shard_ids)}"
            )
        for boundary in self.boundaries:
            if not math.isfinite(boundary):
                raise ConfigurationError(f"partition boundaries must be finite, got {boundary!r}")
        for previous, current in zip(self.boundaries, self.boundaries[1:], strict=False):
            if current <= previous:
                raise ConfigurationError(
                    f"partition boundaries must be strictly ascending, "
                    f"got {previous} before {current}"
                )

    @property
    def piece_shard_ids(self) -> tuple[str, ...]:
        """Distinct shard ids hosting at least one piece, in piece order."""
        seen: dict[str, None] = {}
        for shard_id in self.shard_ids:
            seen.setdefault(shard_id)
        return tuple(seen)

    def shard_for_value(self, value: float) -> str:
        """The shard id owning ``value``'s piece."""
        return self.shard_ids[bisect.bisect_right(self.boundaries, float(value))]

    def split(self, values: Sequence[float]) -> dict[str, list[float]]:
        """Group ``values`` by owning shard (one ``searchsorted`` pass).

        Order within each group preserves submission order, so per-shard
        ingest batches replay in the order the caller produced them.
        """
        if len(values) == 0:
            return {}
        arr = np.asarray(values, dtype=float)
        pieces = np.searchsorted(np.asarray(self.boundaries, dtype=float), arr, side="right")
        groups: dict[str, list[float]] = {}
        for piece in np.unique(pieces):
            shard_id = self.shard_ids[int(piece)]
            chunk = arr[pieces == piece].tolist()
            # Two pieces may share a shard; keep one batch per shard.
            groups.setdefault(shard_id, []).extend(chunk)
        return groups

    def to_dict(self) -> dict[str, object]:
        """JSON-compatible description (what cluster stats report)."""
        return {
            "attribute": self.attribute,
            "boundaries": list(self.boundaries),
            "shard_ids": list(self.shard_ids),
        }


class ShardRouter:
    """Placement table: overrides > range partitions > consistent hash ring.

    With ``replication_factor=N`` every attribute (and every piece of a
    range-partitioned attribute) is placed on N distinct shards: the primary
    keeps its existing meaning (pin > partition piece > ring), and the N-1
    followers are the next distinct shards walking the ring.  The router only
    *places*; the coordinator owns the write fan-out / read failover
    semantics.
    """

    def __init__(
        self,
        shard_ids: Sequence[str],
        *,
        replicas: int = 64,
        replication_factor: int = 1,
    ) -> None:
        ids = list(shard_ids)
        if not ids:
            raise ConfigurationError("the router needs at least one shard id")
        if len(set(ids)) != len(ids):
            raise ConfigurationError(f"shard ids must be unique, got {ids}")
        for shard_id in ids:
            if not shard_id or not isinstance(shard_id, str):
                raise ConfigurationError("shard ids must be non-empty strings")
        if replicas < 1:
            raise ConfigurationError(f"replicas must be positive, got {replicas}")
        if not 1 <= replication_factor <= len(ids):
            raise ConfigurationError(
                f"replication_factor must be between 1 and the shard count "
                f"({len(ids)}), got {replication_factor}"
            )
        self._shard_ids = ids
        self._replicas = replicas
        self._replication_factor = int(replication_factor)
        ring = sorted(
            (stable_hash(f"{shard_id}#{replica}"), shard_id)
            for shard_id in ids
            for replica in range(replicas)
        )
        self._ring_points = [point for point, _ in ring]
        self._ring_shards = [shard_id for _, shard_id in ring]
        # Guards the override / partition tables; ring membership is fixed.
        self._lock = threading.Lock()
        self._overrides: dict[str, str] = {}
        self._partitions: dict[str, RangePartition] = {}

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def shard_ids(self) -> list[str]:
        return list(self._shard_ids)

    @property
    def replication_factor(self) -> int:
        return self._replication_factor

    def placement(self) -> dict[str, object]:
        """JSON-compatible dump of the placement rules (for cluster stats)."""
        with self._lock:
            return {
                "shard_ids": list(self._shard_ids),
                "replicas": self._replicas,
                "replication_factor": self._replication_factor,
                "overrides": dict(self._overrides),
                "partitions": {
                    name: partition.to_dict()
                    for name, partition in self._partitions.items()
                },
            }

    def _require_member(self, shard_id: str) -> str:
        if shard_id not in self._shard_ids:
            raise ClusterError(f"unknown shard id {shard_id!r}; members: {self._shard_ids}")
        return shard_id

    # ------------------------------------------------------------------
    # hash-ring placement
    # ------------------------------------------------------------------
    def _ring_walk(self, key: str) -> Iterable[str]:
        """Distinct shard ids in ring order starting at ``key``'s point."""
        start = bisect.bisect_right(self._ring_points, stable_hash(key))
        n_points = len(self._ring_points)
        seen: dict[str, None] = {}
        for step in range(n_points):
            shard_id = self._ring_shards[(start + step) % n_points]
            if shard_id not in seen:
                seen[shard_id] = None
                yield shard_id
                if len(seen) == len(self._shard_ids):
                    return

    def ring_shard_for(self, name: str, *, exclude: Iterable[str] = ()) -> str:
        """Pure ring placement, ignoring overrides and partitions.

        ``exclude`` skips shards (drain walks the ring past the shard being
        emptied); excluding every shard is an error.
        """
        excluded = set(exclude)
        if not set(self._shard_ids) - excluded:
            raise ClusterError(f"no shards left after excluding {sorted(excluded)}")
        for shard_id in self._ring_walk(name):
            if shard_id not in excluded:
                return shard_id
        raise ClusterError("consistent-hash ring walk found no shard")  # pragma: no cover

    def shard_for(self, name: str, *, exclude: Iterable[str] = ()) -> str:
        """The single home shard of an unpartitioned attribute."""
        with self._lock:
            if name in self._partitions:
                raise ClusterError(
                    f"attribute {name!r} is range-partitioned across shards; "
                    "route per value or query the merged global histogram"
                )
            override = self._overrides.get(name)
        if override is not None and override not in set(exclude):
            return override
        return self.ring_shard_for(name, exclude=exclude)

    # ------------------------------------------------------------------
    # replica placement
    # ------------------------------------------------------------------
    def replicas_for(self, name: str) -> tuple[str, ...]:
        """The replica set of an unpartitioned attribute, primary first.

        The primary is :meth:`shard_for` (pin beats ring); the followers are
        the next ``replication_factor - 1`` *distinct* shards walking the
        consistent-hash ring from the attribute's point -- the classic
        successor-list placement, stable across processes and under shard
        additions outside the affected arcs.
        """
        primary = self.shard_for(name)
        followers: list[str] = []
        for shard_id in self._ring_walk(name):
            if len(followers) >= self._replication_factor - 1:
                break
            if shard_id != primary:
                followers.append(shard_id)
        return (primary, *followers[: self._replication_factor - 1])

    def partition_replicas(self, name: str) -> dict[str, tuple[str, ...]]:
        """Replica sets of a partitioned attribute, keyed by piece primary.

        Shard stores key histograms by attribute name alone, so no shard may
        ever hold two different pieces of the same attribute -- a replica
        would silently merge their masses.  The follower walk therefore
        skips every shard already used by this attribute (any piece primary
        or an earlier piece's follower); when the cluster is too small to
        satisfy that, the piece gets fewer followers (degraded, determinate)
        rather than a corrupt placement.
        """
        partition = self.partition_for(name)
        if partition is None:
            raise ClusterError(f"attribute {name!r} is not range-partitioned")
        used = set(partition.piece_shard_ids)
        result: dict[str, tuple[str, ...]] = {}
        for piece_primary in partition.piece_shard_ids:
            followers: list[str] = []
            for shard_id in self._ring_walk(f"{name}@{piece_primary}"):
                if len(followers) >= self._replication_factor - 1:
                    break
                if shard_id not in used:
                    followers.append(shard_id)
            used.update(followers)
            result[piece_primary] = (piece_primary, *followers)
        return result

    def replica_sets_for(self, name: str) -> list[tuple[str, ...]]:
        """Every replica group holding state for ``name`` (one per piece)."""
        if self.is_partitioned(name):
            return list(self.partition_replicas(name).values())
        return [self.replicas_for(name)]

    # ------------------------------------------------------------------
    # explicit assignment overrides
    # ------------------------------------------------------------------
    def assign(self, name: str, shard_id: str) -> None:
        """Pin ``name`` to ``shard_id``, beating the hash ring."""
        self._require_member(shard_id)
        with self._lock:
            if name in self._partitions:
                raise ClusterError(f"attribute {name!r} is range-partitioned; cannot pin")
            self._overrides[name] = shard_id

    def unassign(self, name: str) -> None:
        """Drop ``name``'s pin; it falls back to ring placement."""
        with self._lock:
            self._overrides.pop(name, None)

    # ------------------------------------------------------------------
    # value-range partitions
    # ------------------------------------------------------------------
    def partition(
        self,
        name: str,
        boundaries: Sequence[float],
        shard_ids: Sequence[str] | None = None,
    ) -> RangePartition:
        """Split ``name`` across shards by value range.

        Without explicit ``shard_ids``, the ``len(boundaries) + 1`` pieces are
        dealt round-robin over the member shards in id order -- deterministic,
        and spreading a hot attribute over every shard, which is the point.
        """
        cuts = tuple(float(b) for b in boundaries)
        if shard_ids is None:
            ordered = sorted(self._shard_ids)
            shard_ids = tuple(ordered[i % len(ordered)] for i in range(len(cuts) + 1))
        else:
            shard_ids = tuple(shard_ids)
            for shard_id in shard_ids:
                self._require_member(shard_id)
        partition = RangePartition(attribute=name, boundaries=cuts, shard_ids=shard_ids)
        with self._lock:
            if name in self._overrides:
                raise ClusterError(f"attribute {name!r} is pinned; cannot partition")
            self._partitions[name] = partition
        return partition

    def unpartition(self, name: str) -> None:
        """Remove ``name``'s range partition."""
        with self._lock:
            self._partitions.pop(name, None)

    def partition_for(self, name: str) -> RangePartition | None:
        with self._lock:
            return self._partitions.get(name)

    def is_partitioned(self, name: str) -> bool:
        return self.partition_for(name) is not None
