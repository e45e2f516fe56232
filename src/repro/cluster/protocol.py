"""The shard protocol: one abstraction over local stores and worker processes.

The cluster coordinator talks to every backing shard through
:class:`ShardBackend` -- a small, JSON-shaped protocol (every method takes
keyword-passable JSON values and returns plain dictionaries, so a call is
exactly one ``(op, args)`` request on the wire).  Values reach a shard one
way: :meth:`ShardBackend.ingest_many`, an ordered stream of per-attribute
inserts and deletes that stops at its first failure.  Estimates leave a
shard one way too: :meth:`ShardBackend.published` ships an attribute's
published view with its version ``(incarnation, generation)``, and every
write reply carries the versions it produced, so the coordinator can answer
estimates from views it holds (see :mod:`repro.cluster.coordinator`).  Two
implementations cover the deployment spectrum:

* :class:`LocalShard` wraps an in-process
  :class:`~repro.service.store.HistogramStore` -- zero serialisation, used by
  tests, library callers and inside each worker process;
* :class:`~repro.cluster.transport.ProcessShard` reaches a spawned worker
  process (``serve-cluster --shards N``) over the persistent binary
  transport -- a shared-nothing site, as in Section 8 of the paper.

Because both speak the same protocol, a cluster can mix them freely.
Transport failures surface as :class:`~repro.exceptions.ShardUnavailableError`
(after the client's bounded retries), so callers can distinguish "shard
down" from "bad request".
"""

from __future__ import annotations

import abc
from collections.abc import Mapping, Sequence
from typing import Any

from ..exceptions import ConfigurationError
from ..service.store import HistogramStore

__all__ = ["ShardBackend", "LocalShard", "WRITE_OPS"]

#: The ops that mutate a shard (each one appends a WAL record on a durable
#: store); every other op only reads.
WRITE_OPS = frozenset({"create", "drop", "ingest_many", "restore"})


class ShardBackend(abc.ABC):
    """Uniform protocol the coordinator uses against one backing shard."""

    #: Token of the store behind this shard, read with no I/O; ``None`` when
    #: the shard does not know it, and the coordinator then never holds a
    #: view of this shard.
    incarnation: str | None = None

    def __init__(self, shard_id: str) -> None:
        if not shard_id or not isinstance(shard_id, str):
            raise ConfigurationError("shard_id must be a non-empty string")
        self.shard_id = shard_id

    # -- registry -------------------------------------------------------
    @abc.abstractmethod
    def create(
        self,
        name: str,
        kind: str = "dc",
        *,
        memory_kb: float = 1.0,
        value_unit: float = 1.0,
        disk_factor: float = 20.0,
        seed: int = 0,
        exist_ok: bool = False,
    ) -> dict[str, Any]:
        """Create an attribute on this shard; returns its stats dict."""

    @abc.abstractmethod
    def drop(self, name: str) -> None:
        """Remove an attribute from this shard."""

    @abc.abstractmethod
    def names(self) -> list[str]:
        """Attribute names this shard currently holds, sorted."""

    # -- writes ---------------------------------------------------------
    @abc.abstractmethod
    def ingest_many(self, items: Mapping[str, Mapping[str, Sequence[float]]]) -> dict[str, Any]:
        """Apply several attributes' batches in order; returns summed counts.

        ``items`` maps each attribute name to its ``insert`` / ``delete``
        lists; each attribute's inserts apply before its deletes.  The
        stream stops at the first failing attribute and raises: the
        attributes before it have applied, so the caller must treat the
        whole stream as suspect.  The reply is ``{"inserted", "deleted",
        "versions"}``, where ``versions`` maps every attribute the stream
        changed to its ``[incarnation, generation]`` after the change.
        """

    # -- reads ----------------------------------------------------------
    @abc.abstractmethod
    def published(self, name: str) -> dict[str, Any]:
        """The attribute's published view: ``{"incarnation", "generation", "view"}``.

        ``view`` is the wire form of a
        :class:`~repro.core.segment_view.SegmentView`; the read takes no lock.
        """

    @abc.abstractmethod
    def stats(self, name: str) -> dict[str, Any]:
        """Point-in-time stats dict of one attribute."""

    @abc.abstractmethod
    def stats_all(self) -> list[dict[str, Any]]:
        """Stats dicts of every attribute on this shard."""

    # -- snapshot / restore --------------------------------------------
    @abc.abstractmethod
    def snapshot(self, name: str) -> dict[str, Any]:
        """Full serialised state of one attribute."""

    @abc.abstractmethod
    def restore(self, name: str, snapshot: Mapping[str, Any]) -> dict[str, Any]:
        """Restore an attribute from a snapshot payload; returns its stats."""

    # -- liveness -------------------------------------------------------
    @abc.abstractmethod
    def health(self) -> dict[str, Any]:
        """Liveness probe."""

    # -- the shard's own process ------------------------------------------
    def metrics(self) -> str:
        """A shard's own exposition; empty when it reports into its caller's registry."""
        return ""

    def profile(self) -> dict[str, Any] | None:
        """The sampling-profiler attribution of a shard that runs its own."""
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}({self.shard_id!r})"


class LocalShard(ShardBackend):
    """An in-process shard backed by a :class:`HistogramStore`."""

    def __init__(self, shard_id: str, store: HistogramStore | None = None) -> None:
        super().__init__(shard_id)
        self.store = store if store is not None else HistogramStore()

    @property
    def incarnation(self) -> str:
        return self.store.incarnation

    def create(
        self,
        name: str,
        kind: str = "dc",
        *,
        memory_kb: float = 1.0,
        value_unit: float = 1.0,
        disk_factor: float = 20.0,
        seed: int = 0,
        exist_ok: bool = False,
    ) -> dict[str, Any]:
        stats = self.store.create(
            name,
            kind,
            memory_kb=memory_kb,
            value_unit=value_unit,
            disk_factor=disk_factor,
            seed=seed,
            exist_ok=exist_ok,
        )
        return {**stats.to_dict(), "incarnation": self.store.incarnation}

    def drop(self, name: str) -> None:
        self.store.drop(name)

    def names(self) -> list[str]:
        return self.store.names()

    def ingest_many(self, items: Mapping[str, Mapping[str, Sequence[float]]]) -> dict[str, Any]:
        inserted = deleted = 0
        versions: dict[str, list[Any]] = {}
        for name, values in items.items():
            insert = values.get("insert", ())
            delete = values.get("delete", ())
            if len(insert):
                inserted += self.store.insert(name, insert)
            if len(delete):
                deleted += self.store.delete(name, delete)
            if len(insert) or len(delete):
                versions[name] = [self.store.incarnation, self.store.generation(name)]
        return {"inserted": inserted, "deleted": deleted, "versions": versions}

    def published(self, name: str) -> dict[str, Any]:
        return self.store.published(name)

    def stats(self, name: str) -> dict[str, Any]:
        return self.store.stats(name).to_dict()

    def stats_all(self) -> list[dict[str, Any]]:
        return [stats.to_dict() for stats in self.store.stats_all()]

    def snapshot(self, name: str) -> dict[str, Any]:
        return self.store.snapshot(name)

    def restore(self, name: str, snapshot: Mapping[str, Any]) -> dict[str, Any]:
        stats = self.store.restore(name, snapshot)
        return {**stats.to_dict(), "incarnation": self.store.incarnation}

    def health(self) -> dict[str, Any]:
        return {"status": "ok", "attributes": len(self.store)}
