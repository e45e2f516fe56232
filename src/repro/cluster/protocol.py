"""The shard protocol: one op table over local stores and worker processes.

The cluster coordinator reaches a backing shard with ``(op, args)``
requests: ``op`` names an entry of :data:`OPS` and ``args`` holds its
keyword arguments as JSON values; every reply is a JSON value too.  A
request is the same pair in process and on the wire, and :func:`dispatch`
serves it on both sides: a worker's
:class:`~repro.cluster.transport.BinaryShardServer` runs it for every
request frame, and the coordinator for every leg to an in-process shard.
Values reach a shard one way, ``ingest_many``, and estimates leave it one
way, ``published``, the published view with its version ``(incarnation,
generation)``; every write reply carries the versions it produced, so the
coordinator answers estimates from views it holds (see
:mod:`repro.cluster.coordinator`).  Two kinds of shard serve the table, so
a cluster can mix them freely:

* :class:`LocalShard` wraps an in-process
  :class:`~repro.service.store.HistogramStore` with one method per op --
  zero serialisation, used by tests, library callers and inside each worker;
* :class:`~repro.cluster.transport.ProcessShard` reaches a spawned worker
  process over the persistent binary transport -- a shared-nothing site, as
  in Section 8 of the paper.

An op outside the table, or arguments it does not take, raise
:class:`~repro.exceptions.ServiceError` on either kind; transport failures
surface as :class:`~repro.exceptions.ShardUnavailableError`, so callers can
tell "shard down" from "bad request".
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any, NamedTuple

from ..exceptions import ConfigurationError, ServiceError
from ..service.store import HistogramStore

__all__ = ["IDEMPOTENT_OPS", "OPS", "WRITE_OPS", "LocalShard", "ShardBackend", "dispatch"]


class Op(NamedTuple):
    """One shard op: the keyword arguments it takes, and whether it writes."""

    required: tuple[str, ...]
    optional: tuple[str, ...] = ()
    write: bool = False


#: The shard protocol: every op a backend serves, with its arguments
#: (required, then optional ones, which the backend's defaults fill in) and,
#: after ``->``, its reply.  A write appends a WAL record on a durable store;
#: every other op only reads.
OPS: dict[str, Op] = {
    # -> the new attribute's stats dict, with the store's ``incarnation``
    "create": Op(
        ("name",),
        ("kind", "memory_kb", "value_unit", "disk_factor", "seed", "exist_ok"),
        write=True,
    ),
    "drop": Op(("name",), write=True),  # -> None: the attribute left this shard
    "names": Op(()),  # -> the attribute names this shard holds, sorted
    "ingest_many": Op(("items",), write=True),  # -> ``{"inserted", "deleted", "versions"}``
    "published": Op(("name",)),  # -> ``{"incarnation", "generation", "view"}``
    "stats": Op(("name",)),  # -> point-in-time stats dict of one attribute
    "stats_all": Op(()),  # -> stats dicts of every attribute on this shard
    "snapshot": Op(("name",)),  # -> full serialised state of one attribute
    "restore": Op(("name", "snapshot"), write=True),  # -> its stats dict, with ``incarnation``
    "health": Op(()),  # -> ``{"status": "ok", "attributes": <count>}``, a liveness probe
    "metrics": Op(()),  # -> the shard's own exposition; "" if it shares its caller's registry
    "profile": Op(()),  # -> the attribution of a shard running its own profiler, else None
}

#: The ops that mutate a shard.
WRITE_OPS = frozenset(op for op, spec in OPS.items() if spec.write)

#: Ops whose replies are safe to re-request after an unknown-fate transport
#: failure: the reads, plus ``ping``, which a worker's server answers
#: itself.  A write may have been applied by a shard that lost only its
#: reply (REP011).
IDEMPOTENT_OPS = frozenset(OPS.keys() - WRITE_OPS) | {"ping"}


def dispatch(backend: Any, op: Any, args: Any) -> Any:
    """Serve one ``(op, args)`` request on ``backend``; returns the reply.

    The one way a request reaches a backend, from the wire or in process:
    ``op`` must name an entry of :data:`OPS`, and ``args`` must hold each of
    its required arguments and nothing it does not take, or
    :class:`~repro.exceptions.ServiceError` is raised.  Then the backend's
    method named after the op runs with ``args`` as keyword arguments.
    """
    spec = OPS.get(op) if isinstance(op, str) else None
    if spec is None:
        raise ServiceError(f"unknown shard op {op!r}")
    if not isinstance(args, Mapping):
        raise ServiceError("shard op args must be a JSON object")
    missing = [name for name in spec.required if name not in args]
    if missing:
        raise ServiceError(f"shard op {op!r} is missing arguments {missing}")
    unknown = [name for name in args if name not in spec.required and name not in spec.optional]
    if unknown:
        raise ServiceError(f"shard op {op!r} takes no arguments {unknown}")
    return getattr(backend, op)(**args)


class ShardBackend:
    """One backing shard, as the coordinator knows it without asking it.

    Everything else it learns through :data:`OPS` requests.
    """

    #: Token of the store behind this shard, read with no I/O; ``None`` when
    #: the shard does not know it, and the coordinator then never holds a
    #: view of this shard.
    incarnation: str | None = None

    def __init__(self, shard_id: str) -> None:
        if not shard_id or not isinstance(shard_id, str):
            raise ConfigurationError("shard_id must be a non-empty string")
        self.shard_id = shard_id

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}({self.shard_id!r})"


class LocalShard(ShardBackend):
    """An in-process shard backed by a :class:`HistogramStore`.

    Each method serves the op of its name in :data:`OPS`, which lists its reply.
    """

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
        """Apply several attributes' batches in order; returns summed counts.

        ``items`` maps each attribute name to its ``insert`` / ``delete``
        lists; each attribute's inserts apply before its deletes.  The
        stream stops at the first failing attribute and raises: the
        attributes before it have applied, so the caller must treat the
        whole stream as suspect.  The reply is ``{"inserted", "deleted",
        "versions"}``, where ``versions`` maps every attribute the stream
        changed to its ``[incarnation, generation]`` after the change.
        """
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
        """The attribute's published view: ``{"incarnation", "generation", "view"}``.

        ``view`` is the wire form of a
        :class:`~repro.core.segment_view.SegmentView`; the read takes no lock.
        """
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

    def metrics(self) -> str:
        return ""

    def profile(self) -> dict[str, Any] | None:
        return None
