"""Thread-safe multi-attribute histogram store (the service catalog).

A live DBMS catalog keeps one dynamic histogram per indexed attribute and
serves selectivity estimates while the histograms are being maintained.  The
:class:`HistogramStore` is that catalog: a mapping from attribute names to
dynamic histograms (built through :func:`repro.core.factory.build_dynamic_histogram`)
with the concurrency machinery a multi-threaded server needs.

Locking model
-------------

* a store-level lock guards the *registry* (the name -> attribute mapping);
  ``create`` / ``drop`` / ``names`` take it briefly;
* every attribute carries its own reentrant lock; *mutations* against one
  attribute serialise on that lock, while operations on different attributes
  run fully in parallel;
* reads never take the attribute lock: every mutation publishes an immutable
  :class:`~repro.core.base.SnapshotHistogram` (wrapping an *owned* copy of the
  :class:`~repro.core.segment_view.SegmentView` arrays) under the single
  ``_Attribute.published`` reference, and estimation loads that reference once
  -- RCU style.  A reference load is atomic under the GIL, so a reader sees
  either the pre- or the post-mutation snapshot, never a torn state; and
  because writers publish in attribute-lock order, staleness is monotone (a
  reader never observes a snapshot older than one it already saw).

Every mutation bumps the attribute's *generation* counter and republishes, so
clients can detect staleness across snapshot/restore cycles.
:meth:`HistogramStore.query` pins ONE published snapshot for a whole batch,
so the result list describes a single histogram state (no torn estimates)
without any lock acquisition.

Generations count from zero in every store instance, so a generation alone
cannot tell a recovered or re-created store from the one it replaced.  Each
instance therefore mints a random :attr:`HistogramStore.incarnation` token;
``(incarnation, generation)`` is an attribute's *version*, and
:meth:`HistogramStore.published` hands it out together with the published
view, which is how the cluster coordinator knows when a view it holds is
still current.
"""

from __future__ import annotations

import json
import math
import os
import secrets
import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Iterable, Mapping, Sequence
from typing import Any

import numpy as np

from ..core.base import DynamicHistogram, SnapshotHistogram
from ..core.factory import build_dynamic_histogram
from ..exceptions import (
    ConfigurationError,
    DuplicateAttributeError,
    EmptyHistogramError,
    HistogramError,
    UnknownAttributeError,
)
from ..persistence import histogram_from_dict, histogram_to_dict
from .wal import DurabilityConfig, WriteAheadLog, iter_wal

__all__ = [
    "AttributeStats",
    "HistogramStore",
    "DEFAULT_REPARTITION_INTERVAL",
    "evaluate_queries",
]

#: Format version of the compaction checkpoint file (snapshot.json).
_CHECKPOINT_VERSION = 1

#: Default maintenance batching hint used by the store's bulk-insert path.
DEFAULT_REPARTITION_INTERVAL = 16


def _validated_values(values: Iterable[float]) -> list[float]:
    """Coerce to floats and reject non-finite values *before* any mutation.

    JSON parsers happily produce NaN/Infinity, and a NaN silently corrupts
    bucket search while an infinity creates a permanent unbounded end bucket;
    rejecting here keeps the failure at the service boundary, where nothing
    has been applied yet.
    """
    result = [float(v) for v in values]
    for value in result:
        if not math.isfinite(value):
            raise ConfigurationError(f"values must be finite, got {value!r}")
    return result


def evaluate_queries(histogram: Any, queries: Sequence[Mapping[str, Any]]) -> list[Any]:
    """Evaluate a batch of estimate queries against one histogram.

    The query language of :meth:`HistogramStore.query` (ops ``range`` /
    ``equal`` / ``cdf`` / ``total`` / ``selectivity``), shared with the
    cluster coordinator, which evaluates the same batches against merged
    global histograms.  Consistency is the *caller's* concern: the store runs
    every batch against a pinned published snapshot, the coordinator against
    an immutable merged snapshot.  An unknown op raises
    :class:`~repro.exceptions.ConfigurationError`.
    """
    results: list[Any] = []
    for query in queries:
        op = query.get("op")
        if op == "range":
            results.append(
                float(histogram.estimate_range(float(query["low"]), float(query["high"])))
            )
        elif op == "equal":
            results.append(
                float(
                    histogram.estimate_equal(
                        float(query["value"]),
                        value_granularity=float(query.get("value_granularity", 1.0)),
                    )
                )
            )
        elif op == "cdf":
            xs = np.asarray(query["xs"], dtype=float)
            results.append([float(v) for v in histogram.cdf_many(xs)])
        elif op == "total":
            results.append(float(histogram.total_count))
        elif op == "selectivity":
            results.append(
                float(histogram.estimate_selectivity(float(query["low"]), float(query["high"])))
            )
        else:
            raise ConfigurationError(f"unknown estimate op {op!r}")
    return results


@dataclass(frozen=True)
class AttributeStats:
    """A point-in-time summary of one managed attribute."""

    name: str
    kind: str
    memory_kb: float
    generation: int
    total_count: float
    bucket_count: int
    is_loading: bool
    repartition_count: int
    inserted: int
    deleted: int

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible representation (what the HTTP API returns)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "memory_kb": self.memory_kb,
            "generation": self.generation,
            "total_count": self.total_count,
            "bucket_count": self.bucket_count,
            "is_loading": self.is_loading,
            "repartition_count": self.repartition_count,
            "inserted": self.inserted,
            "deleted": self.deleted,
        }


@dataclass(frozen=True)
class _PublishedView:
    """One RCU publication: a generation and the snapshot it identifies.

    Bundling both into one immutable object is what makes the lock-free read
    path torn-free: readers load ``_Attribute.published`` exactly once and get
    a (generation, snapshot) pair that can never disagree.  Publication is
    always a single reference store of a fresh ``_PublishedView`` -- never a
    field-by-field update (enforced by analysis rule REP010).
    """

    generation: int
    snapshot: SnapshotHistogram


@dataclass
class _Attribute:
    """Internal registry entry: a histogram plus its lock and counters.

    ``published`` is the RCU read-side state: always non-``None`` (set at
    construction and re-set under the attribute lock at the end of every
    mutation), so readers may dereference it unconditionally without ever
    taking ``lock``.
    """

    name: str
    kind: str
    memory_kb: float
    histogram: DynamicHistogram
    lock: threading.RLock = field(default_factory=threading.RLock)
    generation: int = 0
    inserted: int = 0
    deleted: int = 0
    published: _PublishedView = field(init=False)

    def __post_init__(self) -> None:
        self.publish()

    def publish(self) -> None:
        """Publish the current histogram state as an immutable snapshot.

        Must be called with ``lock`` held (or before the attribute is
        reachable by other threads): it reads the live histogram arrays.
        The assignment itself is a single reference store, so concurrent
        readers atomically switch from the old snapshot to the new one.
        """
        self.published = _PublishedView(
            generation=self.generation,
            snapshot=SnapshotHistogram(self.histogram.published_view()),
        )


class HistogramStore:
    """A concurrent catalog of named dynamic histograms.

    Attributes translate memory budgets into bucket budgets with the paper's
    memory model, and bulk inserts run with
    :data:`DEFAULT_REPARTITION_INTERVAL` unless a caller passes its own.

    Parameters
    ----------
    durability:
        Opt-in :class:`~repro.service.wal.DurabilityConfig`.  When set, every
        mutation (create / drop / insert / delete / restore) is appended to a
        write-ahead log *before* it is applied, and
        :meth:`HistogramStore.recover` rebuilds the exact pre-crash store
        from the compaction checkpoint plus the log tail.  The constructor
        refuses a WAL directory that already holds state -- recovering it
        through :meth:`recover` is the only way to keep the log consistent
        with memory.
    """

    def __init__(
        self,
        *,
        durability: DurabilityConfig | None = None,
        metrics: Any | None = None,
        accuracy_sampler: Any | None = None,
    ) -> None:
        self._registry_lock = threading.RLock()
        self._attributes: dict[str, _Attribute] = {}
        self._durability = durability
        self._wal: WriteAheadLog | None = None
        self._compact_lock = threading.Lock()
        #: Random token of this store instance; a store recovered from a WAL
        #: is a new instance and mints a new one.
        self.incarnation = secrets.token_hex(8)
        # Observability is opt-in and recorded strictly OUTSIDE the registry
        # and attribute locks: metric locks are leaves (repro.obs contract),
        # and keeping updates out of the critical sections keeps the store's
        # lock hold times independent of instrumentation.
        self._metrics = metrics
        self._sampler = accuracy_sampler
        self._m_op_seconds = None
        self._m_mutations = None
        self._m_reads = None
        self._m_published_publishes = None
        self._m_compactions = None
        self._m_compaction_seconds = None
        if metrics is not None:
            from ..obs.registry import LATENCY_BUCKETS_S

            self._m_op_seconds = metrics.distribution(
                "repro_store_op_seconds",
                "HistogramStore operation latency by op",
                LATENCY_BUCKETS_S,
                labelnames=("op",),
            )
            self._m_mutations = metrics.counter(
                "repro_store_mutations_total",
                "Values mutated per attribute and op",
                labelnames=("attribute", "op"),
            )
            self._m_reads = metrics.counter(
                "repro_store_reads_total",
                "Read operations served per attribute and op",
                labelnames=("attribute", "op"),
            )
            self._m_published_publishes = metrics.counter(
                "repro_store_published_view_publishes_total",
                "Snapshot publications (one per mutation batch per attribute)",
                labelnames=("attribute",),
            )
            self._m_compactions = metrics.counter(
                "repro_wal_compactions_total",
                "WAL checkpoint-and-truncate compactions completed",
            )
            self._m_compaction_seconds = metrics.distribution(
                "repro_wal_compaction_seconds",
                "Wall time of one stop-the-world WAL compaction",
                LATENCY_BUCKETS_S,
            )
        if durability is not None:
            if durability.has_state():
                raise ConfigurationError(
                    f"WAL directory {durability.wal_dir} already holds state; "
                    "use HistogramStore.recover() to reopen it"
                )
            self._wal = WriteAheadLog(
                durability.wal_path, fsync=durability.fsync, metrics=metrics
            )

    @property
    def metrics(self) -> Any | None:
        """The metrics registry this store reports into (``None`` when off)."""
        return self._metrics

    @property
    def accuracy_sampler(self) -> Any | None:
        """The estimation-accuracy sampler fed by this store (``None`` when off)."""
        return self._sampler

    # ------------------------------------------------------------------
    # durability (write-ahead log)
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush and close the write-ahead log (no-op without durability)."""
        if self._wal is not None:
            self._wal.close()

    def _log(self, record: dict[str, Any]) -> None:
        """Append one mutation record to the WAL (write-ahead: callers log
        *before* applying, inside the critical section that orders the
        apply, so log order equals apply order per attribute)."""
        if self._wal is not None:
            # repro-verify: ignore[REP002] delegation helper; every call site logs inside its ordering lock, before the apply
            self._wal.append(record)

    def _maybe_compact(self) -> None:
        """Auto-compaction trigger; called OUTSIDE any attribute lock.

        Compaction acquires every attribute lock, so triggering it from
        inside a mutation's critical section would deadlock against a
        concurrent mutation holding another attribute's lock.
        """
        if self._wal is None or self._durability is None:
            return
        threshold = self._durability.compact_every
        if threshold is not None and self._wal.appended_count >= threshold:
            self.compact()

    def compact(self) -> int:
        """Checkpoint the catalog and truncate the log; returns ``last_seq``.

        Stop-the-world: the registry lock and every attribute lock (sorted
        order) are held across checkpoint + truncation, so the checkpoint is
        a single point-in-time state, its recorded ``last_seq`` covers
        exactly the applied records, and no append can land between the
        sequence read and the truncation.  The checkpoint is written to a
        temporary file, fsynced and atomically renamed, so a crash at any
        point leaves either the old checkpoint + full log or the new
        checkpoint (whose ``last_seq`` makes the not-yet-truncated log
        records no-ops on replay).
        """
        if self._wal is None or self._durability is None:
            raise ConfigurationError("compact() requires a durability configuration")
        start = time.perf_counter()
        last_seq = self._compact_locked()
        if self._m_compactions is not None:
            self._m_compactions.inc()
            self._m_compaction_seconds.observe(time.perf_counter() - start)
        return last_seq

    def _compact_locked(self) -> int:
        with self._compact_lock, self._registry_lock, ExitStack() as stack:
            attributes = [self._attributes[name] for name in sorted(self._attributes)]
            for attribute in attributes:
                stack.enter_context(attribute.lock)
            last_seq = self._wal.last_seq
            checkpoint = {
                "format_version": _CHECKPOINT_VERSION,
                "last_seq": last_seq,
                "store": {
                    "attributes": [self._snapshot_locked(a) for a in attributes]
                },
            }
            snapshot_path = self._durability.snapshot_path
            tmp_path = snapshot_path.with_suffix(".json.tmp")
            with open(tmp_path, "w", encoding="utf-8") as handle:
                json.dump(checkpoint, handle)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, snapshot_path)
            if self._durability.fsync:
                # Power-loss durability needs the *directory entry* of the
                # rename on disk before the log is truncated, or a reboot
                # could find the old checkpoint next to an empty log.
                directory_fd = os.open(str(snapshot_path.parent), os.O_RDONLY)
                try:
                    os.fsync(directory_fd)
                finally:
                    os.close(directory_fd)
            self._wal.rotate()
            return last_seq

    @classmethod
    def recover(
        cls,
        wal_dir: str | Path,
        *,
        fsync: bool = False,
        compact_every: int | None = 10_000,
        metrics: Any | None = None,
    ) -> HistogramStore:
        """Rebuild a store from a WAL directory, bit-identical to pre-crash.

        Loads the compaction checkpoint (if any) with *exact* state --
        generations included -- then replays the log tail, skipping records
        the checkpoint already covers (``seq <= last_seq``) and stopping at
        the first torn or corrupted record.  The torn tail is truncated and
        the log reopened for appending, so the recovered store continues
        durably where the crashed one stopped.

        Replayed records run through the ordinary mutation paths with the
        recorded batching interval, so a replay reproduces the original
        apply sequence exactly -- including deterministic mid-batch
        failures, which are swallowed just as the original caller observed
        them and moved on.
        """
        config = DurabilityConfig(
            wal_dir=wal_dir, fsync=fsync, compact_every=compact_every
        )
        store = cls(metrics=metrics)
        last_seq = 0
        if config.snapshot_path.exists():
            checkpoint = json.loads(config.snapshot_path.read_text(encoding="utf-8"))
            version = checkpoint.get("format_version")
            if version != _CHECKPOINT_VERSION:
                raise ConfigurationError(
                    f"unsupported checkpoint format version: {version!r}"
                )
            last_seq = int(checkpoint.get("last_seq", 0))
            for entry in checkpoint.get("store", {}).get("attributes", []):
                store._restore_exact(entry)
        # Streamed, not materialised: a log just short of its compaction
        # threshold can be large, and recovery is exactly when memory is
        # scarce (the store is being rebuilt alongside it).
        max_seq = last_seq
        valid_end = 0
        for wal_record in iter_wal(config.wal_path):
            valid_end = wal_record.end_offset
            if wal_record.seq > max_seq:
                max_seq = wal_record.seq
            if wal_record.seq <= last_seq:
                continue  # already inside the checkpoint
            try:
                store._apply_wal_record(wal_record.record)
            except ConfigurationError:
                # An unknown op (a newer log format?) must surface: rejected
                # mutations are never logged, so a ConfigurationError here
                # cannot be a replayed pre-crash failure -- swallowing it
                # would recover "successfully" with records silently missing.
                raise
            except HistogramError:
                # The original apply failed the same (deterministic) way --
                # e.g. a delete batch hitting an empty histogram -- and the
                # writer moved on; recovery reproduces exactly that.
                continue
        store._durability = config
        store._wal = WriteAheadLog(
            config.wal_path,
            fsync=fsync,
            start_seq=max_seq,
            truncate_at=valid_end,
            metrics=metrics,
        )
        return store

    @classmethod
    def open(
        cls,
        wal_dir: str | Path | None,
        *,
        fsync: bool = False,
        metrics: Any | None = None,
        accuracy_sampler: Any | None = None,
    ) -> tuple[HistogramStore, bool]:
        """Recover the store at ``wal_dir`` when it holds state, else create one.

        Returns ``(store, recovered)``; without a ``wal_dir`` the store is not
        durable.  ``accuracy_sampler`` never shadows recovered attributes.
        """
        config = None if wal_dir is None else DurabilityConfig(Path(wal_dir), fsync=fsync)
        if config is None or not config.has_state():
            return cls(durability=config, metrics=metrics, accuracy_sampler=accuracy_sampler), False
        store = cls.recover(config.wal_dir, fsync=fsync, metrics=metrics)
        store._sampler = accuracy_sampler
        return store, True

    def _apply_wal_record(self, record: Mapping[str, Any]) -> None:
        """Re-apply one logged mutation through the ordinary code paths."""
        op = record.get("op")
        name = record.get("name")
        if op == "create":
            self.create(
                str(name),
                str(record.get("kind", "dc")),
                memory_kb=float(record.get("memory_kb", 1.0)),
                value_unit=float(record.get("value_unit", 1.0)),
                disk_factor=float(record.get("disk_factor", 20.0)),
                seed=int(record.get("seed", 0)),
            )
        elif op == "drop":
            self.drop(str(name))
        elif op == "insert":
            self.insert(
                str(name),
                record["values"],
                repartition_interval=int(record["interval"]),
            )
        elif op == "delete":
            self.delete(str(name), record["values"])
        elif op == "restore":
            self.restore(str(name), record["snapshot"])
        else:
            raise ConfigurationError(f"unknown WAL record op {op!r}")

    def _restore_exact(self, snapshot: Mapping[str, Any]) -> None:
        """Checkpoint restore: reproduce the attribute entry bit-identically.

        Unlike the public :meth:`restore` (which bumps the generation so
        live readers observe progress), recovery must land on *exactly* the
        checkpointed generation -- tail replay then advances it in lockstep
        with the original apply sequence.
        """
        histogram = histogram_from_dict(dict(snapshot["histogram"]))
        if not isinstance(histogram, DynamicHistogram):
            raise ConfigurationError("checkpoint entry is not a dynamic histogram")
        name = str(snapshot["name"])
        attribute = _Attribute(
            name=name,
            kind=str(snapshot.get("kind", "dc")),
            memory_kb=float(snapshot.get("memory_kb", 1.0)),
            histogram=histogram,
            generation=int(snapshot.get("generation", 0)),
            inserted=int(snapshot.get("inserted", 0)),
            deleted=int(snapshot.get("deleted", 0)),
        )
        with self._registry_lock:
            self._attributes[name] = attribute

    # ------------------------------------------------------------------
    # registry
    # ------------------------------------------------------------------
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
    ) -> AttributeStats:
        """Register a new attribute backed by a fresh dynamic histogram.

        With ``exist_ok`` an existing attribute of any configuration is left
        untouched and its stats are returned; otherwise re-creating raises
        :class:`~repro.exceptions.DuplicateAttributeError`.
        """
        if not name or not isinstance(name, str):
            raise ConfigurationError("attribute name must be a non-empty string")
        histogram = build_dynamic_histogram(
            kind,
            memory_kb,
            value_unit=value_unit,
            disk_factor=disk_factor,
            seed=seed,
        )
        with self._registry_lock:
            existing = self._attributes.get(name)
            if existing is not None:
                if exist_ok:
                    return self._stats_locked(existing)
                raise DuplicateAttributeError(name)
            self._log(
                {
                    "op": "create",
                    "name": name,
                    "kind": kind.lower(),
                    "memory_kb": float(memory_kb),
                    "value_unit": float(value_unit),
                    "disk_factor": float(disk_factor),
                    "seed": int(seed),
                }
            )
            attribute = _Attribute(
                name=name, kind=kind.lower(), memory_kb=float(memory_kb), histogram=histogram
            )
            self._attributes[name] = attribute
        self._maybe_compact()
        if self._sampler is not None:
            self._sampler.reset(name)
        # Stats come from the reference we hold: a concurrent drop must not
        # turn a successful create into an UnknownAttributeError.
        return self._stats_locked(attribute)

    def drop(self, name: str) -> None:
        """Remove an attribute and its histogram from the store."""
        with self._registry_lock:
            if name not in self._attributes:
                raise UnknownAttributeError(name)
            self._log({"op": "drop", "name": name})
            del self._attributes[name]
        self._maybe_compact()
        if self._sampler is not None:
            self._sampler.forget(name)

    def names(self) -> list[str]:
        """The managed attribute names, sorted."""
        with self._registry_lock:
            return sorted(self._attributes)

    def __contains__(self, name: str) -> bool:
        with self._registry_lock:
            return name in self._attributes

    def __len__(self) -> int:
        with self._registry_lock:
            return len(self._attributes)

    def _attribute(self, name: str) -> _Attribute:
        with self._registry_lock:
            try:
                return self._attributes[name]
            except KeyError:
                raise UnknownAttributeError(name) from None

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def insert(
        self,
        name: str,
        values: Iterable[float],
        *,
        repartition_interval: int | None = None,
    ) -> int:
        """Insert a batch of values into one attribute; returns the batch size.

        The batch goes through the histogram's vectorised ``insert_many`` path
        with ``repartition_interval`` (:data:`DEFAULT_REPARTITION_INTERVAL`
        unless given), so sustained streams pay one lock acquisition and one
        maintenance scan per interval instead of per value.
        """
        values = _validated_values(values)
        if not values:
            return 0
        interval = (
            DEFAULT_REPARTITION_INTERVAL if repartition_interval is None else repartition_interval
        )
        start = time.perf_counter()
        attribute = self._attribute(name)
        applied = False
        try:
            with attribute.lock:
                self._log(
                    {"op": "insert", "name": name, "values": values, "interval": interval}
                )
                try:
                    attribute.histogram.insert_many(values, repartition_interval=interval)
                    attribute.inserted += len(values)
                    applied = True
                finally:
                    # A failed batch may still have applied a prefix; the
                    # generation must move so readers never mistake the mutated
                    # histogram for the pre-batch state.  Republishing in the
                    # same breath keeps the lock-free read path current --
                    # readers switch to the post-batch snapshot the moment the
                    # reference lands.
                    attribute.generation += 1
                    attribute.publish()
        finally:
            # Telemetry strictly after the attribute lock is released.  A
            # failed batch may have applied an unknown prefix, which the
            # accuracy shadow cannot mirror -- it disables itself.
            if self._sampler is not None:
                if applied:
                    self._sampler.record_insert(name, values)
                else:
                    self._sampler.disable(name)
        self._maybe_compact()
        if self._m_op_seconds is not None:
            self._m_op_seconds.observe(time.perf_counter() - start, op="insert")
            self._m_mutations.inc(len(values), attribute=name, op="insert")
            self._m_published_publishes.inc(1, attribute=name)
        return len(values)

    def delete(self, name: str, values: Iterable[float]) -> int:
        """Delete a batch of values from one attribute; returns the batch size.

        The batch goes through the histogram's vectorised ``delete_many``
        path (one ``searchsorted`` + ``bincount`` binning pass for in-range
        batches), mirroring :meth:`insert`.  On failure the histogram reports
        how far the batch got via ``applied_count`` on the raised exception,
        which callers (the ingest pipeline's requeue logic) use to avoid
        re-applying the prefix.
        """
        values = _validated_values(values)
        if not values:
            return 0
        start = time.perf_counter()
        attribute = self._attribute(name)
        applied = 0
        try:
            with attribute.lock:
                self._log({"op": "delete", "name": name, "values": values})
                try:
                    attribute.histogram.delete_many(values)
                    attribute.deleted += len(values)
                    applied = len(values)
                except Exception as error:
                    # delete_many applies a strict prefix before failing and
                    # reports its length -- the same contract the ingest
                    # pipeline's precise requeue relies on.
                    applied = int(getattr(error, "applied_count", 0))
                    attribute.deleted += applied
                    raise
                finally:
                    # As in insert: a DeletionError mid-batch leaves earlier
                    # deletions applied, so the generation must still move --
                    # and the moved state must be republished for readers.
                    attribute.generation += 1
                    attribute.publish()
        finally:
            # Telemetry strictly after the attribute lock is released.
            if self._sampler is not None and applied:
                self._sampler.record_delete(name, values[:applied])
        # Success path only (as in insert): compacting inside a finally could
        # replace an in-flight DeletionError -- and with it the exception's
        # applied_count, which the ingest pipeline's precise-requeue logic
        # reads.  A deferred compaction simply runs on the next mutation.
        self._maybe_compact()
        if self._m_op_seconds is not None:
            self._m_op_seconds.observe(time.perf_counter() - start, op="delete")
            self._m_mutations.inc(len(values), attribute=name, op="delete")
            self._m_published_publishes.inc(1, attribute=name)
        return len(values)

    # ------------------------------------------------------------------
    # reads (lock-free: served from the published snapshot, REP010)
    # ------------------------------------------------------------------
    def estimate_range(self, name: str, low: float, high: float) -> float:
        """Estimated number of values of ``name`` in the closed range [low, high]."""
        published = self._attribute(name).published
        return float(published.snapshot.estimate_range(float(low), float(high)))

    def estimate_equal(self, name: str, value: float, *, value_granularity: float = 1.0) -> float:
        """Estimated number of values of ``name`` equal to ``value``."""
        published = self._attribute(name).published
        return float(
            published.snapshot.estimate_equal(
                float(value), value_granularity=value_granularity
            )
        )

    def cdf(self, name: str, xs: Sequence[float]) -> list[float]:
        """Approximate CDF of ``name`` evaluated at each point of ``xs``."""
        published = self._attribute(name).published
        return [float(v) for v in published.snapshot.cdf_many(np.asarray(xs, dtype=float))]

    def total_count(self, name: str) -> float:
        """Total number of values currently represented for ``name``."""
        published = self._attribute(name).published
        return float(published.snapshot.total_count)

    def generation(self, name: str) -> int:
        """Publication generation of ``name`` (a single lock-free reference read)."""
        return self._attribute(name).published.generation

    def published(self, name: str) -> dict[str, Any]:
        """The published view of ``name`` with its version, in wire form.

        Returns ``{"incarnation", "generation", "view"}``, where ``view`` is
        :meth:`SegmentView.to_wire <repro.core.segment_view.SegmentView.to_wire>`
        of the published snapshot.  One reference load pins the pair, so the
        version always names exactly the view shipped with it; no lock is
        taken.
        """
        published = self._attribute(name).published
        response = {
            "incarnation": self.incarnation,
            "generation": published.generation,
            "view": published.snapshot.segment_view().to_wire(),
        }
        if self._m_reads is not None:
            self._m_reads.inc(1, attribute=name, op="published")
        return response

    def query(self, name: str, queries: Sequence[Mapping[str, Any]]) -> dict[str, Any]:
        """Evaluate a batch of estimate queries against ONE histogram state.

        Each query is a mapping with an ``op`` key:

        * ``{"op": "range", "low": .., "high": ..}`` -> estimated count,
        * ``{"op": "equal", "value": ..}`` -> estimated count,
        * ``{"op": "cdf", "xs": [..]}`` -> list of CDF values,
        * ``{"op": "total"}`` -> total count,
        * ``{"op": "selectivity", "low": .., "high": ..}`` -> fraction.

        The batch pins the published snapshot once and evaluates every
        query against it, so the returned ``results`` are mutually
        consistent -- they describe one histogram state, identified by the
        returned ``generation`` -- without taking any lock.  An unknown op
        raises :class:`~repro.exceptions.ConfigurationError`.
        """
        start = time.perf_counter()
        # RCU read side: ONE reference load pins an immutable
        # (generation, snapshot) pair for the whole batch.
        published = self._attribute(name).published
        response = {
            "generation": published.generation,
            "results": evaluate_queries(published.snapshot, queries),
        }
        # Telemetry strictly after the batch is evaluated, outside any lock.
        if self._m_op_seconds is not None:
            self._m_op_seconds.observe(time.perf_counter() - start, op="query")
            self._m_reads.inc(1, attribute=name, op="query")
        if self._sampler is not None:
            self._sampler.maybe_check(name, queries, response["results"])
        return response

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def _stats_locked(self, attribute: _Attribute) -> AttributeStats:
        with attribute.lock:
            histogram = attribute.histogram
            try:
                bucket_count = histogram.bucket_count
                total = float(histogram.total_count)
            except EmptyHistogramError:  # pragma: no cover - defensive
                bucket_count, total = 0, 0.0
            return AttributeStats(
                name=attribute.name,
                kind=attribute.kind,
                memory_kb=attribute.memory_kb,
                generation=attribute.generation,
                total_count=total,
                bucket_count=bucket_count,
                is_loading=bool(getattr(histogram, "is_loading", False)),
                repartition_count=int(getattr(histogram, "repartition_count", 0)),
                inserted=attribute.inserted,
                deleted=attribute.deleted,
            )

    def stats(self, name: str) -> AttributeStats:
        """Point-in-time stats of one attribute."""
        return self._stats_locked(self._attribute(name))

    def stats_all(self) -> list[AttributeStats]:
        """Stats of every managed attribute, sorted by name."""
        with self._registry_lock:
            attributes = [self._attributes[name] for name in sorted(self._attributes)]
        return [self._stats_locked(attribute) for attribute in attributes]

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------
    def snapshot(self, name: str) -> dict[str, Any]:
        """Serialise one attribute (metadata + full histogram state)."""
        return self._snapshot_locked(self._attribute(name))

    def _snapshot_locked(self, attribute: _Attribute) -> dict[str, Any]:
        with attribute.lock:
            return {
                "name": attribute.name,
                "kind": attribute.kind,
                "memory_kb": attribute.memory_kb,
                "generation": attribute.generation,
                "inserted": attribute.inserted,
                "deleted": attribute.deleted,
                "histogram": histogram_to_dict(attribute.histogram),
            }

    def snapshot_all(self) -> dict[str, Any]:
        """Serialise the whole store to a JSON-compatible dictionary.

        Holds references rather than re-looking names up, so a concurrent
        ``drop`` cannot fail the snapshot of the surviving attributes.
        """
        with self._registry_lock:
            attributes = [self._attributes[name] for name in sorted(self._attributes)]
        return {"attributes": [self._snapshot_locked(attribute) for attribute in attributes]}

    def restore(self, name: str, snapshot: Mapping[str, Any]) -> AttributeStats:
        """Restore an attribute from a :meth:`snapshot` payload.

        Creates the attribute when missing, otherwise atomically replaces its
        histogram.  The generation is bumped past both the snapshot's and the
        current attribute's generation so readers always observe progress.
        """
        histogram = histogram_from_dict(dict(snapshot["histogram"]))
        if not isinstance(histogram, DynamicHistogram):
            raise ConfigurationError(
                "snapshot does not describe a dynamic histogram; "
                "frozen snapshots cannot be restored into a live store"
            )
        kind = str(snapshot.get("kind", "dc"))
        memory_kb = float(snapshot.get("memory_kb", 1.0))
        with self._registry_lock:
            attribute = self._attributes.get(name)
            if attribute is None:
                # Fresh attribute: log + install + apply inside ONE registry
                # critical section.  Publishing the attribute before its WAL
                # record exists would let a concurrent insert find it, log
                # first, and apply -- and that insert record would replay
                # before any record creating the attribute, get swallowed as
                # an unknown-attribute failure, and break the bit-identical
                # recovery promise.
                self._log(
                    {"op": "restore", "name": name, "snapshot": dict(snapshot)}
                )
                attribute = _Attribute(
                    name=name,
                    kind=kind,
                    memory_kb=memory_kb,
                    histogram=histogram,
                    generation=int(snapshot.get("generation", 0)) + 1,
                    inserted=int(snapshot.get("inserted", 0)),
                    deleted=int(snapshot.get("deleted", 0)),
                )
                self._attributes[name] = attribute
                fresh = True
            else:
                fresh = False
        if not fresh:
            # Registry lock first, then the attribute lock -- the same order
            # compact() uses, so no inversion.  Re-checking membership under
            # the registry lock closes the restore/drop race: a drop that
            # won the race has its record in the WAL already, and logging a
            # restore against the orphaned object would replay as
            # drop-then-restore, resurrecting on recovery an attribute the
            # live store no longer serves.  Retrying from the top lands in
            # the fresh path, which logs and installs consistently.
            with self._registry_lock, attribute.lock:
                if self._attributes.get(name) is not attribute:
                    return self.restore(name, snapshot)
                self._log({"op": "restore", "name": name, "snapshot": dict(snapshot)})
                attribute.histogram = histogram
                attribute.kind = kind
                attribute.memory_kb = memory_kb
                attribute.inserted = int(snapshot.get("inserted", 0))
                attribute.deleted = int(snapshot.get("deleted", 0))
                attribute.generation = (
                    max(attribute.generation, int(snapshot.get("generation", 0))) + 1
                )
                attribute.publish()
        self._maybe_compact()
        # The shadow cannot mirror a wholesale histogram replacement.
        if self._sampler is not None:
            self._sampler.disable(name)
        return self._stats_locked(attribute)

    def restore_all(self, snapshot: Mapping[str, Any]) -> list[AttributeStats]:
        """Restore every attribute of a :meth:`snapshot_all` payload."""
        return [
            self.restore(entry["name"], entry) for entry in snapshot.get("attributes", [])
        ]
