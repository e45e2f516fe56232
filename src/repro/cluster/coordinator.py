"""Scatter-gather coordinator over the cluster's backing shards.

The :class:`ClusterCoordinator` is the single entry point a cluster client
talks to.  It owns a :class:`~repro.cluster.router.ShardRouter` (placement)
and a set of :class:`~repro.cluster.protocol.ShardBackend` members, and it
implements the three cluster-level behaviours no single shard can provide:

**Scatter-gather ingest.**  Writes for an unpartitioned attribute go to its
home shard; writes for a range-partitioned attribute are split per value
(one ``searchsorted`` pass) and fanned out to the piece shards.  Every
request the coordinator sends a shard -- a fan-out, a failover attempt, a
step of ``rebalance``, ``resync`` or ``drain`` -- is an ``(op, args)`` leg,
the shape the wire carries, run by one leg runner
(:meth:`ClusterCoordinator._run_legs`): legs to spawned worker processes are
pipelined (every request frame is written before any reply is read), legs
to in-process shards go through :func:`~repro.cluster.protocol.dispatch`,
as a worker serves them, one after another on the calling thread, and every
leg records ``repro_cluster_fanout_seconds{shard}`` and a ``fanout:<shard>``
span.  Every value write -- :meth:`ingest`,
:meth:`ingest_batch` and the buffer replays of rebalance and resync -- takes
one path: the batch is grouped by shard first, so each shard receives
exactly one ``ingest_many`` stream, in rounds of at most
:data:`INGEST_LEG_VALUES` values, through the one replicated fan-out
(:meth:`ClusterCoordinator._fan_out_replicated`) that also carries
``create`` and ``restore``.  Per-shard application is independent: a
failing piece never rolls back the others (the same partial-apply semantics
as the service layer; the error names the failing shard).

**Estimates from held views.**  The coordinator is the only writer of its
worker fleet: every write, ``create``, ``restore``, ``rebalance`` and
``resync`` reaches a worker through it, and every write reply carries the
*version* ``(incarnation, generation)`` each replica it changed is now at.
So it answers estimates itself.  It holds one published view per
unpartitioned attribute, and one per piece of a range-partitioned one, each
fetched with the lock-free shard op ``published``, and it evaluates query
batches against the held view with
:func:`~repro.service.store.evaluate_queries` -- the same code, on the same
arrays, the worker would run.  A held view ``(replica, incarnation,
generation)`` answers a read only while the *version rule* proves it
current:

(a) the replica is still in the attribute's (or piece's) routed replica set
    and is not marked stale;
(b) its incarnation equals the replica's current
    :attr:`~repro.cluster.protocol.ShardBackend.incarnation`, a local read;
(c) its generation is at least the newest generation learned for that
    replica under that incarnation.

Otherwise the first read fetches a new view, primary first with failover,
and installs it.  Four details keep the rule sound.  A fetched view is
tagged with the incarnation read *before* the fetch is sent, and held only
when the reply names the same one, so a fetch racing a respawn is never
held under the new token.  A write's versions are learned before the write
is acknowledged, so a reader always sees its own writes.  A write leg of
unknown fate drops that replica's views of every attribute the leg carried,
whether or not the group succeeded elsewhere.  ``create``, ``drop``,
``restore``, ``rebalance`` and ``resync`` discard the attribute's views and
learned versions, and a fetch that raced the discard is not held.

**Merged global estimates.**  A partitioned attribute is answered from the
superimposed held piece views (:func:`~repro.distributed.union.superimpose`,
the paper's Section 8 union, not reduced to a budget: the views are held
anyway), which loses nothing, so a merged ``range``, ``total`` or ``cdf``
answer is the sum of the piece answers.  The union is cached with its views,
keyed on the per-piece version vector, never on a sum: a read re-fetches
only the pieces whose view fails the version rule.  The fetch runs outside
the attribute's merge lock; the re-check, the merge and the install run
under it, so two readers that both saw a write merge once.  At rest, the
cached merge is bit-identical to a from-scratch superimpose.

**Invariants.**  One front end per worker fleet: a second coordinator
writing to the same workers would need the per-read probes back.  A killed
worker's held views keep answering until the supervisor respawns it (its
poll interval plus a spawn: 0.5-0.7 s from ``kill -9`` to the new token on
a 2-core host); the respawn changes the incarnation and retires them.  A
WAL-less respawn is not yet a stale event: the new worker answers with
whatever it holds.

**Rebalance / drain.**  :meth:`rebalance` moves an attribute between shards
via snapshot/restore without losing writes: writes arriving during the copy
are buffered at the coordinator, replayed onto the target, and the routing
override flips atomically with the final drain, so every buffered write
lands exactly once.  If the move fails, every buffered write is replayed
onto the source instead.  :meth:`drain` empties a shard by rebalancing
every attribute homed there onto the surviving members (ring walk with the
drained shard excluded).

**Replication / failover / resync.**  With a router built with
``replication_factor=N``, every attribute (and every piece of a partitioned
attribute) lives on N distinct shards.  Writes fan out to all replicas; a
write succeeds as long as *one* replica of each touched group applies it,
and a replica that fails (before or after applying -- its fate is unknown)
is only **marked stale** by the fan-out's one sweep, never retried:
retrying a write whose fate is unknown could double-apply it, while a stale
replica is healed wholesale by :meth:`resync` (snapshot from a live replica,
restore over the stale one -- a full-state replace, immune to double-apply
by construction).  Reads try
the primary first and fail over to the next live, non-stale replica on
:class:`~repro.exceptions.ShardUnavailableError`.  ``replica_reads`` is
accepted and does nothing: estimates no longer reach the workers, so there
is no read load to spread over the replicas.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Any

from ..core.base import Histogram, SnapshotHistogram
from ..core.segment_view import SegmentView
from ..distributed.union import UnionHistogram, superimpose
from ..exceptions import (
    ClusterError,
    ConfigurationError,
    ShardUnavailableError,
    UnknownAttributeError,
)
from ..obs.trace import current_trace
# Unused here; perfbench/layers.py wraps them, so they stay until it drops the pins.
from ..distributed.union import reduce_segments  # noqa: F401
from ..persistence import histogram_from_dict  # noqa: F401
from ..service.store import evaluate_queries
from .protocol import ShardBackend, dispatch
from .router import RangePartition, ShardRouter
from .transport import ProcessShard, try_pipelined_scatter

__all__ = ["ClusterCoordinator"]

#: Values one ``ingest_many`` leg carries at most (an attribute is never
#: split), so a leg stays inside one call's timeout.  A full leg through the
#: binary transport onto 20,000 held values, on a 2-core host: 24-127 ms of
#: inserts (DVO slowest, ~25 us a value), 6-199 ms of deletes (DVO/DADO
#: 1.5-11 us a value; DC deletes that empty the lowest buckets, ~40 us).
INGEST_LEG_VALUES = 4096


@dataclass(frozen=True)
class _HeldView:
    """One replica's published view as the coordinator received it."""

    shard_id: str
    incarnation: str
    generation: int
    histogram: SnapshotHistogram


@dataclass(frozen=True)
class _MergedEntry:
    """A merged global histogram and the piece views it was built from.

    The views carry each piece's ``(replica, incarnation, generation)``: the
    per-piece version vector that decides whether the entry is current.
    """

    views: Mapping[str, _HeldView]
    merged: UnionHistogram

    @property
    def generation_sum(self) -> int:
        """The piece generations added up: a reported number, never a cache key."""
        return sum(view.generation for view in self.views.values())


def _received_view(shard_id: str, reply: Mapping[str, Any]) -> _HeldView:
    """The view a ``published`` reply ships, rebuilt bit for bit."""
    return _HeldView(
        shard_id,
        str(reply["incarnation"]),
        int(reply["generation"]),
        SnapshotHistogram(SegmentView.from_wire(reply["view"])),
    )


class ClusterCoordinator:
    """Routes, fans out and merges across the cluster's shards.

    Parameters
    ----------
    shards:
        The backing members; their ``shard_id``s must be unique.
    router:
        Placement table; built from the shard ids when omitted.
    replica_reads:
        Accepted and ignored: estimates are answered from views the
        coordinator holds, so there is no read load to spread over the
        replicas.
    """

    def __init__(
        self,
        shards: Sequence[ShardBackend],
        *,
        router: ShardRouter | None = None,
        metrics: Any | None = None,
        replica_reads: bool = False,
    ) -> None:
        if not shards:
            raise ConfigurationError("the cluster coordinator needs at least one shard")
        self._shards: dict[str, ShardBackend] = {}
        for shard in shards:
            if shard.shard_id in self._shards:
                raise ConfigurationError(f"duplicate shard id {shard.shard_id!r}")
            self._shards[shard.shard_id] = shard
        self._router = router if router is not None else ShardRouter(list(self._shards))
        for shard_id in self._router.shard_ids:
            if shard_id not in self._shards:
                raise ConfigurationError(f"router routes to unknown shard {shard_id!r}")
        self._replica_reads = bool(replica_reads)
        # Held views (see "Estimates from held views"): one per unpartitioned
        # attribute, and one per piece inside each merged entry.  The learned
        # table maps (name, shard id) to the newest (incarnation, generation)
        # a reply reported; an epoch moves on every discard, so a fetch that
        # raced one is not held.  All four tables change under _views_lock,
        # a leaf; reads of single entries go without it.
        self._views: dict[str, _HeldView] = {}
        self._merge_cache: dict[str, _MergedEntry] = {}
        self._learned: dict[tuple[str, str], tuple[str, int]] = {}
        self._epochs: dict[str, int] = {}
        self._merge_locks: dict[str, threading.Lock] = {}
        self._views_lock = threading.Lock()
        # In-flight moves: name -> buffered (insert, delete) writes, in
        # arrival order, plus a count of applies currently running per
        # attribute.  The condition's lock guards both tables; a move waits
        # for the attribute's in-flight applies to drain before snapshotting,
        # so an apply that passed the move check always lands in the snapshot.
        self._moves: dict[str, list[tuple[list[float], list[float]]]] = {}
        self._inflight: dict[str, int] = {}
        self._moves_cv = threading.Condition()
        # Replicas that missed a write (the fan-out observed a failure whose
        # fate is unknown): reads avoid them until resync heals them.
        self._stale: set = set()
        self._stale_lock = threading.Lock()
        # Acknowledged-then-dropped buffered ops (failure-path compensation
        # could not re-apply them); surfaced by stats() so silent undercount
        # is at least visible to operators.
        self._dropped_buffered_ops = 0
        # Optional observability: per-shard fan-out latency plus the
        # replication health counters.  Metric updates are leaves (repro.obs
        # contract), recorded outside the coordinator's own locks.  Process
        # shards mirror their transport client's connect-retry stats into the
        # same registry.
        self.metrics = metrics
        self._m_fanout_seconds = None
        self._m_failovers = None
        self._m_stale_marks = None
        self._m_view_reads = None
        if metrics is not None:
            from ..obs.registry import LATENCY_BUCKETS_S

            self._m_fanout_seconds = metrics.distribution(
                "repro_cluster_fanout_seconds",
                "Latency of one fan-out leg, per shard",
                LATENCY_BUCKETS_S,
                labelnames=("shard",),
            )
            self._m_failovers = metrics.counter(
                "repro_cluster_failovers_total",
                "Read attempts that failed over to another replica",
            )
            self._m_stale_marks = metrics.counter(
                "repro_cluster_stale_marks_total",
                "Replicas marked stale after missing a fan-out write",
            )
            self._m_view_reads = metrics.counter(
                "repro_cluster_view_reads_total",
                "Estimate reads answered from a held view, or after fetching one",
                labelnames=("outcome",),
            )
            for shard in self._shards.values():
                bind = getattr(shard, "bind_metrics", None)
                if bind is not None:
                    bind(metrics)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    @property
    def router(self) -> ShardRouter:
        return self._router

    @property
    def shard_ids(self) -> list[str]:
        return list(self._shards)

    def shard(self, shard_id: str) -> ShardBackend:
        try:
            return self._shards[shard_id]
        except KeyError:
            raise ClusterError(
                f"unknown shard id {shard_id!r}; members: {list(self._shards)}"
            ) from None

    def _run_legs(
        self, legs: Mapping[str, tuple[str, dict[str, Any]]]
    ) -> dict[str, tuple[bool, Any]]:
        """Run one ``(op, args)`` leg per shard: ``{shard_id: (ok, value)}``.

        The one way the coordinator reaches a shard.  The legs to
        :class:`~repro.cluster.transport.ProcessShard` members go out in one
        **pipelined** scatter: the calling thread writes every request frame
        on a persistent connection and then multiplexes the replies.  The
        other legs then run one after another on the calling thread through
        :func:`~repro.cluster.protocol.dispatch`, the function a worker
        serves its requests with.  Every leg records
        ``repro_cluster_fanout_seconds`` and a ``fanout:<shard>`` span;
        ``value`` is the leg's result, or the exception it raised.
        """
        shards = {shard_id: self.shard(shard_id) for shard_id in legs}
        remote = {
            shard_id: shard for shard_id, shard in shards.items() if isinstance(shard, ProcessShard)
        }
        started = time.perf_counter()
        trace = current_trace()
        outcomes = try_pipelined_scatter(remote, legs) or {}
        starts = dict.fromkeys(outcomes, started)
        for shard_id, shard in shards.items():
            if shard_id in remote:
                continue
            op, args = legs[shard_id]
            starts[shard_id] = time.perf_counter()
            try:
                ok, value = True, dispatch(shard, op, args)
            except Exception as error:
                ok, value = False, error
            outcomes[shard_id] = (ok, value, time.perf_counter() - starts[shard_id])
        for shard_id, (_, _, elapsed) in outcomes.items():
            if self._m_fanout_seconds is not None:
                self._m_fanout_seconds.observe(elapsed, shard=shard_id)
            if trace is not None:
                trace.add_span(f"fanout:{shard_id}", starts[shard_id] - trace.started, elapsed)
        return {shard_id: (ok, value) for shard_id, (ok, value, _) in outcomes.items()}

    def _ask(self, shard_id: str, op: str, args: dict[str, Any]) -> Any:
        """One leg to one shard: its result, or its error raised."""
        ok, value = self._run_legs({shard_id: (op, args)})[shard_id]
        if not ok:
            raise value
        return value

    def _scatter_tolerant(
        self,
        legs: Mapping[str, tuple[str, dict[str, Any]]],
        *,
        failure_types: tuple[type, ...] = (ShardUnavailableError,),
    ) -> tuple[dict[str, Any], dict[str, Exception]]:
        """Run one ``(op, args)`` leg per shard, partitioning the outcomes.

        Returns ``(results, errors)`` keyed by shard id: ``failure_types``
        exceptions land in ``errors`` (the caller decides what a tolerable
        failure means -- drop, listing, batch ingest and the replicated
        fan-out all differ); any other error is raised once every leg ran.
        """
        results: dict[str, Any] = {}
        errors: dict[str, Exception] = {}
        unexpected: Exception | None = None
        for shard_id, (ok, value) in self._run_legs(legs).items():
            if ok:
                results[shard_id] = value
            elif isinstance(value, failure_types):
                errors[shard_id] = value
            elif unexpected is None:
                unexpected = value
        if unexpected is not None:
            raise unexpected
        return results, errors

    def shard_reports(self, op: str) -> dict[str, Any]:
        """Each reachable shard's own ``metrics`` or ``profile`` report, empty ones left out."""
        results, _ = self._scatter_tolerant({shard_id: (op, {}) for shard_id in self._shards})
        return {shard_id: report for shard_id, report in results.items() if report}

    # ------------------------------------------------------------------
    # replication plumbing
    # ------------------------------------------------------------------
    @property
    def replication_factor(self) -> int:
        return self._router.replication_factor

    def _mark_stale(self, name: str, shard_id: str) -> None:
        with self._stale_lock:
            self._stale.add((name, shard_id))
        if self._m_stale_marks is not None:
            self._m_stale_marks.inc()

    def _clear_stale(self, name: str, shard_id: str) -> None:
        with self._stale_lock:
            self._stale.discard((name, shard_id))

    def is_stale(self, name: str, shard_id: str) -> bool:
        """True when ``shard_id``'s replica of ``name`` missed a write."""
        with self._stale_lock:
            return (name, shard_id) in self._stale

    def stale_replicas(self) -> list[tuple[str, str]]:
        """The (attribute, shard) pairs currently marked stale, sorted."""
        with self._stale_lock:
            return sorted(self._stale)

    def _failover_order(self, name: str, replicas: Sequence[str]) -> list[str]:
        """Read preference: primary first, known-stale replicas demoted last.

        A stale replica is still tried as the last resort -- an estimate
        from a slightly-behind replica beats no estimate at all -- but only
        after every up-to-date candidate proved unreachable.
        """
        with self._stale_lock:
            fresh = [sid for sid in replicas if (name, sid) not in self._stale]
            stale = [sid for sid in replicas if (name, sid) in self._stale]
        return fresh + stale

    def _call_with_failover(
        self,
        name: str,
        replicas: Sequence[str],
        op: str,
        args: Mapping[str, Any],
        *,
        tried: tuple[str, Exception] | None = None,
    ):
        """Run ``op`` on the first live replica; returns (id, result).

        :class:`ShardUnavailableError` triggers failover.  An application
        error (bad query, unknown attribute) is normally the same on every
        replica and propagates immediately -- with one exception: an
        ``UnknownAttributeError`` from a replica *marked stale* is not an
        answer about the attribute's existence (the replica may simply have
        missed the create), so failover continues; if no fresh replica can
        answer, the unavailability -- the retry/heal signal -- is preferred
        over the misleading "unknown".

        ``tried`` is a ``(shard_id, error)`` attempt a scatter already made:
        that replica is not asked again, and its error counts like any other
        attempt's.  Each attempt is one leg through :meth:`_run_legs`.
        """
        last_unavailable: ShardUnavailableError | None = None
        last_unknown: UnknownAttributeError | None = None
        for shard_id in self._failover_order(name, replicas):
            try:
                if tried is not None and shard_id == tried[0]:
                    raise tried[1]
                return shard_id, self._ask(shard_id, op, dict(args))
            except ShardUnavailableError as error:
                last_unavailable = error
                if self._m_failovers is not None:
                    self._m_failovers.inc()
            except UnknownAttributeError as error:
                if not self.is_stale(name, shard_id):
                    raise
                last_unknown = error
        if last_unavailable is not None:
            raise last_unavailable
        if last_unknown is not None:
            raise last_unknown
        raise ClusterError(  # pragma: no cover - empty replica set
            f"no replicas to serve attribute {name!r}"
        )

    def _fan_out_replicated(
        self,
        groups: Sequence[tuple[str, tuple[str, ...]]],
        streams: Mapping[str, Sequence[tuple[str, dict[str, Any]]]],
        *,
        failure_types: tuple[type, ...] = (ShardUnavailableError,),
    ) -> tuple[dict[str, list[Any]], list[tuple[str, str]]]:
        """Send each replica its stream of ``(op, args)`` legs, one leg per round.

        ``groups`` holds ``(name, replica_ids)`` pairs; ``streams`` each
        replica's legs.  The one replicated-mutation contract (value writes,
        create, restore): per group, success needs one replica to finish its
        stream; a fully-failed group raises its first error -- but only after
        EVERY other group's partial failures were marked, or a replica that
        silently missed this mutation would be treated as fresh forever.  A
        replica that fails (``failure_types``) is sent no further rounds and
        is marked stale for ``resync`` to heal, never retried: its fate is
        unknown, and a blind retry could double-apply.  Other errors (a
        duplicate create, a bad payload) are the same on every replica and
        propagate at once.  Returns the per-leg results of every shard that
        finished its stream, and the ``(name, shard_id)`` pairs marked stale.

        Every round's replies are noted before anything returns or raises:
        the versions they carry are learned, and a leg that failed, for any
        reason, drops its replica's views of the attributes it carried.
        """
        results: dict[str, list[Any]] = {shard_id: [] for shard_id in streams}
        errors: dict[str, Exception] = {}
        for round_index in range(max(map(len, streams.values()), default=0)):
            legs = {
                shard_id: shard_legs[round_index]
                for shard_id, shard_legs in streams.items()
                if round_index < len(shard_legs) and shard_id not in errors
            }
            round_results, round_errors = self._scatter_tolerant(
                legs, failure_types=(Exception,)
            )
            self._note_write_replies(legs, round_results)
            for error in round_errors.values():
                if not isinstance(error, failure_types):
                    raise error
            errors.update(round_errors)
            for shard_id, result in round_results.items():
                results[shard_id].append(result)
        failed: list[tuple[str, str]] = []
        fully_failed: Exception | None = None
        for name, replicas in groups:
            if all(shard_id in errors for shard_id in replicas):
                # No replica finished: the mutation fails and raises, and
                # there is no fresh sibling to mark the others against.
                if fully_failed is None:
                    fully_failed = errors[replicas[0]]
                continue
            for shard_id in replicas:
                if shard_id in errors:
                    self._mark_stale(name, shard_id)
                    failed.append((name, shard_id))
        if fully_failed is not None:
            raise fully_failed
        return {sid: legs for sid, legs in results.items() if sid not in errors}, failed

    # ------------------------------------------------------------------
    # held views: versions, the rule, fetches, discards
    # ------------------------------------------------------------------
    def _note_write_replies(
        self,
        legs: Mapping[str, tuple[str, Mapping[str, Any]]],
        results: Mapping[str, Any],
    ) -> None:
        """Learn the versions a round of write replies carries.

        Runs before the write is acknowledged, so a read that follows the
        acknowledgement can never be answered from a view older than it.  A
        leg without a result, or a result without a version for an attribute
        the leg carried, is of unknown fate: that replica's views of that
        attribute are dropped.  An empty write changes nothing and is skipped.
        """
        with self._views_lock:
            for shard_id, (_, args) in legs.items():
                if "items" in args:
                    names = [
                        name
                        for name, values in args["items"].items()
                        if values["insert"] or values["delete"]
                    ]
                else:
                    names = [args["name"]]
                versions = _reply_versions(args, results.get(shard_id))
                for name in names:
                    if name in versions:
                        self._learn(name, shard_id, *versions[name])
                    else:
                        self._drop_views(name, shard_id)

    def _learn(self, name: str, shard_id: str, incarnation: str, generation: int) -> None:
        """Record a replica's version; the caller holds ``_views_lock``.

        A version from another incarnation replaces the one known: the
        newest reply names the store that answers now.
        """
        known = self._learned.get((name, shard_id))
        if known is None or known[0] != incarnation or known[1] < generation:
            self._learned[name, shard_id] = (incarnation, generation)

    def _drop_views(self, name: str, shard_id: str) -> None:
        """Forget ``shard_id``'s views of ``name``; the caller holds ``_views_lock``."""
        self._epochs[name] = self._epochs.get(name, 0) + 1
        held = self._views.get(name)
        if held is not None and held.shard_id == shard_id:
            del self._views[name]
        entry = self._merge_cache.get(name)
        if entry is not None and any(view.shard_id == shard_id for view in entry.views.values()):
            self._merge_cache[name] = _MergedEntry(
                {piece: view for piece, view in entry.views.items() if view.shard_id != shard_id},
                entry.merged,
            )

    def _discard_views(self, name: str) -> None:
        """Forget every view and learned version of ``name`` (create, drop,
        restore, rebalance and resync change state no reply fully reports)."""
        with self._views_lock:
            self._epochs[name] = self._epochs.get(name, 0) + 1
            self._views.pop(name, None)
            self._merge_cache.pop(name, None)
            for key in [key for key in self._learned if key[0] == name]:
                del self._learned[key]

    def _holds(self, name: str, view: _HeldView, replicas: Sequence[str]) -> bool:
        """The version rule: may ``view`` still answer reads of ``name``?

        Reads the tables without ``_views_lock``: each lookup is atomic, and
        a check that races a stale mark or a learned version races a write
        that is not acknowledged yet, which the read may precede.
        """
        if view.shard_id not in replicas or self.is_stale(name, view.shard_id):
            return False
        if view.incarnation != self.shard(view.shard_id).incarnation:
            return False
        known = self._learned.get((name, view.shard_id))
        return known is None or (known[0] == view.incarnation and view.generation >= known[1])

    def _adopt(self, name: str, view: _HeldView) -> bool:
        """Whether a fetched view may be held; the caller holds ``_views_lock``.

        A view older than a version already learned under its incarnation
        is not held.  One from a newer incarnation than the learned version
        replaces it, or the rule would refuse the view for ever.
        """
        known = self._learned.get((name, view.shard_id))
        if known is not None and known[0] == view.incarnation and view.generation < known[1]:
            return False
        self._learn(name, view.shard_id, view.incarnation, view.generation)
        return True

    def _view(self, name: str) -> tuple[_HeldView, bool]:
        """An unpartitioned attribute's current view, and whether it was fetched."""
        replicas = self._router.replicas_for(name)
        held = self._views.get(name)
        if held is not None and self._holds(name, held, replicas):
            return held, False
        # Tokens and epoch first (REP005): the reply is held only if the
        # replica that sent it kept its incarnation and no discard ran since.
        tokens = {shard_id: self.shard(shard_id).incarnation for shard_id in replicas}
        epoch = self._epochs.get(name, 0)
        shard_id, reply = self._call_with_failover(
            name, replicas, "published", {"name": name}
        )
        view = _received_view(shard_id, reply)
        if view.incarnation == tokens[shard_id]:
            with self._views_lock:
                if self._epochs.get(name, 0) == epoch and self._adopt(name, view):
                    self._views[name] = view
        return view, True

    def _write_groups(
        self,
        name: str,
        insert: list[float],
        delete: list[float],
        replicas: tuple[str, ...] | None = None,
    ) -> list[tuple[tuple[str, ...], list[float], list[float]]]:
        """Split a write into replica groups (one, or one per touched piece);
        ``replicas`` overrides an unpartitioned attribute's routed set."""
        partition = self._router.partition_for(name)
        if partition is None:
            return [(replicas or self._router.replicas_for(name), insert, delete)]
        insert_groups = partition.split(insert)
        delete_groups = partition.split(delete)
        piece_replicas = self._router.partition_replicas(name)
        return [
            (
                piece_replicas[piece_id],
                insert_groups.get(piece_id, []),
                delete_groups.get(piece_id, []),
            )
            for piece_id in sorted(set(insert_groups) | set(delete_groups))
        ]

    def _write(
        self,
        writes: Mapping[str, tuple[list[float], list[float]]],
        replicas: tuple[str, ...] | None = None,
    ) -> tuple[dict[str, dict[str, int]], list[tuple[str, str]]]:
        """Apply ``{name: (insert, delete)}`` writes as one ``ingest_many``
        stream per shard, in rounds of at most :data:`INGEST_LEG_VALUES` values.

        ``UnknownAttributeError`` counts as a replica failure: a replica that
        was down during ``create`` does not know the attribute, and marking
        it stale routes it to ``resync`` (whose restore re-creates it)
        instead of poisoning every later write.  Returns the summed counts of
        each shard that finished its stream, and the stale-marked pairs.
        """
        groups: list[tuple[str, tuple[str, ...]]] = []
        per_shard: dict[str, dict[str, dict[str, list[float]]]] = {}
        for name, (insert, delete) in writes.items():
            for group_replicas, group_insert, group_delete in self._write_groups(
                name, insert, delete, replicas
            ):
                groups.append((name, group_replicas))
                for shard_id in group_replicas:
                    per_shard.setdefault(shard_id, {})[name] = {
                        "insert": group_insert,
                        "delete": group_delete,
                    }
        results, failed = self._fan_out_replicated(
            groups,
            {
                shard_id: [("ingest_many", {"items": leg}) for leg in _stream_legs(items)]
                for shard_id, items in sorted(per_shard.items())
            },
            failure_types=(ShardUnavailableError, UnknownAttributeError),
        )
        counts = {
            shard_id: {
                "inserted": sum(result["inserted"] for result in legs),
                "deleted": sum(result["deleted"] for result in legs),
            }
            for shard_id, legs in results.items()
        }
        return counts, failed

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
        partition_boundaries: Sequence[float] | None = None,
        partition_shards: Sequence[str] | None = None,
    ) -> dict[str, Any]:
        """Create an attribute cluster-wide.

        Without ``partition_boundaries`` the attribute lands on its routed
        home shard.  With them, the attribute is registered as range-
        partitioned and one piece histogram (same configuration) is created
        on every piece shard; ``partition_shards`` overrides the default
        round-robin piece placement.
        """
        create_leg = (
            "create",
            {
                "name": name,
                "kind": kind,
                "memory_kb": memory_kb,
                "value_unit": value_unit,
                "disk_factor": disk_factor,
                "seed": seed,
                "exist_ok": exist_ok,
            },
        )

        self._discard_views(name)
        if partition_boundaries is None:
            if partition_shards is not None:
                raise ConfigurationError("partition_shards requires partition_boundaries")
            replicas = self._router.replicas_for(name)
            # The replicated-mutation contract (see _fan_out_replicated): one
            # replica creating suffices; an unreachable replica is marked
            # stale so resync re-seeds it -- its missing attribute is then a
            # recorded gap, not a silent one that poisons later writes.
            created, failed = self._fan_out_replicated(
                [(name, replicas)], {shard_id: [create_leg] for shard_id in replicas}
            )
            result = {
                "name": name,
                "partitioned": False,
                "shard": replicas[0],
                "stats": _first_result(created, replicas),
            }
            if len(replicas) > 1:
                result["replicas"] = list(replicas)
            if failed:
                result["failed_replicas"] = sorted(shard_id for _, shard_id in failed)
            return result

        partition = self._router.partition(name, partition_boundaries, partition_shards)
        try:
            piece_replicas = self._router.partition_replicas(name)
            created, failed = self._fan_out_replicated(
                [(name, ids) for ids in piece_replicas.values()],
                {shard_id: [create_leg] for ids in piece_replicas.values() for shard_id in ids},
            )
            pieces = {
                piece_id: _first_result(created, ids)
                for piece_id, ids in piece_replicas.items()
            }
        except Exception:
            # Creation is not atomic across shards; withdrawing the partition
            # keeps routing consistent with whatever was actually created
            # (retry with exist_ok=True after fixing the failing shard).
            self._router.unpartition(name)
            raise
        result = {
            "name": name,
            "partitioned": True,
            "partition": partition.to_dict(),
            "pieces": pieces,
        }
        if self._router.replication_factor > 1:
            result["replicas"] = {
                piece_id: list(ids) for piece_id, ids in piece_replicas.items()
            }
        if failed:
            result["failed_replicas"] = sorted(shard_id for _, shard_id in failed)
        return result

    def drop(self, name: str) -> dict[str, Any]:
        """Drop an attribute from every shard holding state for it.

        Replicated-mutation contract: dropping from at least one replica
        that held the attribute succeeds; a replica that already lacks it
        (it missed the create) counts as dropped.  Unreachable replicas are
        reported as ``unreached`` -- their zombie copy resurfaces in
        ``names()`` when they revive, and *retrying the drop then works*
        (the already-dropped replicas count as dropped).  Only when every
        replica lacked the attribute does ``UnknownAttributeError``
        propagate, preserving the single-node API.
        """
        shard_ids = sorted(
            {sid for replicas in self._router.replica_sets_for(name) for sid in replicas}
        )

        dropped, errors = self._scatter_tolerant(
            {shard_id: ("drop", {"name": name}) for shard_id in shard_ids},
            failure_types=(ShardUnavailableError, UnknownAttributeError),
        )
        self._discard_views(name)
        # A replica that already lacks the attribute is neither dropped here
        # nor unreached.
        unreached = sorted(
            sid for sid, error in errors.items() if isinstance(error, ShardUnavailableError)
        )
        if not dropped:
            if unreached:
                raise errors[unreached[0]]
            raise UnknownAttributeError(name)
        if not unreached:
            # Routing (pin / partition) is withdrawn only on a COMPLETE
            # drop: with an unreached replica the placement must survive,
            # or the retried drop would route via the ring and never reach
            # the revived zombie copy of a pinned/partitioned attribute.
            self._router.unpartition(name)
            self._router.unassign(name)
            with self._views_lock:
                self._merge_locks.pop(name, None)
            with self._stale_lock:
                self._stale = {entry for entry in self._stale if entry[0] != name}
        result = {"dropped": name, "shards": sorted(dropped)}
        if unreached:
            result["unreached"] = sorted(unreached)
        return result

    def names(self) -> list[str]:
        """Every attribute name in the cluster (partitioned ones once).

        Tolerates unreachable shards -- with replication every attribute is
        visible on a surviving replica, and an all-shards-down cluster still
        raises.  The alternative (failing the listing because one member is
        restarting) would take ``/health`` and ``resync`` down exactly when
        they are needed.
        """
        gathered, errors = self._scatter_tolerant(
            {shard_id: ("names", {}) for shard_id in self._shards}
        )
        if not gathered and errors:
            raise next(iter(errors.values()))
        return sorted({name for names in gathered.values() for name in names})

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def ingest(
        self, name: str, insert: Sequence[float] = (), delete: Sequence[float] = ()
    ) -> dict[str, Any]:
        """Apply one attribute's write batch: :meth:`ingest_batch`'s path for
        one attribute, with ``failed_replicas`` naming shards, not pairs."""
        insert = list(insert)
        delete = list(delete)
        if not self._begin_apply(name, insert, delete):
            return {
                "buffered_for_move": True,
                "inserted": len(insert),
                "deleted": len(delete),
            }
        try:
            if not insert and not delete and not self._router.is_partitioned(name):
                # An empty write touches no store, so only an explicit check
                # tells an unknown attribute from an idle one: a held view,
                # or a ``published`` fetch.
                self._view(name)
            counts, failed = self._write({name: (insert, delete)})
        finally:
            self._end_apply(name)
        response = {
            "inserted": len(insert),
            "deleted": len(delete),
            "per_shard": {shard_id: count["inserted"] for shard_id, count in counts.items()},
        }
        if self._router.is_partitioned(name):
            response["partitioned"] = True
        if failed:
            response["failed_replicas"] = sorted(shard_id for _, shard_id in failed)
        return response

    def ingest_batch(self, items: Mapping[str, Any]) -> dict[str, Any]:
        """Fan a multi-attribute write batch out: one ``ingest_many`` stream per shard.

        ``items`` maps attribute name to either a plain sequence of values
        (an insert run, the historical shape) or a mapping with optional
        ``insert`` / ``delete`` value lists.  Every attribute's values are
        grouped by owning shard (splitting partitioned attributes per value),
        then each shard applies its group as one stream, in order, stopping
        at its first failure; the shard applies an attribute's inserts before
        its deletes, and the delete side rides the store's vectorised
        ``delete_many`` path.  A longer stream than
        :data:`INGEST_LEG_VALUES` values goes out in several rounds.  A
        failing shard's whole stream is suspect: ``failed_replicas`` lists
        every ``name@shard`` it carried, each marked stale.
        """
        writes: dict[str, tuple[list[float], list[float]]] = {}
        buffered = 0
        buffered_deletes = 0
        try:
            for name, values in items.items():
                if isinstance(values, Mapping):
                    insert = list(values.get("insert", ()))
                    delete = list(values.get("delete", ()))
                else:
                    insert = list(values)
                    delete = []
                if not insert and not delete:
                    continue
                if not self._begin_apply(name, insert, delete):
                    buffered += len(insert)
                    buffered_deletes += len(delete)
                    continue
                writes[name] = (insert, delete)
            counts, failed = self._write(writes)
        finally:
            for name in writes:
                self._end_apply(name)
        # Logical counts come from the submitted values (each group that
        # reached here has >= 1 replica apply); ``per_shard`` keeps its
        # historical meaning of values physically placed per shard -- with
        # replication a value lands on every replica, so the per-shard sum
        # exceeds ``inserted`` by design.
        response = {
            "inserted": sum(len(insert) for insert, _ in writes.values()) + buffered,
            "deleted": sum(len(delete) for _, delete in writes.values()) + buffered_deletes,
            "buffered_for_move": buffered + buffered_deletes,
            "per_shard": {shard_id: count["inserted"] for shard_id, count in counts.items()},
            "per_shard_deleted": {
                shard_id: count["deleted"] for shard_id, count in counts.items()
            },
        }
        if failed:
            response["failed_replicas"] = sorted(f"{name}@{shard_id}" for name, shard_id in failed)
        return response

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def query(self, name: str, queries: Sequence[Mapping[str, Any]]) -> dict[str, Any]:
        """Evaluate a consistent batch of estimate queries.

        The batch runs against one held view (unpartitioned attributes) or
        one merged histogram (partitioned ones), both immutable, so the
        results describe a single state.  A view that fails the version rule
        is fetched again first, primary first with failover.  ``shard`` (or,
        merged, ``shards`` per piece) names the replica whose view answered;
        a merged ``generation`` is the sum of the piece generations, reported
        only.
        """
        if not self._router.is_partitioned(name):
            view, fetched = self._view(name)
            response = {
                "generation": view.generation,
                "results": evaluate_queries(view.histogram, queries),
                "shard": view.shard_id,
            }
        else:
            entry, fetched = self._merged_entry(name)
            response = {
                "generation": entry.generation_sum,
                "results": evaluate_queries(entry.merged, queries),
                "merged": True,
                "buckets": entry.merged.bucket_count,
                "shards": {piece: view.shard_id for piece, view in entry.views.items()},
            }
        if self._m_view_reads is not None:
            self._m_view_reads.inc(outcome="fetched" if fetched else "held")
        return response

    def estimate_range(self, name: str, low: float, high: float) -> float:
        """Estimated number of values of ``name`` in the closed range [low, high]."""
        return float(self.query(name, [{"op": "range", "low": low, "high": high}])["results"][0])

    def estimate_equal(self, name: str, value: float) -> float:
        """Estimated number of values of ``name`` equal to ``value``."""
        return float(self.query(name, [{"op": "equal", "value": value}])["results"][0])

    def total_count(self, name: str) -> float:
        """Total number of values represented cluster-wide for ``name``."""
        return float(self.query(name, [{"op": "total"}])["results"][0])

    def cdf(self, name: str, xs: Sequence[float]) -> list[float]:
        """Approximate CDF of ``name`` at each point of ``xs``."""
        return [float(v) for v in self.query(name, [{"op": "cdf", "xs": list(xs)}])["results"][0]]

    # ------------------------------------------------------------------
    # merged global histograms
    # ------------------------------------------------------------------
    def merged_histogram(self, name: str) -> Histogram:
        """The merged global histogram of a partitioned attribute (cached)."""
        return self._merged_entry(name)[0].merged

    def _partition_of(self, name: str) -> RangePartition:
        partition = self._router.partition_for(name)
        if partition is None:
            raise ClusterError(f"attribute {name!r} is not range-partitioned")
        return partition

    def _gather_pieces(
        self, name: str, piece_replicas: Mapping[str, tuple[str, ...]], op: str
    ) -> dict[str, tuple[str, Any]]:
        """Run ``op`` once per piece; ``{piece_id: (shard_id, result)}``.

        One scatter asks every piece's first-choice replica.  The router
        never puts two pieces of an attribute on one shard, so the legs
        cannot collide.  A piece whose leg failed goes on through
        :meth:`_call_with_failover` over its other replicas.
        """
        orders = {
            piece_id: self._failover_order(name, replicas)
            for piece_id, replicas in piece_replicas.items()
        }
        first = {order[0]: piece_id for piece_id, order in orders.items()}
        results, errors = self._scatter_tolerant(
            {shard_id: (op, {"name": name}) for shard_id in first},
            failure_types=(ShardUnavailableError, UnknownAttributeError),
        )
        gathered: dict[str, tuple[str, Any]] = {}
        for shard_id, piece_id in first.items():
            if shard_id in results:
                gathered[piece_id] = (shard_id, results[shard_id])
            else:
                gathered[piece_id] = self._call_with_failover(
                    name, orders[piece_id], op, {"name": name}, tried=(shard_id, errors[shard_id])
                )
        return gathered

    def _merge_lock(self, name: str) -> threading.Lock:
        with self._views_lock:
            lock = self._merge_locks.get(name)
            if lock is None:
                lock = self._merge_locks[name] = threading.Lock()
            return lock

    def _merged_entry(self, name: str) -> tuple[_MergedEntry, bool]:
        """The merged histogram, and whether this read fetched a piece.

        Pieces whose held view fails the version rule are fetched with one
        pipelined ``published`` scatter, **before** the attribute's merge
        lock is taken: shard I/O under that lock would stall every reader of
        the attribute behind one slow or dead shard.  Under the lock the
        entry is checked again -- a reader that fetched the same pieces may
        have merged them already -- and otherwise merged from the fetched
        views and the held ones.  Merging views that never change is
        bit-identical to a from-scratch superimpose.  The entry is held only
        if every fetched view is (see :meth:`_view`).
        """
        partition = self._partition_of(name)
        piece_ids = partition.piece_shard_ids
        piece_replicas = self._router.partition_replicas(name)
        entry = self._merge_cache.get(name)
        views = dict(entry.views) if entry is not None else {}
        moved = {
            piece_id: piece_replicas[piece_id]
            for piece_id in piece_ids
            if piece_id not in views
            or not self._holds(name, views[piece_id], piece_replicas[piece_id])
        }
        if entry is not None and not moved:
            return entry, False
        # Tokens and epoch first (REP005), as in _view.
        tokens = {
            shard_id: self.shard(shard_id).incarnation
            for replicas in moved.values()
            for shard_id in replicas
        }
        epoch = self._epochs.get(name, 0)
        holdable = True
        for piece_id, (shard_id, reply) in self._gather_pieces(
            name, moved, "published"
        ).items():
            views[piece_id] = _received_view(shard_id, reply)
            holdable = holdable and views[piece_id].incarnation == tokens[shard_id]
        with self._merge_lock(name):
            current = self._merge_cache.get(name)
            if current is not None and all(
                piece_id in current.views
                and self._holds(name, current.views[piece_id], piece_replicas[piece_id])
                for piece_id in piece_ids
            ):
                return current, True
            rebuilt = _MergedEntry(
                {piece_id: views[piece_id] for piece_id in piece_ids},
                superimpose([views[piece_id].histogram for piece_id in piece_ids]),
            )
            if holdable:
                with self._views_lock:
                    if (
                        self._epochs.get(name, 0) == epoch
                        and self._router.partition_for(name) is not None
                        and all([self._adopt(name, views[piece_id]) for piece_id in moved])
                    ):
                        self._merge_cache[name] = rebuilt
            return rebuilt, True

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------
    def snapshot(self, name: str) -> dict[str, Any]:
        """Full serialised state of an unpartitioned attribute.

        Served by the home shard, failing over to the next live replica.
        """
        if self._router.is_partitioned(name):
            raise ClusterError(
                f"attribute {name!r} is range-partitioned; snapshot its pieces "
                "per shard (each piece shard serves /attributes/<name>/snapshot)"
            )
        return self._call_with_failover(
            name, self._router.replicas_for(name), "snapshot", {"name": name}
        )[1]

    def restore(self, name: str, snapshot: Mapping[str, Any]) -> dict[str, Any]:
        """Restore an unpartitioned attribute onto every replica of its home.

        Follows the replicated-write contract: success needs one replica to
        restore; a replica that fails is marked stale (it now diverges from
        the restored state) for ``resync`` to heal, never silently trusted.
        """
        if self._router.is_partitioned(name):
            raise ClusterError(
                f"attribute {name!r} is range-partitioned; restore its pieces per shard"
            )
        replicas = self._router.replicas_for(name)
        restore_leg = ("restore", {"name": name, "snapshot": dict(snapshot)})
        self._discard_views(name)
        restored, _ = self._fan_out_replicated(
            [(name, replicas)], {shard_id: [restore_leg] for shard_id in replicas}
        )
        return _first_result(restored, replicas)

    # ------------------------------------------------------------------
    # rebalance / drain
    # ------------------------------------------------------------------
    def _begin_apply(self, name: str, insert: list[float], delete: list[float]) -> bool:
        """Atomically either buffer the ops (attribute moving -> False) or
        register an in-flight apply (True; pair with :meth:`_end_apply`).

        The check-and-increment is one critical section: a rebalance that
        registers afterwards will wait for this apply to finish before it
        snapshots, so the write is guaranteed to be inside the snapshot.
        """
        with self._moves_cv:
            buffer = self._moves.get(name)
            if buffer is not None:
                if insert or delete:
                    buffer.append((list(insert), list(delete)))
                return False
            self._inflight[name] = self._inflight.get(name, 0) + 1
            return True

    def _end_apply(self, name: str) -> None:
        with self._moves_cv:
            remaining = self._inflight.get(name, 1) - 1
            if remaining > 0:
                self._inflight[name] = remaining
            else:
                self._inflight.pop(name, None)
                self._moves_cv.notify_all()

    def _begin_move(self, name: str) -> None:
        """Register a move: from here ``name``'s cluster writes buffer.

        Fence: applies that slipped past the move check must reach the
        source before the snapshot, or their values would be neither in the
        copy nor in the buffer, so this waits for them to drain.
        """
        with self._moves_cv:
            if name in self._moves:
                raise ClusterError(f"attribute {name!r} is already being moved")
            self._moves[name] = []
            while self._inflight.get(name, 0) > 0:
                self._moves_cv.wait()

    def _abort_move(self, name: str) -> None:
        """Failure-path compensation: unregister the move and replay its
        buffered writes through the public write path -- routing never
        flipped, so they land on the current home and fence against any
        later move.  EVERY write is attempted: one whose replica group is
        momentarily unreachable must not discard the acknowledged writes
        queued behind it.  A write that still fails is dropped and counted
        (bounded undercount beats double-applying a write whose fate is
        unknown -- the ingest pipeline's rule).
        """
        with self._moves_cv:
            buffered = self._moves.pop(name, [])
        dropped = 0
        for insert, delete in buffered:
            try:
                self.ingest(name, insert=insert, delete=delete)
            except Exception:
                dropped += 1
        if dropped:
            with self._stale_lock:
                self._dropped_buffered_ops += dropped

    def rebalance(self, name: str, target_shard_id: str) -> dict[str, Any]:
        """Move an unpartitioned attribute to ``target_shard_id``.

        Protocol (no write is ever lost):

        1. register the move -- from here, cluster writes for ``name`` are
           buffered at the coordinator instead of applied -- then wait for
           the in-flight applies that passed the move check earlier to
           drain, so every applied write is visible to the snapshot;
        2. snapshot on the source, restore on the target;
        3. replay buffered writes onto the target, repeating until a drain
           pass finds the buffer empty *while holding the move lock*, at
           which point the routing override flips to the target and the move
           is unregistered in the same critical section -- a concurrent
           writer either buffered before the flip (replayed) or routes to
           the target after it;
        4. drop the attribute from the source.

        On failure the buffered writes are replayed onto the source (still
        the routed home) and the target's copy is dropped, best effort,
        before the error propagates.  A replay pass that fails on the target
        goes back to the front of the buffer whole: the abandoned target is
        the only shard that saw any of it.
        """
        self.shard(target_shard_id)  # membership check
        if self._router.replication_factor > 1:
            raise ClusterError(
                "rebalance requires replication_factor=1: a replicated "
                "attribute's placement is its whole replica set -- heal or "
                "reshape it with resync instead"
            )
        if self._router.is_partitioned(name):
            raise ClusterError(
                f"attribute {name!r} is range-partitioned; move pieces by re-partitioning"
            )
        source_id = self._router.shard_for(name)
        if source_id == target_shard_id:
            return {"attribute": name, "from": source_id, "to": target_shard_id, "moved": False}
        self._begin_move(name)
        replayed = 0
        try:
            snapshot = self._ask(source_id, "snapshot", {"name": name})
            self._ask(target_shard_id, "restore", {"name": name, "snapshot": snapshot})
            while True:
                with self._moves_cv:
                    buffered = self._moves[name]
                    if not buffered:
                        # Atomic flip: override + unregister under the same
                        # lock a writer needs to buffer.
                        self._router.assign(name, target_shard_id)
                        del self._moves[name]
                        break
                    self._moves[name] = []
                try:
                    for write in buffered:
                        self._write({name: write}, (target_shard_id,))
                except Exception:
                    with self._moves_cv:
                        self._moves[name] = buffered + self._moves[name]
                    raise
                replayed += sum(len(insert) + len(delete) for insert, delete in buffered)
        except Exception:
            self._abort_move(name)
            with contextlib.suppress(ShardUnavailableError, UnknownAttributeError):
                self._ask(target_shard_id, "drop", {"name": name})
            self._discard_views(name)
            raise
        self._ask(source_id, "drop", {"name": name})
        self._discard_views(name)
        return {
            "attribute": name,
            "from": source_id,
            "to": target_shard_id,
            "moved": True,
            "replayed_buffered_values": replayed,
        }

    def drain(self, shard_id: str) -> dict[str, Any]:
        """Move every attribute homed on ``shard_id`` to the other members.

        Range-partitioned attributes keep their piece on the shard (moving a
        piece is a re-partitioning decision, not a drain) and are reported as
        skipped.
        """
        self.shard(shard_id)  # membership check
        if self._router.replication_factor > 1:
            raise ClusterError(
                "drain requires replication_factor=1; a replicated cluster "
                "heals an emptied-and-recovered shard with resync"
            )
        if len(self._shards) < 2:
            raise ClusterError("cannot drain the only shard in the cluster")
        moved: dict[str, str] = {}
        skipped: list[str] = []
        for name in self._ask(shard_id, "names", {}):
            if self._router.is_partitioned(name):
                skipped.append(name)
                continue
            if self._router.shard_for(name) != shard_id:
                continue  # a stale replica; the routed home is elsewhere
            target_id = self._router.ring_shard_for(name, exclude=(shard_id,))
            self.rebalance(name, target_id)
            moved[name] = target_id
        return {"shard": shard_id, "moved": moved, "skipped_partitioned": sorted(skipped)}

    # ------------------------------------------------------------------
    # resync (replica healing)
    # ------------------------------------------------------------------
    def _resync_attribute(
        self, name: str, replicas: tuple[str, ...], target_id: str
    ) -> str:
        """Re-seed ``target_id``'s replica of one attribute (or piece).

        Snapshot/restore is a *full-state replace*: whatever subset of
        writes the stale replica saw, restoring a live replica's snapshot
        over it can neither lose nor double-apply anything.  Writes racing
        the copy are fenced exactly like a rebalance: the attribute is
        registered as moving (cluster writes buffer at the coordinator),
        in-flight applies drain before the snapshot, and the buffer is
        replayed onto **all** replicas before the move is unregistered, so
        every buffered write lands exactly once everywhere.
        """
        sources = tuple(sid for sid in replicas if sid != target_id)
        assert sources, "resync needs a second replica to copy from"
        self._begin_move(name)
        try:
            source_id, snapshot = self._call_with_failover(
                name, sources, "snapshot", {"name": name}
            )
            self._ask(target_id, "restore", {"name": name, "snapshot": snapshot})
            # Stale bookkeeping NOW, not after the replay: the restore made
            # the target exactly as fresh as its source (buffered ops are on
            # no replica yet), and a replay failure below may legitimately
            # re-mark it -- a mark that must survive this resync.  When the
            # failover had to fall back to a *stale* source (every fresh
            # sibling unreachable), the target inherits that staleness: a
            # clear here would advertise a copy that may miss acknowledged
            # writes as fresh, and a later resync could then spread it over
            # the one replica that still has them.
            if self.is_stale(name, source_id):
                self._mark_stale(name, target_id)
            else:
                self._clear_stale(name, target_id)
            while True:
                with self._moves_cv:
                    buffered = self._moves[name]
                    if not buffered:
                        del self._moves[name]
                        break
                    self._moves[name] = []
                for index, write in enumerate(buffered):
                    try:
                        self._write({name: write})
                    except Exception:
                        # Push the known-unapplied tail back into the move
                        # buffer so the outer handler replays it -- these
                        # writes were already acknowledged.  The failing
                        # write itself is dropped: its progress is unknown
                        # (some piece groups may have applied), and a
                        # bounded undercount beats double-applying -- the
                        # same rule the ingest pipeline follows.  The drop
                        # is counted so stats() surfaces it.
                        with self._moves_cv:
                            self._moves[name] = (
                                buffered[index + 1 :] + self._moves.get(name, [])
                            )
                        with self._stale_lock:
                            self._dropped_buffered_ops += 1
                        raise
        except Exception:
            self._abort_move(name)
            self._discard_views(name)
            raise
        # The restore moved the target to a version no reply reported.
        self._discard_views(name)
        return source_id

    def resync(self, shard_id: str) -> dict[str, Any]:
        """Heal a recovered shard: re-seed every replica it should hold.

        For every attribute (and partitioned piece) whose replica set
        contains ``shard_id``, the freshest reachable sibling replica is
        snapshotted and restored onto the shard, and the (attribute, shard)
        stale mark is cleared.  Attributes whose *only* replica is this
        shard have no surviving copy to heal from and are reported as
        ``unrecoverable`` (their data is whatever the shard itself still
        holds -- e.g. what its own WAL recovered).
        """
        self.shard(shard_id)  # membership check
        resynced: dict[str, str] = {}
        unrecoverable: list[str] = []
        for name in self.names():
            for replicas in self._router.replica_sets_for(name):
                if shard_id not in replicas:
                    continue
                if len(replicas) < 2:
                    unrecoverable.append(name)
                    continue
                resynced[name] = self._resync_attribute(name, replicas, shard_id)
        return {
            "shard": shard_id,
            "resynced": resynced,
            "unrecoverable": sorted(unrecoverable),
        }

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def attribute_stats(self, name: str) -> dict[str, Any]:
        """Cluster-level stats of one attribute (per piece when partitioned)."""
        partition = self._router.partition_for(name)
        if partition is None:
            replicas = self._router.replicas_for(name)
            shard_id, stats = self._call_with_failover(
                name, replicas, "stats", {"name": name}
            )
            result = {
                "name": name,
                "partitioned": False,
                "shard": shard_id,
                "stats": stats,
            }
            if len(replicas) > 1:
                result["replicas"] = list(replicas)
            return result
        piece_replicas = self._router.partition_replicas(name)
        pieces = {
            piece_id: stats
            for piece_id, (_, stats) in self._gather_pieces(name, piece_replicas, "stats").items()
        }
        cached = self._merge_cache.get(name)
        result = {
            "name": name,
            "partitioned": True,
            "partition": partition.to_dict(),
            "pieces": pieces,
            "merged_generation_sum": None if cached is None else cached.generation_sum,
            "merged_buckets": None if cached is None else cached.merged.bucket_count,
        }
        if self._router.replication_factor > 1:
            result["replicas"] = {
                piece_id: list(ids) for piece_id, ids in piece_replicas.items()
            }
        return result

    def stats(self) -> dict[str, Any]:
        """Cluster-wide stats: per-shard attribute tables plus placement.

        An unreachable shard is reported (``status: unavailable``) rather
        than failing the whole listing -- operators need exactly this view
        while a member is down.  A ``health`` round goes first; only the
        shards that answered it get the ``stats_all`` round.
        """
        healths, errors = self._scatter_tolerant(
            {shard_id: ("health", {}) for shard_id in self._shards}
        )
        tables, table_errors = self._scatter_tolerant(
            {shard_id: ("stats_all", {}) for shard_id in healths}
        )
        errors.update(table_errors)
        gathered = {
            shard_id: {"health": healths[shard_id], "attributes": tables[shard_id]}
            for shard_id in tables
        }
        for shard_id, error in errors.items():
            gathered[shard_id] = {
                "health": {"status": "unavailable", "error": str(error)},
                "attributes": [],
            }
        with self._views_lock:
            merge_cache = {
                name: {"generation_sum": entry.generation_sum, "buckets": entry.merged.bucket_count}
                for name, entry in self._merge_cache.items()
            }
        return {
            "shards": [
                {"shard_id": shard_id, **gathered[shard_id]} for shard_id in self._shards
            ],
            "placement": self._router.placement(),
            "merge_cache": merge_cache,
            "stale_replicas": [list(entry) for entry in self.stale_replicas()],
            "dropped_buffered_ops": self._dropped_buffered_ops,
            "replica_reads": self._replica_reads,
        }


def _stream_legs(items: Mapping[str, Mapping[str, list[float]]]) -> list[dict[str, Any]]:
    """Cut one shard's ordered stream into legs of <= INGEST_LEG_VALUES values."""
    legs: list[dict[str, Any]] = []
    size = 0
    for name, values in items.items():
        count = len(values["insert"]) + len(values["delete"])
        if not legs or (size and size + count > INGEST_LEG_VALUES):
            legs.append({})
            size = 0
        legs[-1][name] = values
        size += count
    return legs


def _reply_versions(
    args: Mapping[str, Any], result: Any
) -> dict[str, tuple[str, int]]:
    """The versions one write reply reports, by attribute name.

    ``ingest_many`` replies list them under ``versions``; ``create`` and
    ``restore`` replies are the attribute's stats with its incarnation.
    """
    if not isinstance(result, Mapping):
        return {}
    if "versions" in result:
        return {
            name: (str(version[0]), int(version[1]))
            for name, version in result["versions"].items()
        }
    if "incarnation" in result:
        return {args["name"]: (str(result["incarnation"]), int(result["generation"]))}
    return {}


def _first_result(results: Mapping[str, list[Any]], replicas: Sequence[str]) -> Any:
    """The first replica's single-leg result in preference order (primary first)."""
    return results[next(sid for sid in replicas if sid in results)][0]
