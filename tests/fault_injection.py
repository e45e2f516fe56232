"""Fault-injection test doubles for the cluster layer.

:class:`FlakyShard` wraps any :class:`~repro.cluster.protocol.ShardBackend`
with scripted failure points, so tests can drive the coordinator through the
exact crash windows that matter for exactly-once semantics:

* **down** -- the shard is unreachable: every call raises
  :class:`~repro.exceptions.ShardUnavailableError` (a killed process);
* **fail-before-apply** -- the next N attribute writes raise *before*
  touching the inner shard (the request never arrived);
* **fail-after-apply** -- the next N attribute writes apply on the inner
  shard and *then* raise (the response was lost: the caller cannot know the
  write landed -- the nastiest window, where a retry would double-apply);
* **fail-N-then-heal** -- either of the above N times, then healthy again.

All failures surface as ``ShardUnavailableError`` carrying the shard id,
exactly what a :class:`~repro.cluster.transport.ProcessShard` raises for a
dead transport, so the coordinator cannot tell the double from the real
thing.  Values reach a shard only through ``ingest_many``, whose stream the
double passes to the inner shard one attribute at a time, each through the
script, so a failure can cut a stream short after its first attributes
applied.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Sequence
from typing import Any

from repro.cluster.protocol import ShardBackend
from repro.exceptions import ShardUnavailableError

__all__ = ["FlakyShard", "InjectedFault"]


class InjectedFault(Exception):
    """The scripted cause carried inside the raised ShardUnavailableError."""


class FlakyShard(ShardBackend):
    """A ShardBackend proxy with scripted failure points.

    The wrapper is intentionally *stateless about payloads*: it never
    buffers or replays -- whether a failed write reached the inner shard is
    decided solely by the scripted failure point, which is exactly the
    ambiguity the coordinator must survive.
    """

    def __init__(self, inner: ShardBackend) -> None:
        super().__init__(inner.shard_id)
        self.inner = inner
        self.down = False
        #: Fail only the paths that ship full state, ``snapshot`` and
        #: ``published`` (a shard that serves cheap stats but cannot ship its
        #: histogram -- forces view and snapshot failover in isolation).
        self.snapshot_down = False
        self._fail_before = 0
        self._fail_after = 0
        self.calls: Counter = Counter()

    # ------------------------------------------------------------------
    # scripting
    # ------------------------------------------------------------------
    def fail_next_ingests(self, times: int = 1, *, when: str = "before") -> None:
        """Script the next ``times`` attribute writes to fail, then heal.

        ``when="before"`` fails without applying; ``when="after"`` applies
        on the inner shard first and then reports failure.
        """
        if when == "before":
            self._fail_before += int(times)
        elif when == "after":
            self._fail_after += int(times)
        else:
            raise ValueError(f"when must be 'before' or 'after', got {when!r}")

    def _unavailable(self, reason: str) -> ShardUnavailableError:
        return ShardUnavailableError(self.shard_id, InjectedFault(reason))

    def _gate(self, call: str) -> None:
        self.calls[call] += 1
        if self.down:
            raise self._unavailable("shard is down")

    # ------------------------------------------------------------------
    # ShardBackend protocol
    # ------------------------------------------------------------------
    @property
    def incarnation(self) -> str | None:
        return self.inner.incarnation

    def create(self, name: str, kind: str = "dc", **kwargs: Any) -> dict[str, Any]:
        self._gate("create")
        return self.inner.create(name, kind, **kwargs)

    def drop(self, name: str) -> None:
        self._gate("drop")
        self.inner.drop(name)

    def names(self) -> list[str]:
        self._gate("names")
        return self.inner.names()

    def ingest_many(self, items: Mapping[str, Mapping[str, Sequence[float]]]) -> dict[str, Any]:
        applied: dict[str, Any] = {"inserted": 0, "deleted": 0, "versions": {}}
        for name, values in items.items():
            self._gate("ingest_many")
            if self._fail_before > 0:
                self._fail_before -= 1
                raise self._unavailable("scripted failure before apply")
            result = self.inner.ingest_many({name: values})
            if self._fail_after > 0:
                self._fail_after -= 1
                raise self._unavailable("scripted failure after apply (response lost)")
            applied["inserted"] += result["inserted"]
            applied["deleted"] += result["deleted"]
            applied["versions"].update(result["versions"])
        return applied

    def published(self, name: str) -> dict[str, Any]:
        self._gate("published")
        if self.snapshot_down:
            raise self._unavailable("snapshot path is down")
        return self.inner.published(name)

    def stats(self, name: str) -> dict[str, Any]:
        self._gate("stats")
        return self.inner.stats(name)

    def stats_all(self) -> list[dict[str, Any]]:
        self._gate("stats_all")
        return self.inner.stats_all()

    def snapshot(self, name: str) -> dict[str, Any]:
        self._gate("snapshot")
        if self.snapshot_down:
            raise self._unavailable("snapshot path is down")
        return self.inner.snapshot(name)

    def restore(self, name: str, snapshot: Mapping[str, Any]) -> dict[str, Any]:
        self._gate("restore")
        return self.inner.restore(name, snapshot)

    def health(self) -> dict[str, Any]:
        self._gate("health")
        return self.inner.health()
