"""HTTP front-end for the cluster: one JSON API over many shards.

:class:`ClusterServer` puts a
:class:`~repro.cluster.coordinator.ClusterCoordinator` behind the same HTTP
edge (:class:`~repro.service.server.EdgeServer`) the single-node
:class:`~repro.service.server.StatisticsServer` runs on, so every service
route exists here and an existing :class:`StatisticsClient` -- and the
``store-stats`` CLI -- keeps working against a cluster.  Response *payloads*
carry extra cluster fields (``per_shard``, ``merged``, ``partitioned``), and
per-attribute stats / snapshot bodies differ in shape for partitioned
attributes.  The route table, including the cluster-only routes
(``/cluster/stats``, ``/cluster/ingest``, rebalance, drain and resync), is in
:mod:`repro.service.server`.

:class:`ClusterClient` extends :class:`StatisticsClient` (create / ingest /
estimate / stats / drop are byte-identical routes) with the cluster verbs.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any

from ..obs.registry import MetricsRegistry, federate
from ..service.client import StatisticsClient
from ..service.server import EdgeHandler, EdgeServer, Reply
from .coordinator import ClusterCoordinator

__all__ = ["ClusterServer", "ClusterClient"]


class _ClusterHandler(EdgeHandler):
    """The cluster routes, answered by the server's coordinator."""

    server_version = "repro-statistics-cluster/1.0"
    edge: ClusterServer

    def _backend_route(
        self, method: str, route: tuple[str, ...], payload: dict[str, Any]
    ) -> Reply | None:
        coordinator = self.edge.coordinator
        if route == ("health",) and method == "GET":
            return 200, {
                "status": "ok",
                "shards": len(coordinator.shard_ids),
                "attributes": len(coordinator.names()),
            }
        if route == ("cluster", "stats") and method == "GET":
            return 200, coordinator.stats()
        if route == ("cluster", "ingest") and method == "POST":
            items = payload.get("items")
            if not isinstance(items, dict):
                raise ValueError('"items" must be a JSON object mapping attribute names')
            for values in items.values():
                if isinstance(values, dict):
                    if not all(
                        isinstance(values.get(key, []), list)
                        for key in ("insert", "delete")
                    ):
                        raise ValueError('"insert" and "delete" must be JSON arrays')
                elif not isinstance(values, list):
                    raise ValueError("batch values must be arrays or insert/delete objects")
            return 200, coordinator.ingest_batch(items)
        if route in (("stats",), ("attributes",)) and method == "GET":
            # Service-compatible flat listing (what `store-stats` consumes):
            # one row per (shard, attribute), tagged with the shard id.
            attributes = [
                {**stats, "shard": shard["shard_id"]}
                for shard in coordinator.stats()["shards"]
                for stats in shard["attributes"]
            ]
            return 200, {"attributes": attributes}
        if route == ("attributes",) and method == "POST":
            return 201, coordinator.create(
                **self._create_options(payload),
                partition_boundaries=payload.get("partition_boundaries"),
                partition_shards=payload.get("partition_shards"),
            )
        if len(route) == 2 and route[0] == "attributes":
            name = route[1]
            if method == "GET":
                return 200, coordinator.attribute_stats(name)
            if method == "DELETE":
                return 200, coordinator.drop(name)
        if len(route) == 3 and route[0] == "attributes":
            name, action = route[1], route[2]
            if action == "ingest" and method == "POST":
                inserts, deletes = self._ingest_lists(payload)
                return 200, coordinator.ingest(name, insert=inserts, delete=deletes)
            if action == "snapshot" and method == "GET":
                return 200, coordinator.snapshot(name)
            if action == "restore" and method == "POST":
                return 200, coordinator.restore(name, payload.get("snapshot", payload))
            if action == "rebalance" and method == "POST":
                return 200, coordinator.rebalance(name, payload["shard"])
        if len(route) == 3 and route[0] == "shards" and method == "POST":
            if route[2] == "drain":
                return 200, coordinator.drain(route[1])
            if route[2] == "resync":
                return 200, coordinator.resync(route[1])
        return None


class ClusterServer(EdgeServer):
    """A threaded HTTP façade over a :class:`ClusterCoordinator`.

    Same lifecycle contract as the single-node server: ``port=0`` binds an
    ephemeral port, :meth:`start` serves from a daemon thread,
    :meth:`serve_forever` serves in the foreground, and the context manager
    starts / stops around the block.
    """

    handler_class = _ClusterHandler
    server_label = "cluster"
    thread_name = "repro-cluster-server"

    def __init__(
        self,
        coordinator: ClusterCoordinator,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics: MetricsRegistry | None = None,
        slow_request_ms: float | None = None,
        trace: bool = False,
        trace_sink: Any | None = None,
        profile: bool | float = False,
    ) -> None:
        self.coordinator = coordinator
        super().__init__(
            coordinator,
            host=host,
            port=port,
            metrics=metrics,
            slow_request_ms=slow_request_ms,
            trace=trace,
            trace_sink=trace_sink,
            profile=profile,
        )

    def render_metrics(self) -> str:
        """This process's exposition merged with every reachable worker's,
        whose series carry a ``shard`` label."""
        workers = self.coordinator.shard_reports("metrics")
        return federate(super().render_metrics(), workers)

    def profile_report(self) -> dict[str, Any]:
        """This process's attribution, plus each profiling worker's under ``shards``."""
        return {**super().profile_report(), "shards": self.coordinator.shard_reports("profile")}


class ClusterClient(StatisticsClient):
    """Cluster-aware client: the service client plus the cluster verbs.

    The inherited per-attribute surface (``ingest`` / ``query`` /
    ``estimate_*`` / ``stats(name)`` / ``drop`` / ``total_count``) hits the
    identical routes on a :class:`ClusterServer`.
    """

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
        """Create an attribute; pass ``partition_boundaries`` to range-partition it."""
        payload: dict[str, Any] = {
            "name": name,
            "kind": kind,
            "memory_kb": memory_kb,
            "value_unit": value_unit,
            "disk_factor": disk_factor,
            "seed": seed,
            "exist_ok": exist_ok,
        }
        if partition_boundaries is not None:
            payload["partition_boundaries"] = list(partition_boundaries)
        if partition_shards is not None:
            payload["partition_shards"] = list(partition_shards)
        return self._request("POST", "/attributes", payload)

    def cluster_stats(self) -> dict[str, Any]:
        """Per-shard stats, placement rules and the merge-cache state."""
        return self._request("GET", "/cluster/stats")

    def ingest_batch(self, items: Mapping[str, Any]) -> dict[str, Any]:
        """Apply a multi-attribute write batch in one round trip.

        Each entry maps an attribute name to either a list of values to
        insert or an object with ``insert`` / ``delete`` value lists; the
        coordinator groups the whole batch per shard and sends each shard one
        stream.
        """
        return self._request("POST", "/cluster/ingest", {"items": dict(items)})

    def rebalance(self, name: str, shard_id: str) -> dict[str, Any]:
        """Move an unpartitioned attribute to ``shard_id``."""
        return self._request(
            "POST", self._attribute_path(name, "rebalance"), {"shard": shard_id}
        )

    def drain(self, shard_id: str) -> dict[str, Any]:
        """Move every attribute off ``shard_id``."""
        from urllib.parse import quote

        return self._request("POST", f"/shards/{quote(shard_id, safe='')}/drain", {})

    def resync(self, shard_id: str) -> dict[str, Any]:
        """Heal a recovered shard: re-seed every replica it should hold."""
        from urllib.parse import quote

        return self._request("POST", f"/shards/{quote(shard_id, safe='')}/resync", {})
