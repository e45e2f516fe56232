"""Tests for the observability layer: registry, tracing, accuracy telemetry.

Covers the PR-7 acceptance bar end to end:

* the metrics registry conserves counts under concurrent writers while
  scraping readers never observe a torn per-metric snapshot;
* a trace id entering the cluster edge is demonstrably propagated down to
  every shard op (coordinator -> ProcessShard -> BinaryShardServer), merged
  reads included;
* ``GET /metrics`` serves well-formed Prometheus text on both server kinds;
* pipeline requeue/drop counters surface through the ``/stats`` route;
* transport connect-retry telemetry lands in both ``transport_stats`` and
  the bound registry counters;
* the accuracy sampler reports near-zero selectivity error on an exact
  shadow and disables itself on overflow.

This module runs under the dynamic lock-order monitor (``LOCKCHECK_MODULES``
in conftest.py): any metric update that acquired a store lock, or blocked on
socket I/O while holding an obs lock, would fail these tests -- and so would
a merged read that fetched piece snapshots while holding the coordinator's
merge lock.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time

import pytest

from repro import (
    ClusterClient,
    ClusterCoordinator,
    ClusterServer,
    HistogramStore,
    IngestPipeline,
    LocalShard,
    StatisticsClient,
    StatisticsServer,
)
from repro.cluster import BinaryShardClient, BinaryShardServer, ProcessShard, ShardSupervisor
from repro.exceptions import ShardUnavailableError
from repro.obs import (
    LATENCY_BUCKETS_S,
    AccuracySampler,
    MetricsRegistry,
    Trace,
    current_trace,
    current_trace_id,
    new_trace_id,
    route_label,
    use_trace,
)
from repro.obs.registry import federate

# ----------------------------------------------------------------------
# exposition parsing helpers
# ----------------------------------------------------------------------


def parse_samples(text: str) -> dict[str, float]:
    """Prometheus text -> {sample_name_with_labels: value}."""
    samples: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        samples[name] = float(value)
    return samples


def assert_not_torn(text: str) -> None:
    """Every histogram in a scrape must be internally consistent.

    The +Inf bucket is the running count by construction, so within one
    rendered snapshot it must equal the ``_count`` sample and the cumulative
    buckets must be monotone.  A torn scrape (values read mid-update) breaks
    one of these.
    """
    samples = parse_samples(text)
    for name, value in samples.items():
        if '_bucket{' not in name or 'le="+Inf"' not in name:
            continue
        base, _, labels = name.partition("_bucket{")
        pairs = [
            pair
            for pair in labels.rstrip("}").split(",")
            if pair and not pair.startswith("le=")
        ]
        count_key = base + "_count" + ("{" + ",".join(pairs) + "}" if pairs else "")
        assert samples[count_key] == value, (
            f"torn scrape: {name}={value} but {count_key}={samples[count_key]}"
        )


# ----------------------------------------------------------------------
# registry concurrency
# ----------------------------------------------------------------------


class TestRegistryConcurrency:
    WRITERS = 8
    INCREMENTS = 2000

    def test_writers_conserve_counts_and_scrapes_never_tear(self):
        registry = MetricsRegistry()
        counter = registry.counter("obs_test_events_total", "test counter")
        labelled = registry.counter(
            "obs_test_worker_events_total", "per-worker counter", labelnames=("worker",)
        )
        dist = registry.distribution(
            "obs_test_latency_seconds", "test histogram", buckets=LATENCY_BUCKETS_S
        )
        stop_scraping = threading.Event()
        scrape_errors: list[str] = []
        scrapes = 0

        def write(worker: int) -> None:
            for i in range(self.INCREMENTS):
                counter.inc()
                labelled.inc(worker=str(worker))
                dist.observe(1e-4 * ((i % 7) + 1))

        def scrape() -> None:
            nonlocal scrapes
            while not stop_scraping.is_set():
                text = registry.render()
                scrapes += 1
                try:
                    assert_not_torn(text)
                    total = parse_samples(text).get("obs_test_events_total", 0.0)
                    if total > self.WRITERS * self.INCREMENTS:
                        raise AssertionError(f"over-count mid-run: {total}")
                except AssertionError as error:  # pragma: no cover - failure path
                    scrape_errors.append(str(error))
                    return

        writers = [
            threading.Thread(target=write, args=(w,)) for w in range(self.WRITERS)
        ]
        readers = [threading.Thread(target=scrape) for _ in range(2)]
        for thread in readers + writers:
            thread.start()
        for thread in writers:
            thread.join()
        stop_scraping.set()
        for thread in readers:
            thread.join()

        assert not scrape_errors, scrape_errors
        assert scrapes > 0
        expected = self.WRITERS * self.INCREMENTS
        assert counter.value() == expected
        for worker in range(self.WRITERS):
            assert labelled.value(worker=str(worker)) == self.INCREMENTS
        summary = dist.summary()
        assert summary["count"] == expected
        final = parse_samples(registry.render())
        assert final["obs_test_events_total"] == expected
        inf_key = 'obs_test_latency_seconds_bucket{le="+Inf"}'
        assert final[inf_key] == expected


# ----------------------------------------------------------------------
# trace context
# ----------------------------------------------------------------------


class TestTraceContext:
    def test_use_trace_activates_and_restores(self):
        assert current_trace() is None
        trace = Trace(new_trace_id())
        with use_trace(trace):
            assert current_trace() is trace
            with trace.span("inner"):
                pass
        assert current_trace() is None
        assert [span[0] for span in trace.spans()] == ["inner"]

    def test_route_label_collapses_cardinality(self):
        assert route_label(("attributes", "age", "estimate")) == (
            "/attributes/{name}/estimate"
        )
        assert route_label(("stats",)) == "/stats"
        assert route_label(("no", "such", "route", "x")) == "/other"


class _TraceRecordingBackend:
    """A shard backend that records the trace id active for every op it serves."""

    def __init__(self, inner: LocalShard, seen: list) -> None:
        self.inner = inner
        self.shard_id = inner.shard_id
        self.seen = seen

    def __getattr__(self, op: str):
        method = getattr(self.inner, op)

        def record(**args):
            self.seen.append((self.shard_id, op, current_trace_id()))
            return method(**args)

        return record


class TestTracePropagation:
    """A trace id at the cluster edge reaches every shard op over the wire."""

    def test_cluster_trace_id_reaches_every_shard_op(self):
        seen: list[tuple[str, str, str | None]] = []
        cluster_entries: list[dict] = []
        registry = MetricsRegistry()
        stores = [HistogramStore(), HistogramStore()]
        servers = [
            BinaryShardServer(_TraceRecordingBackend(LocalShard(f"shard-{i}", store), seen)).start()
            for i, store in enumerate(stores)
        ]
        shards = [
            ProcessShard(f"shard-{i}", BinaryShardClient(*server.address))
            for i, server in enumerate(servers)
        ]
        try:
            coordinator = ClusterCoordinator(shards, metrics=registry)
            with ClusterServer(
                coordinator,
                metrics=registry,
                slow_request_ms=0.0,
                trace_sink=cluster_entries.append,
            ) as front:
                client = ClusterClient(*front.address)
                client.create("age", "dc", memory_kb=0.5)
                client.create("hot", "dc", memory_kb=0.5, partition_boundaries=[25.0])
                values = [float(v % 50) for v in range(500)]
                client.ingest("age", insert=values)
                client.ingest("hot", insert=values)
                assert client.total_count("age") == pytest.approx(500.0)
                assert client.total_count("hot") == pytest.approx(500.0)
        finally:
            for shard in shards:
                shard.client.close()
            for server in servers:
                server.stop()
            for store in stores:
                store.close()

        cluster_ids = {entry["trace_id"] for entry in cluster_entries}
        # Estimates are answered from views the coordinator fetched with
        # ``published``; no read reaches a shard as a query.
        assert {op for _, op, _ in seen} >= {"create", "ingest_many", "published"}
        # Every shard op was made on behalf of a cluster request: its trace
        # id is one the cluster edge generated, never a fresh one or none.
        assert {trace_id for _, _, trace_id in seen} <= cluster_ids
        # Scatter legs and failover reads recorded spans under the same trace.
        spans = {
            span["name"] for entry in cluster_entries for span in entry.get("spans", [])
        }
        assert {"fanout:shard-0", "fanout:shard-1"} <= spans
        # A failover read (the held view of ``age`` fetched from its home)
        # is a leg like any other: its span is a ``fanout:`` span too.
        age_read, _ = [
            entry for entry in cluster_entries if entry["route"] == "/attributes/{name}/estimate"
        ]
        assert [span["name"].split(":")[0] for span in age_read["spans"]] == ["fanout"]
        assert not any(name.startswith("shard:") for name in spans)
        assert registry.get("repro_cluster_fanout_seconds") is not None


# ----------------------------------------------------------------------
# /metrics exposition + /stats pipeline counters
# ----------------------------------------------------------------------


class TestMetricsExposition:
    def test_service_metrics_route(self):
        registry = MetricsRegistry()
        store = HistogramStore(metrics=registry)
        pipeline = IngestPipeline(store, metrics=registry)
        with StatisticsServer(store, pipeline=pipeline, metrics=registry) as server:
            client = StatisticsClient(*server.address)
            client.create("age", "dc", memory_kb=0.5)
            response = client.ingest("age", insert=[float(v % 30) for v in range(300)])
            assert response["buffered"] is True
            pipeline.flush()
            client.total_count("age")
            text = client.metrics_text()
        assert text.endswith("\n")
        assert "# TYPE repro_store_op_seconds histogram" in text
        samples = parse_samples(text)
        assert samples['repro_store_mutations_total{attribute="age",op="insert"}'] == 300
        assert samples["repro_pipeline_flushed_values_total"] == 300
        assert samples['repro_http_requests_total{route="/attributes",status="201"}'] >= 1
        assert_not_torn(text)

    def test_stats_route_surfaces_requeue_and_drop_counters(self):
        store = HistogramStore()
        pipeline = IngestPipeline(store)
        with StatisticsServer(store, pipeline=pipeline) as server:
            client = StatisticsClient(*server.address)
            client.create("age", "dc", memory_kb=0.5)
            assert client.ingest("age", insert=[1.0, 2.0])["buffered"] is True
            pipeline.flush()
            stats = client.stats()
        assert stats["pipeline"]["requeued_values"] == 0
        assert stats["pipeline"]["dropped_values"] == 0
        assert stats["pipeline"]["flushed_values"] == 2


class TestWorkerMetrics:
    """Spawned workers report their own store, WAL, process and profiler data
    through the cluster edge, each series labelled with its shard."""

    @staticmethod
    def _serve(supervisor, **knobs):
        registry = MetricsRegistry()
        coordinator = ClusterCoordinator(supervisor.start(), metrics=registry)
        coordinator.create("hot", "dc", memory_kb=0.5, partition_boundaries=[500.0])
        coordinator.ingest("hot", insert=[100.0, 200.0, 900.0])
        return ClusterServer(coordinator, metrics=registry, **knobs)

    @staticmethod
    def _families_typed_once(text: str) -> None:
        types = [line.split()[2] for line in text.splitlines() if line.startswith("# TYPE ")]
        helps = [line.split()[2] for line in text.splitlines() if line.startswith("# HELP ")]
        assert sorted(types) == sorted(set(types)) == sorted(helps)

    def test_metrics_carry_every_workers_series_under_a_shard_label(self, tmp_path):
        with ShardSupervisor(2, wal_root=tmp_path / "wal") as supervisor:
            with self._serve(supervisor) as server:
                text = ClusterClient(*server.address).metrics_text()
        self._families_typed_once(text)
        assert_not_torn(text)
        samples = parse_samples(text)
        for shard in ("shard-0", "shard-1"):
            label = f'{{shard="{shard}"'
            for family in ("repro_store_", "repro_wal_", "repro_process_"):
                assert any(label in name for name in samples if name.startswith(family))
            mutations = f'{{shard="{shard}",attribute="hot",op="insert"}}'
            assert samples["repro_store_mutations_total" + mutations] >= 1
        # The edge's own series stay unlabelled beside the workers'.
        assert "repro_process_threads" in samples

    def test_metrics_answer_with_a_worker_down(self, monkeypatch):
        monkeypatch.setattr("repro.cluster.supervisor.MAX_RESTARTS", 0)
        with ShardSupervisor(2) as supervisor:
            with self._serve(supervisor) as server:
                os.kill(supervisor.pid("shard-1"), signal.SIGKILL)
                deadline = time.monotonic() + 10.0
                while supervisor.describe()["shard-1"]["alive"]:
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
                text = ClusterClient(*server.address).metrics_text()
        self._families_typed_once(text)
        threads = [line for line in text.splitlines() if line.startswith("repro_process_threads{")]
        assert len(threads) == 1 and 'shard="shard-0"' in threads[0]

    def test_in_process_shards_sharing_the_registry_gain_no_shard_label(self):
        registry = MetricsRegistry()
        shards = [LocalShard(f"shard-{i}", HistogramStore(metrics=registry)) for i in range(2)]
        coordinator = ClusterCoordinator(shards, metrics=registry)
        coordinator.create("age", "dc", memory_kb=0.5)
        coordinator.ingest("age", insert=[1.0, 2.0])
        with ClusterServer(coordinator, metrics=registry) as server:
            text = ClusterClient(*server.address).metrics_text()
        self._families_typed_once(text)
        assert parse_samples(text)['repro_store_mutations_total{attribute="age",op="insert"}'] == 2
        assert text == federate(text, {})
        assert not any(
            line.startswith(("repro_store_", "repro_process_")) and "shard=" in line
            for line in text.splitlines()
        )

    def test_profile_carries_each_workers_attribution(self):
        with ShardSupervisor(2, profile=True) as supervisor:
            with self._serve(supervisor, profile=True) as server:
                body = ClusterClient(*server.address)._request("GET", "/profile")
        assert "hot_stacks" in body
        assert sorted(body["shards"]) == ["shard-0", "shard-1"]
        for attribution in body["shards"].values():
            assert {"samples", "hot_stacks", "hot_functions"} <= set(attribution)


# ----------------------------------------------------------------------
# client transport telemetry
# ----------------------------------------------------------------------


class TestClientRetryTelemetry:
    def test_connect_retries_counted_in_stats_and_registry(self):
        registry = MetricsRegistry()
        # A fresh ephemeral port that nothing listens on: bind, note, close.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        _, dead_port = probe.getsockname()
        probe.close()

        client = BinaryShardClient(
            "127.0.0.1", dead_port, retries=2, retry_backoff=0.001
        )
        client.bind_metrics(registry)
        with pytest.raises(ShardUnavailableError):
            ProcessShard("shard-0", client)._call("health", {})
        assert client.transport_stats["connect_retries"] == 3  # initial + 2 retries
        assert client.transport_stats["backoff_seconds"] > 0.0
        endpoint = f"127.0.0.1:{dead_port}"
        counter = registry.get("repro_client_connect_retries_total")
        assert counter.value(endpoint=endpoint) == 3
        client.close()


# ----------------------------------------------------------------------
# estimation-accuracy telemetry
# ----------------------------------------------------------------------


class TestAccuracySampler:
    def test_selectivity_error_near_zero_on_exact_shadow(self):
        registry = MetricsRegistry()
        sampler = AccuracySampler(registry, fraction=1.0)
        store = HistogramStore(metrics=registry, accuracy_sampler=sampler)
        store.create("age", "dc", memory_kb=1.0)
        values = [float(v % 40) for v in range(800)]
        store.insert("age", values)
        store.delete("age", [5.0, 6.0])
        response = store.query(
            "age",
            [
                {"op": "range", "low": 0.0, "high": 39.0},
                {"op": "total"},
                {"op": "selectivity", "low": 10.0, "high": 19.0},
            ],
        )
        assert response["results"][1] == pytest.approx(798.0)
        assert sampler.exact_total("age") == 798
        error = registry.get("repro_estimate_selectivity_error")
        summary = error.summary(attribute="age")
        assert summary["count"] == 3
        assert summary["max"] <= 0.02
        # One check per sampled query batch (three errors observed within it).
        checks = registry.get("repro_estimate_accuracy_checks_total")
        assert checks.value(attribute="age") == 1

    def test_overflow_disables_shadow(self):
        registry = MetricsRegistry()
        sampler = AccuracySampler(registry, fraction=1.0, max_values=10)
        store = HistogramStore(metrics=registry, accuracy_sampler=sampler)
        store.create("age", "dc", memory_kb=1.0)
        store.insert("age", [float(v) for v in range(50)])
        assert not sampler.enabled_for("age")
        disabled = registry.get("repro_estimate_accuracy_disabled_total")
        assert disabled.value() == 1
        # Disabled shadows never observe errors.
        store.query("age", [{"op": "total"}])
        error = registry.get("repro_estimate_selectivity_error")
        assert error.summary(attribute="age")["count"] == 0

    def test_fraction_validation(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            AccuracySampler(registry, fraction=1.5)


# ----------------------------------------------------------------------
# exposition escaping + route-template edge cases (PR 8)
# ----------------------------------------------------------------------


class TestExpositionEscaping:
    """Label values must survive the Prometheus text format 0.0.4 rules:
    backslash, double quote and newline are escaped inside quoted values."""

    def _render_with_label(self, value: str) -> str:
        registry = MetricsRegistry()
        counter = registry.counter(
            "esc_total", "escaping probe", labelnames=("victim",)
        )
        counter.inc(1, victim=value)
        return registry.render()

    def test_backslash_is_doubled(self):
        text = self._render_with_label("a\\b")
        assert 'esc_total{victim="a\\\\b"} 1' in text

    def test_double_quote_is_escaped(self):
        text = self._render_with_label('say "hi"')
        assert 'esc_total{victim="say \\"hi\\""} 1' in text

    def test_newline_becomes_backslash_n(self):
        text = self._render_with_label("line1\nline2")
        assert 'esc_total{victim="line1\\nline2"} 1' in text
        # The rendered exposition must stay one-sample-per-line.
        for line in text.splitlines():
            assert line.startswith("#") or line.count('"') % 2 == 0

    def test_combined_hostile_value_renders_parseable(self):
        hostile = 'path\\to\n"thing"'
        text = self._render_with_label(hostile)
        sample_lines = [
            line for line in text.splitlines() if line.startswith("esc_total{")
        ]
        assert len(sample_lines) == 1
        line = sample_lines[0]
        assert "\n" not in line
        assert line.endswith(" 1")

    def test_distribution_labels_escape_in_every_suffix(self):
        registry = MetricsRegistry()
        dist = registry.distribution(
            "esc_seconds", "escaping probe", LATENCY_BUCKETS_S, labelnames=("who",)
        )
        dist.observe(0.001, who='evil"name')
        text = registry.render()
        for suffix in ("_bucket", "_count", "_sum"):
            assert f'esc_seconds{suffix}{{' in text
        assert 'who="evil\\"name"' in text
        # No raw (unescaped) quote sequence leaks through.
        assert 'who="evil"name"' not in text


class TestRouteLabelEdgeCases:
    """The route templater is the metrics layer's cardinality firewall."""

    def test_root_and_single_segments(self):
        assert route_label(()) == "/"
        assert route_label(("health",)) == "/health"
        assert route_label(("metrics",)) == "/metrics"
        assert route_label(("profile",)) == "/profile"

    def test_trailing_slash_equivalence(self):
        # The handlers split on "/" dropping empties, so a trailing slash
        # yields the same tuple; both spellings share one label.
        path_with = tuple(part for part in "/attributes/age/".split("/") if part)
        path_without = tuple(part for part in "/attributes/age".split("/") if part)
        assert route_label(path_with) == route_label(path_without) == "/attributes/{name}"

    def test_percent_encoded_name_segment_is_templated(self):
        # Handlers unquote before routing; whatever the name decodes to, it
        # must vanish into the {name} placeholder.
        from urllib.parse import unquote

        decoded = unquote("we%20ird%2Fname")
        assert route_label(("attributes", decoded, "ingest")) == (
            "/attributes/{name}/ingest"
        )

    def test_unknown_action_cannot_mint_labels(self):
        # Arbitrary third segments must not appear in the label value.
        for action in ("estimate2", "drop-all", "x" * 200, '"};evil'):
            assert route_label(("attributes", "age", action)) == "/other"

    def test_overlong_garbage_collapses(self):
        assert route_label(tuple("abcdefgh")) == "/other"
        assert route_label(("attributes", "a", "estimate", "extra")) == "/other"
        assert route_label(("shards", "shard-0", "explode")) == "/other"

    def test_shard_and_cluster_routes(self):
        assert route_label(("shards", "shard-1", "drain")) == "/shards/{id}/drain"
        assert route_label(("shards", "shard-1", "resync")) == "/shards/{id}/resync"
        assert route_label(("cluster", "stats")) == "/cluster/stats"
        assert route_label(("cluster", "ingest")) == "/cluster/ingest"
        assert route_label(("cluster", "explode")) == "/other"

    def test_heads_with_extra_segments_collapse(self):
        assert route_label(("health", "x")) == "/other"
        assert route_label(("metrics", "x")) == "/other"
