"""Tests for profiling hooks and process self-telemetry (PR 8).

Covers:

* :class:`repro.obs.profile.SamplingProfiler` lifecycle, busy-thread
  attribution (a spinning function must dominate the collapsed stacks) and
  thread-id filtering;
* :mod:`repro.obs.process`: RSS reading and the vitals gauges;
* the ``profile=`` knob and ``GET /profile`` route on both server kinds;
* process self-telemetry riding along on ``GET /metrics`` for both kinds.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import (
    ClusterClient,
    ClusterCoordinator,
    ClusterServer,
    HistogramStore,
    StatisticsClient,
    StatisticsServer,
)
from repro.cluster import LocalShard
from repro.obs import MetricsRegistry, SamplingProfiler
from repro.obs.process import ProcessTelemetry, read_rss_bytes


def _spin_busy(stop: threading.Event) -> None:
    # A distinctive function name the profiler must attribute samples to.
    total = 0
    while not stop.is_set():
        total += sum(range(200))


class TestSamplingProfiler:
    def test_busy_thread_dominates_attribution(self):
        stop = threading.Event()
        worker = threading.Thread(target=_spin_busy, args=(stop,))
        worker.start()
        try:
            with SamplingProfiler(interval_s=0.002) as profiler:
                time.sleep(0.25)
        finally:
            stop.set()
            worker.join()
        attribution = profiler.attribution()
        assert attribution["samples"] >= 10
        functions = [entry["function"] for entry in attribution["hot_functions"]]
        assert any("_spin_busy" in name for name in functions), functions
        # Collapsed stacks are root-first "file:func;..." strings.
        top_stack = attribution["hot_stacks"][0]["stack"]
        assert ";" in top_stack or ":" in top_stack
        assert attribution["hot_stacks"][0]["samples"] <= attribution["samples"]

    def test_lifecycle_idempotent_and_running_flag(self):
        profiler = SamplingProfiler(interval_s=0.005)
        assert not profiler.running
        profiler.start()
        profiler.start()  # idempotent
        assert profiler.running
        profiler.stop()
        profiler.stop()  # idempotent
        assert not profiler.running
        # Elapsed time is preserved across a stop.
        assert profiler.attribution()["elapsed_s"] >= 0.0

    def test_thread_id_filter_excludes_other_threads(self):
        stop = threading.Event()
        worker = threading.Thread(target=_spin_busy, args=(stop,))
        worker.start()
        try:
            profiler = SamplingProfiler(
                interval_s=0.002, thread_ids=frozenset({worker.ident})
            )
            with profiler:
                time.sleep(0.1)
        finally:
            stop.set()
            worker.join()
        attribution = profiler.attribution()
        for entry in attribution["hot_stacks"]:
            assert "_spin_busy" in entry["stack"], entry

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            SamplingProfiler(interval_s=0.0)


class TestProcessTelemetry:
    def test_read_rss_bytes_is_plausible(self):
        rss = read_rss_bytes()
        # The test process maps well over 10 MB and under 100 GB.
        assert rss is not None
        assert 10 * 1024 * 1024 < rss < 100 * 1024 * 1024 * 1024

    def test_update_sets_vitals_gauges(self):
        registry = MetricsRegistry()
        telemetry = ProcessTelemetry(registry)
        telemetry.update()
        text = registry.render()
        assert "repro_process_resident_memory_bytes" in text
        assert 'repro_process_gc_collections{generation="0"}' in text
        assert 'repro_process_gc_collections{generation="2"}' in text
        assert "repro_process_threads" in text
        assert "repro_process_uptime_seconds" in text
        assert "repro_build_info{python=" in text

    def test_reconstruction_over_same_registry_is_safe(self):
        registry = MetricsRegistry()
        ProcessTelemetry(registry)
        ProcessTelemetry(registry).update()  # get-or-create, no duplicate error


class TestServiceServerProfile:
    def test_metrics_carries_process_vitals(self):
        registry = MetricsRegistry()
        store = HistogramStore(metrics=registry)
        with StatisticsServer(store, metrics=registry) as server:
            client = StatisticsClient(*server.address)
            text = client.metrics_text()
        assert "repro_process_resident_memory_bytes" in text
        assert "repro_process_threads" in text
        assert "repro_build_info{python=" in text

    def test_profile_route_404_when_disabled(self):
        with StatisticsServer(HistogramStore()) as server:
            client = StatisticsClient(*server.address)
            from repro.exceptions import ServiceError

            with pytest.raises(ServiceError):
                client._request("GET", "/profile")

    def test_profile_knob_serves_attribution_and_stops_cleanly(self):
        server = StatisticsServer(HistogramStore(), profile=0.002)
        with server:
            client = StatisticsClient(*server.address)
            client.create("age", "dc", memory_kb=0.5)
            client.ingest("age", insert=[float(v % 90) for v in range(5000)])
            time.sleep(0.05)
            profile = client._request("GET", "/profile")
            assert profile["samples"] > 0
            assert profile["interval_s"] == pytest.approx(0.002)
            assert isinstance(profile["hot_stacks"], list)
        assert server.profiler is not None
        assert not server.profiler.running


class TestClusterServerProfile:
    def _cluster(self, registry=None):
        shards = [
            LocalShard("shard-0", HistogramStore(metrics=registry)),
            LocalShard("shard-1", HistogramStore(metrics=registry)),
        ]
        return ClusterCoordinator(shards, metrics=registry)

    def test_metrics_carries_process_vitals(self):
        registry = MetricsRegistry()
        with ClusterServer(self._cluster(registry), metrics=registry) as server:
            client = ClusterClient(*server.address)
            text = client.metrics_text()
        assert "repro_process_resident_memory_bytes" in text
        assert "repro_build_info{python=" in text

    def test_profile_knob_serves_attribution(self):
        server = ClusterServer(self._cluster(), profile=0.002)
        with server:
            client = ClusterClient(*server.address)
            client.create("age", "dc", memory_kb=0.5)
            client.ingest("age", insert=[float(v % 90) for v in range(3000)])
            time.sleep(0.05)
            profile = client._request("GET", "/profile")
            assert profile["samples"] > 0
        assert not server.profiler.running

    def test_profile_route_404_when_disabled(self):
        with ClusterServer(self._cluster()) as server:
            client = ClusterClient(*server.address)
            from repro.exceptions import ServiceError

            with pytest.raises(ServiceError):
                client._request("GET", "/profile")
