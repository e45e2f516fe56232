"""The repository's benchmark harness: an ablation matrix with expected outcomes.

Every **cell** of the matrix flips exactly one knob of a shared workload
body and records throughput plus latency quantiles pulled from the cell's
own :class:`~repro.obs.registry.MetricsRegistry`.  Cells that check
correctness raise when a check fails, whatever the timing:

* ``hist_dc`` / ``hist_dvo`` / ``hist_dado`` -- batched ``insert_many``
  into each histogram class at the same memory budget;
* ``delete_per_value_*`` / ``delete_batched_*`` -- the paper's Figure 17-18
  regime: half of a built DADO or DC histogram deleted one value at a time
  or through ``delete_many``;
* ``wal_off`` / ``wal_on`` / ``wal_fsync`` -- multi-attribute pipeline
  ingest into one store with durability off, WAL on, and WAL + fsync per
  batch; the first ``wal_on`` run must recover bit-identically from its log;
* ``batch_64`` / ``batch_256`` (plus ``wal_off`` as the 1024 point) --
  pipeline ``max_batch`` sweep;
* ``naive_ingest`` -- the same stream through one ``store.insert`` per
  value with per-value maintenance;
* ``metrics_off`` / ``metrics_on`` -- pipeline ingest plus estimate batches
  without and with the observability layer; ``metrics_on`` also checks the
  accuracy shadow's selectivity error once at sampling fraction 1.0;
* ``spawned_shards_1`` / ``spawned_shards_4`` -- cluster scatter-gather
  ingest against REAL worker processes spawned by the shard supervisor,
  reached over the persistent binary transport (the only cells where
  CPU-bound ingest can scale past one core);
* ``read_locked_single`` / ``read_published_single`` -- single-node read
  ablation under sustained ingest: the pre-RCU locked read (the batch
  evaluated under the attribute lock, spelled out in this file) vs the
  lock-free published-snapshot path on one store;
* ``merged_accuracy`` -- merged estimates of a range-partitioned attribute
  (the paper's Section 8 union of the piece views) against one unsharded
  store, within the bound its config states.

Each **row** divides two cells' ``ops_per_sec`` and carries its expected
outcome beside its config; the run prints every row's value, expectation
and ``met`` / ``missed``.  A row with no expectation is recorded only.

The emitted JSON (one file per host) is **schema-versioned** and stamped
with a host fingerprint (python version, numpy version, CPU count).

``--gate`` fails on a missed row that its config gates in this run, and
diffs the cells against the committed baseline for this host's fingerprint
(``benchmarks/baselines/<fingerprint>.json``) within per-metric tolerance
bands, printing a delta table that names the offending cell.  On a host
with no matching baseline the cell comparison **skips with a visible
notice** instead of failing, so CI runs on unpinned hardware stay green
while still uploading their matrix JSON as an artifact.

``--profile`` attaches the stdlib sampling profiler
(:class:`repro.obs.profile.SamplingProfiler`) to every cell and embeds its
collapsed hot-path attribution in the cell's JSON; a separate
``profiler_overhead`` section always measures the sampler's cost on one
cell (target: instrumented throughput >= 0.95x uninstrumented).

Run directly::

    python benchmarks/matrix.py --smoke --gate       # CI shape
    python benchmarks/matrix.py --write-baseline     # refresh the baseline
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import tempfile
import threading
import time
from collections.abc import Callable
from typing import Any

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.cluster import ClusterCoordinator, LocalShard, ShardSupervisor  # noqa: E402
from repro.core import DADOHistogram, DCHistogram, build_dynamic_histogram  # noqa: E402
from repro.obs import (  # noqa: E402
    LATENCY_BUCKETS_S,
    AccuracySampler,
    MetricsRegistry,
    SamplingProfiler,
)
from repro.service import DurabilityConfig, HistogramStore, IngestPipeline  # noqa: E402
from repro.service.store import evaluate_queries  # noqa: E402

SCHEMA_VERSION = 1

BASELINE_DIR = pathlib.Path(__file__).resolve().parent / "baselines"
DEFAULT_OUTPUT = pathlib.Path(__file__).resolve().parents[1] / "BENCH_matrix.json"

#: Latency quantiles every cell reports (upper-bound estimates from the
#: fixed metric buckets -- see ``Distribution.quantiles``).
QUANTILES = (0.5, 0.9, 0.99)

#: Per-metric tolerance bands for the regression gate.  ``min_ratio`` guards
#: throughput-like metrics (current/baseline must stay above it); ``max_ratio``
#: guards latency-like metrics.  The bands are deliberately wide: matrix cells
#: run on shared single-core CI hosts where ordinary scheduling noise moves
#: throughput tens of percent between runs, and the gate's job is to catch a
#: 2x-class regression (ratio 0.5 < 0.55), not a 10% wobble.
GATE_BANDS: dict[str, dict[str, float]] = {
    "ops_per_sec": {"min_ratio": 0.55},
    "latency_p99_s": {"max_ratio": 4.0, "floor": 0.005},
}


# ----------------------------------------------------------------------
# host fingerprint
# ----------------------------------------------------------------------
def host_fingerprint() -> dict[str, Any]:
    return {
        "python": sys.version.split()[0],
        "numpy": str(np.__version__),
        "cpu_count": os.cpu_count() or 1,
    }


def fingerprint_id(fingerprint: dict[str, Any] | None = None) -> str:
    fp = fingerprint if fingerprint is not None else host_fingerprint()
    return f"py{fp['python']}-np{fp['numpy']}-cpu{fp['cpu_count']}"


# ----------------------------------------------------------------------
# workloads shared by the cells
# ----------------------------------------------------------------------
def cluster_values(rng: np.random.Generator, n: int) -> np.ndarray:
    """The paper's cluster-distributed shape: skewed centres plus local noise."""
    centres = rng.choice(np.arange(0, 5000, 250), size=n)
    return (centres + rng.integers(-40, 41, size=n)).astype(float)


def skewed_stream(n: int, seed: int = 11) -> np.ndarray:
    """Cluster-shaped values with occasional out-of-range excursions."""
    rng = np.random.default_rng(seed)
    values = cluster_values(rng, n)
    # A slowly growing tail beyond the current maximum: exercises the
    # borrow-a-bucket path the way a timestamp-like attribute would.
    tail = rng.random(size=n) < 0.002
    values[tail] = 6000.0 + np.cumsum(tail)[tail] * 10.0
    return values


#: (name, kind) pairs of the single-node cells: a mixed catalog, as a real
#: system would hold.
SERVICE_CATALOG = [
    ("age", "dc"),
    ("price", "dc"),
    ("quantity", "dado"),
    ("score", "dvo"),
]


def service_stream(n: int, seed: int) -> list[tuple[str, float]]:
    """Per-value (attribute, value) pairs round-robining over the catalog."""
    values = cluster_values(np.random.default_rng(seed), n)
    names = [SERVICE_CATALOG[i % len(SERVICE_CATALOG)][0] for i in range(n)]
    return list(zip(names, values, strict=True))


def service_store(registry: MetricsRegistry | None = None, **options: Any) -> HistogramStore:
    store = HistogramStore(metrics=registry, **options)
    for name, kind in SERVICE_CATALOG:
        store.create(name, kind, memory_kb=0.5)
    return store


def check_store_conservation(store: HistogramStore, n_values: int) -> None:
    total = sum(store.total_count(name) for name, _ in SERVICE_CATALOG)
    if abs(total - n_values) > 1e-6 * max(1.0, n_values):
        raise AssertionError(f"ingest lost values: store holds {total}, expected {n_values}")


#: (name, kind) pairs of the cluster cells, plus one hot attribute
#: range-partitioned over every shard.
CLUSTER_CATALOG = [
    ("age", "dc"),
    ("price", "dc"),
    ("quantity", "dado"),
    ("score", "dvo"),
    ("weight", "dc"),
    ("rating", "dvo"),
    ("views", "dc"),
    ("clicks", "dado"),
]
HOT = "hot"
DOMAIN = (0.0, 5000.0)


def domain_values(rng: np.random.Generator, n: int) -> np.ndarray:
    """:func:`cluster_values` clipped to the partitioned attribute's domain."""
    return np.clip(cluster_values(rng, n), *DOMAIN)


def create_cluster_catalog(coordinator: ClusterCoordinator, n_shards: int) -> None:
    for index, (name, kind) in enumerate(CLUSTER_CATALOG):
        # Deal the catalog round-robin via assignment overrides: the cells
        # measure scatter-gather scaling, which a skewed hash of only 8
        # names would confound (operators balance small catalogs the same
        # way; the hash ring is for populations, not samples of 8).
        coordinator.router.assign(name, f"shard-{index % n_shards}")
        coordinator.create(name, kind, memory_kb=0.5)
    low, high = DOMAIN
    boundaries = [low + (high - low) * piece / n_shards for piece in range(1, n_shards)]
    coordinator.create(HOT, "dc", memory_kb=0.5, partition_boundaries=boundaries)


def check_cluster_conservation(coordinator: ClusterCoordinator, expected: float) -> None:
    names = [name for name, _ in CLUSTER_CATALOG] + [HOT]
    total = sum(coordinator.total_count(name) for name in names)
    if abs(total - expected) > 1e-6 * max(1.0, expected):
        raise AssertionError(f"ingest lost values: cluster holds {total}, expected {expected}")


# ----------------------------------------------------------------------
# cell bodies -- each returns {"ops_per_sec": ..., "latency_*": ...,
# "detail": {...}} and flips exactly one knob of a shared workload
# ----------------------------------------------------------------------
def _quantile_block(registry: MetricsRegistry, metric: str, **labels: str) -> dict:
    dist = registry.get(metric)
    values = dist.quantiles(QUANTILES, **labels)
    return {
        f"latency_p{int(q * 100)}_s": round(value, 6)
        for q, value in zip(QUANTILES, values, strict=True)
    }


def run_histogram_cell(config: dict, sizes: dict) -> dict:
    """Batched inserts into one histogram class (knob: the class)."""
    n_values = sizes["hist_values"]
    values = skewed_stream(n_values)
    batch = 1024
    registry = MetricsRegistry()
    lat = registry.distribution(
        "matrix_hist_batch_seconds",
        "Per-batch insert_many latency inside one matrix cell",
        LATENCY_BUCKETS_S,
    )

    def run() -> None:
        histogram = build_dynamic_histogram(config["klass"], memory_kb=0.5)
        for start in range(0, n_values, batch):
            chunk = values[start : start + batch]
            t0 = time.perf_counter()
            histogram.insert_many(chunk, repartition_interval=16)
            lat.observe(time.perf_counter() - t0)

    best = float("inf")
    for _ in range(sizes["repeats"]):
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    return {
        "ops_per_sec": round(n_values / best, 1),
        **_quantile_block(registry, "matrix_hist_batch_seconds"),
        "detail": {"histogram": config["klass"], "values": n_values, "batch": batch},
    }


def run_delete_cell(config: dict, sizes: dict) -> dict:
    """Delete half of a built histogram's values (knobs: class, per value or batched).

    The deletions are a shuffle of values inserted before, taken 1024 at a
    time: ``batched`` hands each chunk to ``delete_many``; otherwise every
    value goes through ``delete``, the loop every layer used before the
    batched path existed.  Only the deletes are timed, and every run must
    end holding exactly the values it did not delete.
    """
    n_values = sizes["delete_values"]
    n_buckets = sizes["delete_buckets"]
    histogram_class = {"dado": DADOHistogram, "dc": DCHistogram}[config["klass"]]
    batched = config["batched"]
    values = skewed_stream(n_values)
    deletions = np.random.default_rng(17).permutation(values)[: n_values // 2]
    chunk = 1024
    registry = MetricsRegistry()
    lat = registry.distribution(
        "matrix_delete_chunk_seconds",
        "Latency of deleting one 1024-value chunk inside one matrix cell",
        LATENCY_BUCKETS_S,
    )

    best = float("inf")
    for _ in range(sizes["repeats"]):
        histogram = histogram_class(n_buckets)
        histogram.insert_many(values, repartition_interval=16)
        start = time.perf_counter()
        for offset in range(0, len(deletions), chunk):
            part = deletions[offset : offset + chunk]
            t0 = time.perf_counter()
            if batched:
                histogram.delete_many(part)
            else:
                for value in part:
                    histogram.delete(value)
            lat.observe(time.perf_counter() - t0)
        best = min(best, time.perf_counter() - start)
        remaining = n_values - len(deletions)
        if abs(histogram.total_count - remaining) > 1e-6 * remaining:
            raise AssertionError(
                f"deletes lost mass: histogram holds {histogram.total_count}, "
                f"expected {remaining}"
            )
    return {
        "ops_per_sec": round(len(deletions) / best, 1),
        **_quantile_block(registry, "matrix_delete_chunk_seconds"),
        "detail": {
            "histogram": config["klass"],
            "batched": batched,
            "buckets": n_buckets,
            "values": n_values,
            "deletes": len(deletions),
        },
    }


def check_recovery(store: HistogramStore, wal_dir: str) -> None:
    """A store recovered from ``wal_dir`` must equal ``store`` bit for bit."""
    recovered = HistogramStore.recover(wal_dir)
    try:
        if recovered.snapshot_all() != store.snapshot_all():
            raise AssertionError("recovered store differs from the ingested one")
    finally:
        recovered.close()


def run_service_cell(config: dict, sizes: dict) -> dict:
    """Multi-attribute ingest into one store (knobs: WAL mode, max_batch, ingest path).

    The pipeline path submits each value to an :class:`IngestPipeline`,
    which flushes per attribute through ``insert_many``; ``ingest: "naive"``
    calls ``store.insert`` once per value with per-value maintenance
    (``repartition_interval=1``).  The first ``wal: "on"`` run is recovered
    from its log outside the timed window.
    """
    n_values = sizes["service_values"]
    max_batch = config.get("max_batch", 1024)
    wal = config.get("wal", "off")  # off | on | fsync
    naive = config.get("ingest") == "naive"
    stream = service_stream(n_values, seed=33)

    def run(wal_dir: str | None) -> tuple[HistogramStore, MetricsRegistry]:
        registry = MetricsRegistry()
        durability = None
        if wal_dir is not None:
            durability = DurabilityConfig(wal_dir, fsync=(wal == "fsync"))
        store = service_store(registry, durability=durability)
        if naive:
            insert = store.insert
            for name, value in stream:
                insert(name, (value,), repartition_interval=1)
        else:
            pipeline = IngestPipeline(
                store, max_batch=max_batch, repartition_interval=64, metrics=registry
            )
            with pipeline:
                submit = pipeline.submit
                for name, value in stream:
                    submit(name, (value,))
        check_store_conservation(store, n_values)
        store.close()
        return store, registry

    best = float("inf")
    registry = MetricsRegistry()
    for repeat in range(sizes["repeats"]):
        with tempfile.TemporaryDirectory(prefix="repro-matrix-wal-") as wal_dir:
            t0 = time.perf_counter()
            store, registry = run(None if wal == "off" else wal_dir)
            best = min(best, time.perf_counter() - t0)
            if wal == "on" and repeat == 0:
                check_recovery(store, wal_dir)
    return {
        "ops_per_sec": round(n_values / best, 1),
        **_quantile_block(registry, "repro_store_op_seconds", op="insert"),
        "detail": {
            "wal": wal,
            "max_batch": max_batch,
            "ingest": "naive" if naive else "pipeline",
            "values": n_values,
        },
    }


def check_selectivity_error(registry: MetricsRegistry, max_mean: float) -> dict:
    """The accuracy shadow checked some estimates, with mean error <= ``max_mean``.

    Tail errors are the histograms' approximation error (0.5 KB budgets),
    which the telemetry reports faithfully; the accuracy bar is the mean.
    """
    error_metric = registry.get("repro_estimate_selectivity_error")
    summaries = [error_metric.summary(attribute=name) for name, _ in SERVICE_CATALOG]
    checks = sum(summary["count"] for summary in summaries)
    if checks == 0:
        raise AssertionError("accuracy sampler observed no estimate errors")
    mean = sum(summary["sum"] for summary in summaries) / checks
    if mean > max_mean:
        raise AssertionError(
            f"mean selectivity error {mean:.4f} exceeds the {max_mean} accuracy target"
        )
    return {
        "accuracy_checks": int(checks),
        "selectivity_error_mean": round(mean, 5),
        "selectivity_error_max": round(max(summary["max"] for summary in summaries), 5),
    }


def run_metrics_cell(config: dict, sizes: dict) -> dict:
    """Pipeline ingest plus 200 three-op estimate batches (knob: the obs layer).

    ``metrics: True`` gives the store and pipeline a registry and an
    accuracy sampler replaying 5% of estimate batches against an exact
    shadow, the ``--accuracy-sample`` deployment shape.  With
    ``max_mean_selectivity_error`` set, the cell first runs once, untimed,
    at sampling fraction 1.0 so that every query is checked.
    """
    n_values = sizes["service_values"]
    instrumented = config["metrics"]
    stream = service_stream(n_values, seed=55)
    n_queries = 200
    query_names = [SERVICE_CATALOG[i % len(SERVICE_CATALOG)][0] for i in range(n_queries)]
    # Cell-local: the latency series must not instrument the store.
    timing = MetricsRegistry()
    lat = timing.distribution(
        "matrix_estimate_batch_seconds",
        "Per-batch estimate latency inside one matrix cell",
        LATENCY_BUCKETS_S,
    )

    def run(registry: MetricsRegistry | None, fraction: float) -> None:
        sampler = None
        if registry is not None:
            sampler = AccuracySampler(registry, fraction=fraction, max_values=2 * n_values)
        store = service_store(registry, accuracy_sampler=sampler)
        pipeline = IngestPipeline(store, max_batch=1024, repartition_interval=64, metrics=registry)
        with pipeline:
            submit = pipeline.submit
            for name, value in stream:
                submit(name, (value,))
        rng = np.random.default_rng(77)
        for name in query_names:
            low = float(rng.uniform(0, 4000))
            t0 = time.perf_counter()
            store.query(
                name,
                [
                    {"op": "range", "low": low, "high": low + 300.0},
                    {"op": "selectivity", "low": low, "high": low + 300.0},
                    {"op": "total"},
                ],
            )
            lat.observe(time.perf_counter() - t0)
        check_store_conservation(store, n_values)

    detail: dict[str, Any] = {"metrics": instrumented, "values": n_values, "queries": n_queries}
    max_mean = config.get("max_mean_selectivity_error")
    if max_mean is not None:
        exhaustive = MetricsRegistry()
        run(exhaustive, fraction=1.0)
        detail.update(check_selectivity_error(exhaustive, max_mean))

    best = float("inf")
    for _ in range(sizes["repeats"]):
        t0 = time.perf_counter()
        run(MetricsRegistry() if instrumented else None, fraction=0.05)
        best = min(best, time.perf_counter() - t0)
    return {
        "ops_per_sec": round(n_values / best, 1),
        **_quantile_block(timing, "matrix_estimate_batch_seconds"),
        "detail": detail,
    }


def drive_cluster_ingest(coordinator: ClusterCoordinator, sizes: dict) -> dict:
    """Writer threads send ``ingest_batch`` calls while readers query throughout.

    Each call carries a chunk for every catalog attribute plus a larger one
    for the partitioned attribute; every tenth read is a merged read of it.
    """
    n_writers = sizes["cluster_writers"]
    n_readers = sizes["cluster_readers"]
    catalog_chunk = sizes["catalog_chunk"]
    hot_chunk = sizes["hot_chunk"]
    calls_per_writer = sizes["spawned_calls"] // n_writers
    values_per_call = len(CLUSTER_CATALOG) * catalog_chunk + hot_chunk
    queries_served = [0] * n_readers
    stop = threading.Event()
    errors: list = []

    # Value streams are generated before the clock starts: the cells
    # measure the cluster's ingest path, not numpy sampling.
    def make_calls(index: int) -> list[dict[str, list[float]]]:
        rng = np.random.default_rng(1000 + index)
        calls = []
        for _ in range(calls_per_writer):
            items = {
                name: domain_values(rng, catalog_chunk).tolist() for name, _ in CLUSTER_CATALOG
            }
            items[HOT] = domain_values(rng, hot_chunk).tolist()
            calls.append(items)
        return calls

    prepared = [make_calls(index) for index in range(n_writers)]

    def writer(index: int) -> None:
        try:
            for items in prepared[index]:
                coordinator.ingest_batch(items)
        except Exception as error:  # pragma: no cover - failure reporting
            errors.append(error)

    def reader(index: int) -> None:
        rng = np.random.default_rng(2000 + index)
        served = 0
        try:
            while not stop.is_set():
                if served % 10 == 9:
                    # A merged read of the partitioned attribute (with
                    # writes in flight this is a full rebuild).
                    coordinator.query(HOT, [{"op": "total"}])
                else:
                    name = CLUSTER_CATALOG[served % len(CLUSTER_CATALOG)][0]
                    low = float(rng.uniform(0, 4000))
                    coordinator.query(
                        name,
                        [{"op": "range", "low": low, "high": low + 500.0}, {"op": "total"}],
                    )
                served += 1
                time.sleep(0.005)
        except Exception as error:  # pragma: no cover - failure reporting
            errors.append(error)
        queries_served[index] = served

    writers = [threading.Thread(target=writer, args=(i,)) for i in range(n_writers)]
    readers = [threading.Thread(target=reader, args=(i,)) for i in range(n_readers)]
    start = time.perf_counter()
    for thread in readers + writers:
        thread.start()
    for thread in writers:
        thread.join()
    elapsed = time.perf_counter() - start
    stop.set()
    for thread in readers:
        thread.join()
    if errors:
        raise AssertionError(f"cluster ingest failed: {errors[0]!r}")

    ingested = calls_per_writer * n_writers * values_per_call
    check_cluster_conservation(coordinator, ingested)
    return {
        "ingested_values": ingested,
        "ingest_per_sec": round(ingested / elapsed, 1),
        "queries_per_sec": round(sum(queries_served) / elapsed, 1),
    }


def run_cluster_spawned_cell(config: dict, sizes: dict) -> dict:
    """Cluster scatter-gather ingest against REAL spawned workers.

    Each shard is an OS process behind the binary transport (knob: how
    many).  On a multi-core host this is the cell where CPU-bound ingest
    scales; on one core it records the transport's honest overhead.
    """
    registry = MetricsRegistry()
    # No WAL: the cell measures the transport and multi-process apply path.
    with ShardSupervisor(config["shards"]) as supervisor:
        coordinator = ClusterCoordinator(supervisor.start(), metrics=registry)
        create_cluster_catalog(coordinator, config["shards"])
        result = drive_cluster_ingest(coordinator, sizes)
    quantiles = _quantile_block(registry, "repro_cluster_fanout_seconds", shard="shard-0")
    return {
        "ops_per_sec": result["ingest_per_sec"],
        **quantiles,
        "detail": {
            "shards": config["shards"],
            "transport": "spawned processes, binary frames over persistent TCP",
            "host_cpu_count": os.cpu_count() or 1,
            "ingested_values": result["ingested_values"],
            "queries_per_sec": result["queries_per_sec"],
        },
    }


def run_store_read_cell(config: dict, sizes: dict) -> dict:
    """Single-node read ablation under sustained ingest (knob: read path).

    One store, one hot attribute, writer threads inserting batches without
    pause for the whole window; reader threads tight-loop two-query estimate
    batches.  ``read_path: "published"`` serves from the store's lock-free
    published snapshot (the production ``query`` path); ``read_path:
    "locked"`` evaluates the batch under the per-attribute lock, so it
    queues behind every in-flight insert batch -- the pre-RCU behaviour.
    """
    locked = config["read_path"] == "locked"
    duration = sizes["read_duration_s"]
    # Enough writers that the per-attribute lock's wait queue never drains:
    # a locked reader then waits behind a convoy of insert batches (the
    # pre-RCU contention), while published readers only share the GIL.
    n_writers, n_readers = 4, 2
    registry = MetricsRegistry()
    lat = registry.distribution(
        "matrix_read_query_seconds",
        "Per-batch estimate-query latency inside one matrix read cell",
        LATENCY_BUCKETS_S,
    )
    store = HistogramStore(metrics=registry)
    store.create("hot", "dc", memory_kb=0.5)
    rng = np.random.default_rng(5)
    store.insert("hot", domain_values(rng, 4_000).tolist())

    stop = threading.Event()
    errors: list = []
    written = [0] * n_writers
    served = [0] * n_readers
    chunk = sizes["read_write_chunk"]

    def writer(index: int) -> None:
        wrng = np.random.default_rng(100 + index)
        batches = [domain_values(wrng, chunk).tolist() for _ in range(8)]
        calls = 0
        try:
            while not stop.is_set():
                store.insert("hot", batches[calls % len(batches)])
                calls += 1
        except Exception as error:  # pragma: no cover - failure reporting
            errors.append(error)
        written[index] = calls * chunk

    def reader(index: int) -> None:
        rrng = np.random.default_rng(200 + index)
        lows = rrng.uniform(0.0, 4000.0, size=256)
        count = 0
        try:
            while not stop.is_set():
                low = float(lows[count % len(lows)])
                queries = [
                    {"op": "range", "low": low, "high": low + 500.0},
                    {"op": "total"},
                ]
                t0 = time.perf_counter()
                if locked:
                    attribute = store._attribute("hot")
                    with attribute.lock:
                        evaluate_queries(attribute.histogram, queries)
                else:
                    store.query("hot", queries)
                lat.observe(time.perf_counter() - t0)
                count += 1
        except Exception as error:  # pragma: no cover - failure reporting
            errors.append(error)
        served[index] = count

    threads = [threading.Thread(target=writer, args=(i,)) for i in range(n_writers)]
    threads += [threading.Thread(target=reader, args=(i,)) for i in range(n_readers)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    time.sleep(duration)
    stop.set()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise AssertionError(f"store read cell failed: {errors[0]!r}")
    expected = 4_000 + sum(written)
    total = store.total_count("hot")
    if abs(total - expected) > 1e-6 * expected:
        raise AssertionError(f"read cell lost values: {total} != {expected}")
    store.close()
    return {
        "ops_per_sec": round(sum(served) / elapsed, 1),
        **_quantile_block(registry, "matrix_read_query_seconds"),
        "detail": {
            "read_path": config["read_path"],
            "reads_served": int(sum(served)),
            "writer_values_per_sec": round(sum(written) / elapsed, 1),
            "duration_s": round(elapsed, 3),
        },
    }


def run_merged_accuracy_cell(config: dict, sizes: dict) -> dict:
    """Merged estimates of a range-partitioned attribute against one unsharded store.

    The hot attribute is partitioned over 4 in-process shards and answered
    from the Section 8 union of the piece views; a single store fed the same
    values answers the same random windows.  Every window's two answers
    must differ by at most ``max_error`` of the total count.  ``values`` and
    ``windows`` hold under ``--smoke`` too: at 20,000 values the unsharded
    store's own error (about 0.02 of the total against exact counts)
    dominates the difference.  ``ops_per_sec`` is the coordinator's ingest
    rate; the latency quantiles are those of the merged range estimates.
    """
    n_values, n_windows, bound = config["values"], config["windows"], config["max_error"]
    rng = np.random.default_rng(42)
    values = domain_values(rng, n_values)
    coordinator = ClusterCoordinator([LocalShard(f"shard-{index}") for index in range(4)])
    create_cluster_catalog(coordinator, 4)
    start = time.perf_counter()
    coordinator.ingest(HOT, insert=values.tolist())
    ingest_s = time.perf_counter() - start
    check_cluster_conservation(coordinator, n_values)

    reference = HistogramStore()
    reference.create(HOT, "dc", memory_kb=0.5)
    reference.insert(HOT, values.tolist())

    registry = MetricsRegistry()
    lat = registry.distribution(
        "matrix_merged_estimate_seconds",
        "Per-window merged estimate latency inside the merged accuracy cell",
        LATENCY_BUCKETS_S,
    )
    total = float(n_values)
    lows = rng.uniform(DOMAIN[0], DOMAIN[1] - 100.0, size=n_windows)
    widths = rng.uniform(50.0, 2000.0, size=n_windows)
    vs_reference, merged_vs_exact, reference_vs_exact = [], [], []
    for low, width in zip(lows, widths, strict=True):
        high = min(low + width, DOMAIN[1])
        t0 = time.perf_counter()
        merged = coordinator.estimate_range(HOT, low, high)
        lat.observe(time.perf_counter() - t0)
        single = reference.estimate_range(HOT, low, high)
        exact = float(((values >= low) & (values <= high)).sum())
        vs_reference.append(abs(merged - single) / total)
        merged_vs_exact.append(abs(merged - exact) / total)
        reference_vs_exact.append(abs(single - exact) / total)

    worst = max(vs_reference)
    if worst > bound:
        raise AssertionError(
            f"merged estimates drifted {worst:.4f} of total from the unsharded "
            f"reference (bound {bound})"
        )
    return {
        "ops_per_sec": round(n_values / ingest_s, 1),
        **_quantile_block(registry, "matrix_merged_estimate_seconds"),
        "detail": {
            "values": n_values,
            "windows": n_windows,
            "max_error_vs_unsharded": round(worst, 6),
            "mean_error_vs_unsharded": round(float(np.mean(vs_reference)), 6),
            "max_error_vs_exact": {
                "merged": round(max(merged_vs_exact), 6),
                "unsharded": round(max(reference_vs_exact), 6),
            },
        },
    }


#: The ablation matrix: cell name -> runner kind and config.  Each config
#: flips exactly one knob relative to that kind's base cell, and a cell
#: whose checks take a bound states it here.
CELLS: dict[str, dict[str, Any]] = {
    "hist_dc": {"kind": "histogram", "klass": "dc"},
    "hist_dvo": {"kind": "histogram", "klass": "dvo"},
    "hist_dado": {"kind": "histogram", "klass": "dado"},
    "delete_per_value_dado": {"kind": "delete", "klass": "dado", "batched": False},
    "delete_batched_dado": {"kind": "delete", "klass": "dado", "batched": True},
    "delete_per_value_dc": {"kind": "delete", "klass": "dc", "batched": False},
    "delete_batched_dc": {"kind": "delete", "klass": "dc", "batched": True},
    "wal_off": {"kind": "service", "wal": "off", "max_batch": 1024},
    "wal_on": {"kind": "service", "wal": "on", "max_batch": 1024},
    "wal_fsync": {"kind": "service", "wal": "fsync", "max_batch": 1024},
    "batch_64": {"kind": "service", "wal": "off", "max_batch": 64},
    "batch_256": {"kind": "service", "wal": "off", "max_batch": 256},
    "naive_ingest": {"kind": "service", "wal": "off", "ingest": "naive"},
    "metrics_off": {"kind": "metrics", "metrics": False},
    "metrics_on": {"kind": "metrics", "metrics": True, "max_mean_selectivity_error": 0.02},
    "spawned_shards_1": {"kind": "cluster_spawned", "shards": 1},
    "spawned_shards_4": {"kind": "cluster_spawned", "shards": 4},
    "read_locked_single": {"kind": "store_read", "read_path": "locked"},
    "read_published_single": {"kind": "store_read", "read_path": "published"},
    "merged_accuracy": {
        "kind": "merged_accuracy",
        "values": 80_000,
        "windows": 50,
        # Largest allowed |merged - unsharded| per window, as a fraction of
        # the total count.  tests/test_replication_properties.py reads it.
        "max_error": 0.02,
    },
}

RUNNERS: dict[str, Callable[[dict, dict], dict]] = {
    "histogram": run_histogram_cell,
    "delete": run_delete_cell,
    "service": run_service_cell,
    "metrics": run_metrics_cell,
    "cluster_spawned": run_cluster_spawned_cell,
    "store_read": run_store_read_cell,
    "merged_accuracy": run_merged_accuracy_cell,
}

#: Derived rows: name -> the (numerator, denominator) cells whose
#: ``ops_per_sec`` it divides, and ``at_least``, the ratio the row expects
#: (``None``: recorded only).  A missed row is reported; it fails ``--gate``
#: only when ``gated_from_cpus`` is set, the host has at least that many
#: CPUs and the run is not ``--smoke``.
ROWS: dict[str, dict[str, Any]] = {
    "wal_overhead_on_vs_off": {"cells": ("wal_on", "wal_off"), "at_least": 0.5},
    "fsync_overhead_vs_wal_on": {"cells": ("wal_fsync", "wal_on"), "at_least": None},
    "batch_scaling_1024_vs_64": {"cells": ("wal_off", "batch_64"), "at_least": None},
    "batched_vs_naive_ingest": {"cells": ("wal_off", "naive_ingest"), "at_least": 5.0},
    "metrics_overhead_on_vs_off": {"cells": ("metrics_on", "metrics_off"), "at_least": 0.95},
    "delete_batching_dado": {
        "cells": ("delete_batched_dado", "delete_per_value_dado"),
        "at_least": 5.0,
    },
    "delete_batching_dc": {
        "cells": ("delete_batched_dc", "delete_per_value_dc"),
        "at_least": None,
    },
    "spawned_scaling_4_vs_1": {
        "cells": ("spawned_shards_4", "spawned_shards_1"),
        "at_least": 2.5,
        # 4 workers can only outrun 1 where 4 cores run them, and smoke
        # sizes are too short to show it.
        "gated_from_cpus": 4,
    },
    "read_unlock_speedup": {
        "cells": ("read_published_single", "read_locked_single"),
        "at_least": None,
    },
}


def matrix_sizes(smoke: bool) -> dict[str, float]:
    if smoke:
        return {
            "hist_values": 20_000,
            "delete_values": 4_000,
            "delete_buckets": 32,
            "service_values": 6_000,
            "catalog_chunk": 128,
            "hot_chunk": 512,
            "cluster_writers": 2,
            "cluster_readers": 1,
            "spawned_calls": 8,
            "repeats": 2,
            "read_duration_s": 0.5,
            "read_write_chunk": 4_000,
        }
    return {
        "hist_values": 80_000,
        "delete_values": 40_000,
        "delete_buckets": 64,
        "service_values": 30_000,
        "catalog_chunk": 256,
        "hot_chunk": 1024,
        "cluster_writers": 3,
        "cluster_readers": 1,
        "spawned_calls": 24,
        "repeats": 3,
        "read_duration_s": 1.5,
        "read_write_chunk": 4_000,
    }


# ----------------------------------------------------------------------
# matrix runner
# ----------------------------------------------------------------------
def run_cell(
    name: str,
    sizes: dict,
    *,
    profile: bool = False,
    profile_interval_s: float = 0.005,
) -> dict:
    config = CELLS[name]
    runner = RUNNERS[config["kind"]]
    profiler = SamplingProfiler(profile_interval_s) if profile else None
    if profiler is not None:
        profiler.start()
    start = time.perf_counter()
    try:
        result = runner(config, sizes)
    finally:
        if profiler is not None:
            profiler.stop()
    # The whole cell, set-up and checks included: which cell ate a slow run.
    result["wall_s"] = round(time.perf_counter() - start, 6)
    if profiler is not None:
        result["profile"] = profiler.attribution(top=8)
    return result


def bench_profiler_overhead(sizes: dict) -> dict:
    """The sampler's cost on one CPU-bound cell (target: >= 0.95x)."""
    plain = run_cell("hist_dc", sizes)
    profiled = run_cell("hist_dc", sizes, profile=True)
    ratio = round(profiled["ops_per_sec"] / plain["ops_per_sec"], 3)
    return {
        "cell": "hist_dc",
        "uninstrumented_per_sec": plain["ops_per_sec"],
        "instrumented_per_sec": profiled["ops_per_sec"],
        "instrumented_over_plain_ratio": ratio,
        "target_ratio": ">= 0.95",
        "status": "met" if ratio >= 0.95 else "missed",
        "profile_samples": profiled["profile"]["samples"],
    }


def evaluate_rows(cells: dict, *, smoke: bool, cpu_count: int) -> dict:
    """Every row whose two cells ran: value, expectation, outcome, and whether it gates."""
    rows: dict[str, dict] = {}
    for name, row in ROWS.items():
        numerator, denominator = row["cells"]
        if numerator not in cells or denominator not in cells:
            continue
        value = round(cells[numerator]["ops_per_sec"] / cells[denominator]["ops_per_sec"], 3)
        at_least = row["at_least"]
        status = "recorded"
        if at_least is not None:
            status = "met" if value >= at_least else "missed"
        gated_from = row.get("gated_from_cpus")
        rows[name] = {
            "cells": [numerator, denominator],
            "value": value,
            "expect": None if at_least is None else f">= {at_least:g}",
            "status": status,
            "gated": gated_from is not None and not smoke and cpu_count >= gated_from,
        }
    return rows


def format_rows(rows: dict) -> str:
    """One line per row: name, value, expectation and outcome."""
    if not rows:
        return "(no rows: a row needs both of its cells)"
    table = [("row", "value", "expect", "outcome")]
    for name, row in rows.items():
        outcome = row["status"]
        if outcome == "missed" and not row["gated"]:
            outcome += " (report only)"
        table.append((name, f"{row['value']:g}", row["expect"] or "-", outcome))
    widths = [max(len(line[i]) for line in table) for i in range(len(table[0]))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths, strict=True)).rstrip()
        for line in table
    )


def run_matrix(
    *,
    smoke: bool,
    profile: bool = False,
    cells: list[str] | None = None,
    sizes: dict | None = None,
) -> dict:
    sizes = sizes if sizes is not None else matrix_sizes(smoke)
    selected = cells if cells is not None else list(CELLS)
    unknown = sorted(set(selected) - set(CELLS))
    if unknown:
        raise SystemExit(f"unknown matrix cells: {', '.join(unknown)}")
    results: dict[str, dict] = {}
    for name in selected:
        print(f"[matrix] running cell {name} ...", file=sys.stderr)
        results[name] = run_cell(name, sizes, profile=profile)
    fingerprint = host_fingerprint()
    report: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "benchmark": "matrix",
        "smoke": bool(smoke),
        "fingerprint": fingerprint,
        "fingerprint_id": fingerprint_id(fingerprint),
        "cells": results,
        "rows": evaluate_rows(results, smoke=smoke, cpu_count=fingerprint["cpu_count"]),
    }
    if cells is None:
        # The overhead section needs the full hist_dc cell; only meaningful
        # (and comparable) on complete runs.
        report["profiler_overhead"] = bench_profiler_overhead(sizes)
    return report


# ----------------------------------------------------------------------
# regression gate
# ----------------------------------------------------------------------
def gate_compare(current: dict, baseline: dict) -> tuple[list[dict], list[str]]:
    """Diff two matrix reports; returns (delta rows, failure descriptions).

    Every baseline cell must exist in the current run (a vanished cell is a
    regression by definition), and every gated metric must stay inside its
    band relative to the baseline value.
    """
    rows: list[dict] = []
    failures: list[str] = []
    for cell, base in baseline.get("cells", {}).items():
        cur = current.get("cells", {}).get(cell)
        if cur is None:
            failures.append(f"cell {cell}: present in baseline but missing from run")
            continue
        for metric, band in GATE_BANDS.items():
            base_value = base.get(metric)
            cur_value = cur.get(metric)
            if base_value is None or cur_value is None:
                continue
            floor = band.get("floor", 0.0)
            if "max_ratio" in band and base_value <= floor and cur_value <= floor:
                # Both sides below the noise floor: sub-bucket latencies on
                # a fast host carry no regression signal.
                rows.append(_delta_row(cell, metric, base_value, cur_value, band, "ok"))
                continue
            reference = max(base_value, floor) if "max_ratio" in band else base_value
            if reference == 0:
                continue
            ratio = cur_value / reference
            ok = True
            if "min_ratio" in band and ratio < band["min_ratio"]:
                ok = False
            if "max_ratio" in band and ratio > band["max_ratio"]:
                ok = False
            status = "ok" if ok else "FAIL"
            rows.append(_delta_row(cell, metric, base_value, cur_value, band, status))
            if not ok:
                bound = band.get("min_ratio", band.get("max_ratio"))
                kind = "min" if "min_ratio" in band else "max"
                failures.append(
                    f"cell {cell}: {metric} ratio {ratio:.3f} breaches "
                    f"{kind}_ratio {bound} (baseline {base_value}, current {cur_value})"
                )
    return rows, failures


def _delta_row(
    cell: str, metric: str, base: float, cur: float, band: dict, status: str
) -> dict:
    return {
        "cell": cell,
        "metric": metric,
        "baseline": base,
        "current": cur,
        "ratio": round(cur / base, 3) if base else None,
        "band": band,
        "status": status,
    }


def format_delta_table(rows: list[dict]) -> str:
    if not rows:
        return "(no comparable metrics)"
    header = ("cell", "metric", "baseline", "current", "ratio", "status")
    table = [header]
    for row in rows:
        table.append(
            (
                row["cell"],
                row["metric"],
                f"{row['baseline']:g}",
                f"{row['current']:g}",
                "n/a" if row["ratio"] is None else f"{row['ratio']:.3f}",
                row["status"],
            )
        )
    widths = [max(len(line[i]) for line in table) for i in range(len(header))]
    lines = []
    for index, line in enumerate(table):
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(line, widths, strict=True)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def run_gate(current: dict, baseline_dir: pathlib.Path) -> int:
    """Fail on a missed gated row, then compare against this host's baseline.

    Returns the process exit code: 0 on pass or skip, 1 on a missed gated
    row or a regression.
    """
    missed = [
        f"row {name}: {row['value']:g} misses its expected {row['expect']}"
        for name, row in current["rows"].items()
        if row["gated"] and row["status"] == "missed"
    ]
    if missed:
        print(f"[matrix] GATE FAILED ({len(missed)} missed row(s)):", file=sys.stderr)
        for failure in missed:
            print(f"  - {failure}", file=sys.stderr)
    return max(int(bool(missed)), _gate_against_baseline(current, baseline_dir))


def _gate_against_baseline(current: dict, baseline_dir: pathlib.Path) -> int:
    baseline_path = baseline_dir / f"{current['fingerprint_id']}.json"
    if not baseline_path.exists():
        print(
            f"[matrix] GATE SKIPPED: no baseline for fingerprint "
            f"{current['fingerprint_id']!r} under {baseline_dir} -- matrix JSON "
            "recorded but not gated on this host",
            file=sys.stderr,
        )
        return 0
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    if baseline.get("schema_version") != current["schema_version"]:
        print(
            f"[matrix] GATE SKIPPED: baseline schema v{baseline.get('schema_version')}"
            f" != current v{current['schema_version']} -- rewrite the baseline",
            file=sys.stderr,
        )
        return 0
    if bool(baseline.get("smoke")) != bool(current.get("smoke")):
        print(
            "[matrix] GATE SKIPPED: baseline and current runs used different "
            "sizes (smoke flag mismatch)",
            file=sys.stderr,
        )
        return 0
    rows, failures = gate_compare(current, baseline)
    print(format_delta_table(rows), file=sys.stderr)
    if failures:
        print(f"\n[matrix] GATE FAILED ({len(failures)} regression(s)):", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\n[matrix] gate passed: all cells within tolerance", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="small sizes for CI smoke runs"
    )
    parser.add_argument(
        "--gate",
        action="store_true",
        help="fail on a missed gated row, and diff against the committed "
        "per-host baseline; exit 1 on either",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="embed sampling-profiler attribution in every cell",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="record this run as the baseline for this host's fingerprint",
    )
    parser.add_argument(
        "--baseline-dir", type=pathlib.Path, default=BASELINE_DIR,
        help="directory of per-fingerprint baseline JSON files",
    )
    parser.add_argument(
        "--cells", nargs="+", metavar="CELL",
        help=f"run only these cells (available: {', '.join(CELLS)})",
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=DEFAULT_OUTPUT, help="output JSON path"
    )
    args = parser.parse_args(argv)

    report = run_matrix(smoke=args.smoke, profile=args.profile, cells=args.cells)
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report, indent=2))

    print("\n[matrix] rows:", file=sys.stderr)
    print(format_rows(report["rows"]), file=sys.stderr)
    overhead = report.get("profiler_overhead")
    if overhead is not None:
        print(
            f"[matrix] sampling profiler overhead: "
            f"{overhead['instrumented_over_plain_ratio']:.3f}x uninstrumented, "
            f"expect {overhead['target_ratio']}: {overhead['status']} (report only)",
            file=sys.stderr,
        )

    if args.write_baseline:
        args.baseline_dir.mkdir(parents=True, exist_ok=True)
        baseline_path = args.baseline_dir / f"{report['fingerprint_id']}.json"
        baseline_path.write_text(
            json.dumps(report, indent=2) + "\n", encoding="utf-8"
        )
        print(f"[matrix] baseline written to {baseline_path}", file=sys.stderr)

    if args.gate:
        return run_gate(report, args.baseline_dir)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
