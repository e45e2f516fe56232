"""Cluster benchmark: scatter-gather ingest scaling and merged-estimate accuracy.

Measures the sharding layer and records the trajectory in
``BENCH_cluster.json``:

* **in-process shards** (``local_cpu_bound``) -- aggregate ingest throughput
  of the mixed catalog (8 attributes placed round-robin) plus one hot
  range-partitioned attribute, at 1 and 4 in-process shards, with a reader
  thread served throughout.  The shards share one interpreter, so on any
  host they sit near 1.0x: the coordinator runs in-process legs one after
  another, and the GIL would serialise them anyway.

* **spawned process shards** -- the same CPU-bound workload against REAL
  worker processes launched by the :class:`~repro.cluster.supervisor.\
ShardSupervisor` and reached over the persistent binary transport.  Unlike
  in-process shards (one interpreter, one GIL), each spawned shard applies
  batches on its own core, so on a multi-core host this section shows real
  CPU scaling (target >= 2.5x at 4 shards).  On a single-core host the
  honest number is ~1x -- the section records ``host_cpu_count`` so readers
  can tell which regime a given JSON was measured in.

* **merged-estimate accuracy** -- the hot attribute is range-partitioned over
  4 shards, queried through the coordinator's merged global histogram
  (superimpose + reduce, Section 8), and compared window by window against a
  single unsharded reference store fed the identical stream.  The section
  records the observed maximum deviation as a fraction of the total count and
  asserts it stays within the recorded error bound.

Every section checks that each submitted value is conserved.  The read-QPS
body (:func:`run_read_qps_config`) is not a section here; the matrix's
``read_qps_*`` cells run it.  Run directly:
``python benchmarks/bench_cluster.py [--smoke]``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import threading
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.cluster import ClusterCoordinator, LocalShard, ShardSupervisor  # noqa: E402
from repro.service import HistogramStore  # noqa: E402

DEFAULT_OUTPUT = pathlib.Path(__file__).resolve().parents[1] / "BENCH_cluster.json"

#: (name, kind) pairs: the mixed catalog, as a real system would hold.
ATTRIBUTE_MIX = [
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

#: Emulated shard apply engine: per-batch and per-value apply cost.  20 us per
#: value is a ~50k values/sec engine -- in the range one StatisticsServer
#: process sustains over HTTP with modest batches (34k/s at batch 32, 114k/s
#: at batch 128 on this class of host).
APPLY_PER_BATCH_S = 0.001
APPLY_PER_VALUE_S = 0.000020

#: Emulated shard serve engine: per-query cost on the read path.  200 us per
#: query is a ~5k queries/sec engine per shard -- one StatisticsServer process
#: answering small estimate batches over HTTP.  The serve lock is deliberately
#: SEPARATE from the apply lock: the store's read path is lock-free (published
#: snapshots, REP010), so a shard's reads never wait behind its writes; what
#: remains per-shard is the serving engine's own capacity, which is exactly
#: what this sleep models.
SERVE_PER_QUERY_S = 0.000200

#: Error bound the merged estimates must stay within (fraction of total).
MERGED_ERROR_BOUND = 0.02


class EmulatedApplyStore(HistogramStore):
    """A store whose write path behaves like a remote shard's apply engine.

    Writes serialise on one per-shard apply lock and pay the engine's
    per-batch + per-value cost (a clock sleep) before the real ``insert_many``
    runs.  When a per-query cost is configured, reads likewise serialise on a
    per-shard **serve** lock -- a different lock than the apply lock, because
    the store's read path is lock-free (published snapshots) and a real
    shard's reads never queue behind its apply engine.  This is the per-shard
    serialisation a real deployment has (each shard applies and serves on its
    own hardware) reduced to its timing skeleton, so shard-count scaling can
    be measured on any host.
    """

    def __init__(
        self, per_batch: float, per_value: float, per_query: float = 0.0, **kwargs
    ) -> None:
        super().__init__(**kwargs)
        self._apply_lock = threading.Lock()
        self._serve_lock = threading.Lock()
        self._per_batch = per_batch
        self._per_value = per_value
        self._per_query = per_query

    def insert(self, name, values, *, repartition_interval=None):
        values = list(values)
        with self._apply_lock:
            if self._per_batch or self._per_value:
                time.sleep(self._per_batch + self._per_value * len(values))
            return super().insert(name, values, repartition_interval=repartition_interval)

    def delete(self, name, values):
        values = list(values)
        with self._apply_lock:
            if self._per_batch or self._per_value:
                time.sleep(self._per_batch + self._per_value * len(values))
            return super().delete(name, values)

    def query(self, name, queries):
        if self._per_query:
            with self._serve_lock:
                time.sleep(self._per_query)
        return super().query(name, queries)


def _create_catalog(coordinator: ClusterCoordinator, n_shards: int) -> None:
    for index, (name, kind) in enumerate(ATTRIBUTE_MIX):
        # Deal the catalog round-robin via assignment overrides: the bench
        # measures scatter-gather scaling, which a skewed hash of only 8
        # names would confound (operators balance small catalogs the same
        # way; the hash ring is for populations, not samples of 8).
        coordinator.router.assign(name, f"shard-{index % n_shards}")
        coordinator.create(name, kind, memory_kb=0.5)
    low, high = DOMAIN
    boundaries = [low + (high - low) * piece / n_shards for piece in range(1, n_shards)]
    coordinator.create(HOT, "dc", memory_kb=0.5, partition_boundaries=boundaries)


def build_cluster(
    n_shards: int, *, emulate_apply: bool, emulate_serve: bool = False, metrics=None
) -> ClusterCoordinator:
    per_batch = APPLY_PER_BATCH_S if emulate_apply else 0.0
    per_value = APPLY_PER_VALUE_S if emulate_apply else 0.0
    per_query = SERVE_PER_QUERY_S if emulate_serve else 0.0
    shards = [
        LocalShard(f"shard-{index}", EmulatedApplyStore(per_batch, per_value, per_query))
        for index in range(n_shards)
    ]
    coordinator = ClusterCoordinator(shards, global_buckets=64, metrics=metrics)
    _create_catalog(coordinator, n_shards)
    return coordinator


def build_spawned_cluster(n_shards: int, *, metrics=None):
    """A fleet of REAL worker processes behind the binary transport.

    Returns ``(coordinator, cleanup)``: the cleanup callable closes the
    supervisor, which closes the transport clients and stops the worker
    processes.  No WAL: the section measures the transport + multi-process
    apply path, not disk.
    """
    supervisor = ShardSupervisor(n_shards)
    try:
        shards = supervisor.start()
        coordinator = ClusterCoordinator(shards, global_buckets=64, metrics=metrics)
        _create_catalog(coordinator, n_shards)
    except BaseException:
        supervisor.close()
        raise
    return coordinator, supervisor.close


def stream_values(rng: np.random.Generator, n: int) -> np.ndarray:
    """The paper's cluster-distributed shape (skewed centres + local noise)."""
    centres = rng.choice(np.arange(0, 5000, 250), size=n)
    return np.clip(centres + rng.integers(-40, 41, size=n), *DOMAIN).astype(float)


def _check_conservation(coordinator: ClusterCoordinator, expected: float) -> None:
    total = sum(
        coordinator.total_count(name) for name, _ in ATTRIBUTE_MIX
    ) + coordinator.total_count(HOT)
    if abs(total - expected) > 1e-6 * max(1.0, expected):
        raise AssertionError(f"ingest lost values: cluster holds {total}, expected {expected}")


# ----------------------------------------------------------------------
# section 1: ingest scaling
# ----------------------------------------------------------------------
def run_scaling_config(
    n_shards: int,
    n_calls: int,
    catalog_chunk: int,
    hot_chunk: int,
    n_writers: int,
    n_readers: int,
    *,
    factory=None,
) -> dict:
    """One scaling data point.  ``factory(n_shards) -> (coordinator, cleanup)``
    overrides the default in-process cluster -- the spawned section passes
    :func:`build_spawned_cluster` so the identical workload body runs
    against real worker processes."""
    if factory is None:
        coordinator = build_cluster(n_shards, emulate_apply=False)
        cleanup = None
    else:
        coordinator, cleanup = factory(n_shards)
    calls_per_writer = n_calls // n_writers
    values_per_call = len(ATTRIBUTE_MIX) * catalog_chunk + hot_chunk
    queries_served = [0] * n_readers
    stop = threading.Event()
    errors: list = []

    # Value streams are generated before the clock starts: the benchmark
    # measures the cluster's ingest path, not numpy sampling.
    def make_calls(index: int):
        rng = np.random.default_rng(1000 + index)
        calls = []
        for _ in range(calls_per_writer):
            items = {
                name: stream_values(rng, catalog_chunk).tolist()
                for name, _ in ATTRIBUTE_MIX
            }
            items[HOT] = stream_values(rng, hot_chunk).tolist()
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
                    # A merged-histogram read of the partitioned attribute
                    # (with writes in flight this is a full rebuild).
                    coordinator.query(HOT, [{"op": "total"}])
                else:
                    name = ATTRIBUTE_MIX[served % len(ATTRIBUTE_MIX)][0]
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
        raise AssertionError(f"scaling run failed: {errors[0]!r}")

    ingested = calls_per_writer * n_writers * values_per_call
    _check_conservation(coordinator, ingested)
    if cleanup is not None:
        cleanup()
    return {
        "shards": n_shards,
        "ingested_values": ingested,
        "elapsed_s": round(elapsed, 3),
        "ingest_per_sec": round(ingested / elapsed, 1),
        "queries_served_during_ingest": int(sum(queries_served)),
        "queries_per_sec": round(sum(queries_served) / elapsed, 1),
    }


#: Offered ingest load for the read-QPS cells, values/sec across all writers.
#: Fixed (writers pace themselves to it) rather than free-running: the cells
#: compare read capacity at 1 vs 4 shards, and a free-running write side would
#: ingest ~4x more at 4 shards -- stealing interpreter time from the readers
#: and confounding the comparison.  16k/s is ~40% of one emulated apply
#: engine, so the load is sustainable at every shard count under test.
READ_BENCH_INGEST_PER_S = 16_000.0


def run_read_qps_config(
    n_shards: int,
    duration_s: float,
    n_writers: int,
    n_readers: int,
    catalog_chunk: int,
    hot_chunk: int,
    *,
    target_ingest_per_sec: float = READ_BENCH_INGEST_PER_S,
    metrics=None,
) -> dict:
    """Read QPS under sustained ingest: the lock-free read path at scale.

    Duration-based (writers and readers both loop until the window closes):
    writers sustain a fixed offered ingest load while readers tight-loop
    estimate batches against the emulated serve engines.  The
    serve lock is independent of the apply lock -- exactly the property the
    published-snapshot read path buys -- so read capacity is N independent
    ~5k QPS serve engines, and the measured quantity is whether the
    coordinator keeps them all busy while ingest never stops.  A small slice
    of reads (1 in 32) is a merged-histogram read of the hot partitioned
    attribute, which exercises the coordinator's incremental merge
    maintenance against a constantly moving generation vector without
    letting the (deliberately expensive, serialised) merge rebuild drown
    the serve-engine scaling signal this cell measures.
    """
    coordinator = build_cluster(
        n_shards, emulate_apply=True, emulate_serve=True, metrics=metrics
    )
    rng = np.random.default_rng(11)
    seeded = 0
    for name, _ in ATTRIBUTE_MIX:
        values = stream_values(rng, 2000)
        coordinator.ingest(name, insert=values.tolist())
        seeded += len(values)
    hot_seed = stream_values(rng, 4000)
    coordinator.ingest(HOT, insert=hot_seed.tolist())
    seeded += len(hot_seed)

    stop = threading.Event()
    errors: list = []
    written = [0] * n_writers
    served = [0] * n_readers
    per_call = len(ATTRIBUTE_MIX) * catalog_chunk + hot_chunk

    # A small pre-generated pool per writer, cycled: the window measures the
    # cluster's ingest+serve paths, not numpy sampling.
    pools = []
    for index in range(n_writers):
        wrng = np.random.default_rng(1000 + index)
        pool = []
        for _ in range(8):
            items = {
                name: stream_values(wrng, catalog_chunk).tolist()
                for name, _ in ATTRIBUTE_MIX
            }
            items[HOT] = stream_values(wrng, hot_chunk).tolist()
            pool.append(items)
        pools.append(pool)

    # Each writer paces itself to its share of the offered load; falling
    # behind resets the deadline instead of bursting to catch up.
    call_interval = per_call / (target_ingest_per_sec / n_writers)

    def writer(index: int) -> None:
        calls = 0
        try:
            deadline = time.perf_counter()
            while not stop.is_set():
                coordinator.ingest_batch(pools[index][calls % len(pools[index])])
                calls += 1
                deadline += call_interval
                delay = deadline - time.perf_counter()
                if delay > 0:
                    stop.wait(delay)
                else:
                    deadline = time.perf_counter()
        except Exception as error:  # pragma: no cover - failure reporting
            errors.append(error)
        written[index] = calls * per_call

    def reader(index: int) -> None:
        rrng = np.random.default_rng(2000 + index)
        lows = rrng.uniform(0.0, 4000.0, size=256)
        count = 0
        try:
            while not stop.is_set():
                if count % 32 == 31:
                    coordinator.query(HOT, [{"op": "total"}])
                else:
                    name = ATTRIBUTE_MIX[(index + count) % len(ATTRIBUTE_MIX)][0]
                    low = float(lows[count % len(lows)])
                    coordinator.query(
                        name,
                        [{"op": "range", "low": low, "high": low + 500.0}, {"op": "total"}],
                    )
                count += 1
        except Exception as error:  # pragma: no cover - failure reporting
            errors.append(error)
        served[index] = count

    threads = [threading.Thread(target=writer, args=(i,)) for i in range(n_writers)]
    threads += [threading.Thread(target=reader, args=(i,)) for i in range(n_readers)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    time.sleep(duration_s)
    stop.set()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise AssertionError(f"read-qps run failed: {errors[0]!r}")

    _check_conservation(coordinator, seeded + sum(written))
    return {
        "shards": n_shards,
        "duration_s": round(elapsed, 3),
        "reads_served": int(sum(served)),
        "read_qps": round(sum(served) / elapsed, 1),
        "ingested_values_during_window": int(sum(written)),
        "ingest_per_sec": round(sum(written) / elapsed, 1),
    }


def bench_local_cpu_bound(n_calls: int, catalog_chunk: int, hot_chunk: int) -> dict:
    """The same workload with zero emulated apply cost: pure-CPU shards."""
    configs = {
        str(n): run_scaling_config(n, n_calls, catalog_chunk, hot_chunk, 3, 1)
        for n in (1, 4)
    }
    return {
        "per_shard_count": configs,
        "scaling_4_vs_1": round(
            configs["4"]["ingest_per_sec"] / configs["1"]["ingest_per_sec"], 2
        ),
        "note": (
            "in-process shards share one Python interpreter: the coordinator "
            "runs their legs one after another, and CPU-bound ingest cannot "
            "scale with shard count on any core count (the GIL serialises it); "
            "real CPU scaling needs process isolation on multi-core hosts (see "
            "the spawned_process_shards section)"
        ),
    }


def bench_spawned_cpu_bound(n_calls: int, catalog_chunk: int, hot_chunk: int) -> dict:
    """The CPU-bound workload against REAL spawned worker processes.

    Each shard is its own OS process (own interpreter, own GIL) reached over
    the persistent binary transport, so this is the one section where
    CPU-bound ingest can genuinely scale with shard count -- if the host has
    the cores.  ``host_cpu_count`` is recorded precisely because the >= 2.5x
    target is only meaningful on a host with >= 4 cores; on one core the
    spawned processes time-slice a single CPU and the honest ratio is ~1x
    (minus transport overhead).
    """
    cpu_count = os.cpu_count() or 1
    configs = {
        str(n): run_scaling_config(
            n,
            n_calls,
            catalog_chunk,
            hot_chunk,
            3,
            1,
            factory=build_spawned_cluster,
        )
        for n in (1, 4)
    }
    scaling = round(
        configs["4"]["ingest_per_sec"] / configs["1"]["ingest_per_sec"], 2
    )
    return {
        "transport": (
            "persistent TCP connections, length-prefixed binary frames "
            "(magic+length+crc32+JSON, the WAL framing discipline)"
        ),
        "host_cpu_count": cpu_count,
        "per_shard_count": configs,
        "scaling_4_vs_1": scaling,
        "target": ">= 2.5x on a host with >= 4 cores",
        "note": (
            f"measured on a {cpu_count}-core host: "
            + (
                "expect real CPU scaling at 4 shards"
                if cpu_count >= 4
                else "4 worker processes time-slice the available core(s), so "
                "the ratio reflects transport + scheduling overhead, not the "
                "parallel apply capacity a multi-core host would show"
            )
        ),
    }


# ----------------------------------------------------------------------
# section 2: merged-estimate accuracy
# ----------------------------------------------------------------------
def bench_merged_accuracy(n_values: int, n_queries: int) -> dict:
    rng = np.random.default_rng(42)
    values = stream_values(rng, n_values)

    coordinator = build_cluster(4, emulate_apply=False)
    coordinator.ingest(HOT, insert=values.tolist())

    reference = HistogramStore()
    reference.create(HOT, "dc", memory_kb=0.5)
    reference.insert(HOT, values.tolist())

    total = float(len(values))
    lows = rng.uniform(DOMAIN[0], DOMAIN[1] - 100.0, size=n_queries)
    widths = rng.uniform(50.0, 2000.0, size=n_queries)
    vs_reference, merged_vs_exact, reference_vs_exact = [], [], []
    for low, width in zip(lows, widths, strict=True):
        high = min(low + width, DOMAIN[1])
        merged = coordinator.estimate_range(HOT, low, high)
        single = reference.estimate_range(HOT, low, high)
        exact = float(((values >= low) & (values <= high)).sum())
        vs_reference.append(abs(merged - single) / total)
        merged_vs_exact.append(abs(merged - exact) / total)
        reference_vs_exact.append(abs(single - exact) / total)

    max_vs_reference = float(max(vs_reference))
    within = max_vs_reference <= MERGED_ERROR_BOUND
    result = {
        "workload": (
            f"{n_values} cluster-distributed values into the hot attribute, "
            f"range-partitioned over 4 shards vs one unsharded reference store; "
            f"{n_queries} random range windows"
        ),
        "recorded_error_bound_fraction_of_total": MERGED_ERROR_BOUND,
        "max_error_vs_unsharded_fraction_of_total": round(max_vs_reference, 6),
        "mean_error_vs_unsharded_fraction_of_total": round(
            float(np.mean(vs_reference)), 6
        ),
        "max_error_vs_exact_fraction_of_total": {
            "merged": round(float(max(merged_vs_exact)), 6),
            "unsharded_reference": round(float(max(reference_vs_exact)), 6),
        },
        "within_bound": within,
    }
    if not within:
        raise AssertionError(
            f"merged estimates drifted {max_vs_reference:.4f} of total from the "
            f"unsharded reference (bound {MERGED_ERROR_BOUND})"
        )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="small sizes for CI smoke runs"
    )
    parser.add_argument(
        "--out", type=pathlib.Path, default=DEFAULT_OUTPUT, help="output JSON path"
    )
    args = parser.parse_args(argv)

    if args.smoke:
        cpu_calls, catalog_chunk, hot_chunk = 12, 128, 512
        n_accuracy, n_queries = 20_000, 25
    else:
        cpu_calls, catalog_chunk, hot_chunk = 24, 256, 1024
        n_accuracy, n_queries = 80_000, 50

    results = {
        "benchmark": "cluster",
        "smoke": bool(args.smoke),
        "python": sys.version.split()[0],
        "host_cpu_count": os.cpu_count() or 1,
        "sections": {
            "local_cpu_bound": bench_local_cpu_bound(cpu_calls, catalog_chunk, hot_chunk),
            "spawned_process_shards": bench_spawned_cpu_bound(
                cpu_calls, catalog_chunk, hot_chunk
            ),
            "merged_estimate_accuracy": bench_merged_accuracy(n_accuracy, n_queries),
        },
    }

    args.out.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(results, indent=2))

    spawned = results["sections"]["spawned_process_shards"]
    accuracy = results["sections"]["merged_estimate_accuracy"]
    print(
        f"\nspawned-process ingest at 4 shards: {spawned['scaling_4_vs_1']:.2f}x the "
        f"1-shard aggregate on a {spawned['host_cpu_count']}-core host "
        f"(target: >= 2.5x with >= 4 cores)\n"
        f"merged estimates within {accuracy['max_error_vs_unsharded_fraction_of_total']:.4f} "
        f"of total vs unsharded reference "
        f"(bound: {accuracy['recorded_error_bound_fraction_of_total']})",
        file=sys.stderr,
    )
    # The spawned-shard CPU-scaling target only binds where the hardware can
    # express it; a single-core host records its honest ~1x and passes.
    if not args.smoke and spawned["host_cpu_count"] >= 4 and spawned["scaling_4_vs_1"] < 2.5:
        print("FAIL: spawned-process scaling target missed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
