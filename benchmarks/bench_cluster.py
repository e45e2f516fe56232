"""Cluster benchmark: scatter-gather ingest scaling and merged-estimate accuracy.

Measures the sharding layer and records the trajectory in
``BENCH_cluster.json``:

* **spawned process shards** -- aggregate ingest throughput of the mixed
  catalog (8 attributes placed round-robin) plus one hot range-partitioned
  attribute, at 1 and 4 REAL worker processes launched by the
  :class:`~repro.cluster.supervisor.ShardSupervisor` and reached over the
  persistent binary transport, with a reader thread served throughout.
  Each spawned shard applies batches on its own core, so on a multi-core
  host this section shows real CPU scaling (target >= 2.5x at 4 shards).
  On a single-core host the honest number is ~1x -- the section records
  ``host_cpu_count`` so readers can tell which regime a given JSON was
  measured in.

* **merged-estimate accuracy** -- the hot attribute is range-partitioned over
  4 shards, queried through the coordinator's merged global histogram (the
  Section 8 superimposed union of the piece views, not reduced), and compared
  window by window against a single unsharded reference store fed the
  identical stream.  The section records the observed maximum deviation as a
  fraction of the total count and asserts it stays within the recorded error
  bound.

Every section checks that each submitted value is conserved.  Run directly:
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

#: Error bound the merged estimates must stay within (fraction of total).
MERGED_ERROR_BOUND = 0.02


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


def build_cluster(n_shards: int) -> ClusterCoordinator:
    """In-process shards holding the catalog (the accuracy section's cluster)."""
    shards = [LocalShard(f"shard-{index}") for index in range(n_shards)]
    coordinator = ClusterCoordinator(shards)
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
        coordinator = ClusterCoordinator(shards, metrics=metrics)
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
    factory,
) -> dict:
    """One scaling data point.  ``factory(n_shards) -> (coordinator, cleanup)``
    builds the cluster; the spawned section and the matrix pass
    :func:`build_spawned_cluster`, so the workload runs against real worker
    processes."""
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
    cleanup()
    return {
        "shards": n_shards,
        "ingested_values": ingested,
        "elapsed_s": round(elapsed, 3),
        "ingest_per_sec": round(ingested / elapsed, 1),
        "queries_served_during_ingest": int(sum(queries_served)),
        "queries_per_sec": round(sum(queries_served) / elapsed, 1),
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

    coordinator = build_cluster(4)
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
