"""Shard worker process: one store behind a binary transport server.

``python -m repro.cluster.worker --shard-id shard-0 --port 0 [--wal-dir D]``
builds a :class:`~repro.service.store.HistogramStore` (recovering an existing
WAL when ``--wal-dir`` points at one) that records into the worker's own
metrics registry, serves it through
:class:`~repro.cluster.transport.BinaryShardServer`, prints a single
machine-readable readiness line::

    REPRO-SHARD-READY shard=<id> port=<bound port> pid=<pid> incarnation=<hex>

on stdout, and then runs until SIGTERM/SIGINT (clean shutdown: transport
closed, store -- and therefore WAL -- closed) or until its parent kills it.
The :class:`~repro.cluster.supervisor.ShardSupervisor` parses the readiness
line to learn the ephemeral port and the store's incarnation token, and to
fence startup races.  The ``metrics``
op answers the worker's exposition, and ``profile`` its ``--profile`` sampler.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
from typing import Any

from ..obs import MetricsRegistry, ProcessTelemetry, SamplingProfiler
from .protocol import LocalShard


class _WorkerShard(LocalShard):
    """The worker's backend: a local shard that also reports on its own process."""

    def __init__(self, shard_id: str, store, registry: MetricsRegistry, profiler) -> None:
        super().__init__(shard_id, store)
        self.registry, self.profiler = registry, profiler
        self.telemetry = ProcessTelemetry(registry)

    def metrics(self) -> str:
        self.telemetry.update()
        return self.registry.render()

    def profile(self) -> dict[str, Any] | None:
        return None if self.profiler is None else self.profiler.attribution()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repro shard worker process")
    parser.add_argument("--shard-id", required=True)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0, help="TCP port to bind (0 picks an ephemeral one)"
    )
    parser.add_argument(
        "--wal-dir", default=None, help="write-ahead-log directory (recovered if present)"
    )
    parser.add_argument("--wal-fsync", action="store_true")
    parser.add_argument(
        "--profile", action="store_true", help="run the sampling profiler for the profile op"
    )
    args = parser.parse_args(argv)

    from ..service import HistogramStore
    from .transport import READY_PREFIX, BinaryShardServer

    registry = MetricsRegistry()
    store, _ = HistogramStore.open(args.wal_dir, fsync=args.wal_fsync, metrics=registry)
    profiler = SamplingProfiler().start() if args.profile else None
    server = BinaryShardServer(
        _WorkerShard(args.shard_id, store, registry, profiler), host=args.host, port=args.port
    )
    server.start()
    host, port = server.address
    print(
        f"{READY_PREFIX} shard={args.shard_id} port={port} pid={os.getpid()} "
        f"incarnation={store.incarnation}",
        flush=True,
    )

    stop = threading.Event()

    def on_signal(signum, frame):  # pragma: no cover - signal delivery timing
        stop.set()

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        stop.wait()
    finally:
        server.stop()
        if profiler is not None:
            profiler.stop()
        store.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
