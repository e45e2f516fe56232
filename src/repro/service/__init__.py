"""Statistics service: concurrent multi-attribute histogram serving.

The paper's dynamic histograms live inside a DBMS catalog where they serve
selectivity estimates for many attributes at once while updates stream in.
This package is that serving layer:

* :class:`~repro.service.store.HistogramStore` -- a thread-safe catalog of
  named dynamic histograms with per-attribute locking, generation counters,
  consistent batched queries, and snapshot/restore built on
  :mod:`repro.persistence`;
* :class:`~repro.service.ingest.IngestPipeline` -- a batching write pipeline
  that buffers per-attribute inserts/deletes and flushes through the
  vectorised ``insert_many`` path on size or time triggers;
* :class:`~repro.service.server.StatisticsServer` /
  :class:`~repro.service.client.StatisticsClient` -- a stdlib-only JSON HTTP
  API exposing create / ingest / estimate / snapshot / restore, and the
  matching client; the server runs on
  :class:`~repro.service.server.EdgeServer`, the one HTTP edge the cluster
  server shares;
* :class:`~repro.service.wal.WriteAheadLog` /
  :class:`~repro.service.wal.DurabilityConfig` -- opt-in crash durability:
  mutations are logged before they are applied, periodic compaction rewrites
  the log as a checkpoint plus tail, and ``HistogramStore.recover`` replays
  them back to the exact pre-crash state (torn tails tolerated).
"""

from .client import StatisticsClient
from .ingest import IngestPipeline
from .server import StatisticsServer
from .store import AttributeStats, HistogramStore
from .wal import DurabilityConfig, WriteAheadLog

__all__ = [
    "AttributeStats",
    "DurabilityConfig",
    "HistogramStore",
    "IngestPipeline",
    "StatisticsServer",
    "StatisticsClient",
    "WriteAheadLog",
]
