"""Dependency-free observability: metrics, tracing, accuracy telemetry.

Three pieces, one contract:

* :mod:`repro.obs.registry` -- thread-safe counters, gauges and fixed-bucket
  distributions with Prometheus text exposition (``MetricsRegistry.render``);
* :mod:`repro.obs.trace` -- ``X-Repro-Trace-Id`` propagation, per-request
  spans, and the structured slow-request log (:class:`RequestObserver`);
* :mod:`repro.obs.accuracy` -- sampled exact-vs-estimate selectivity-error
  telemetry (:class:`AccuracySampler`);
* :mod:`repro.obs.profile` -- the opt-in stack-sampling
  profiler (:class:`SamplingProfiler`) behind the servers' ``profile=`` knob
  and the benchmark matrix's ``--profile`` flag;
* :mod:`repro.obs.process` -- process self-telemetry (RSS, GC, threads,
  uptime, ``repro_build_info``) refreshed on every ``/metrics`` scrape.

The contract: every lock in this package is a **leaf**.  Metric, trace and
sampler updates never acquire store/WAL/pipeline locks and never block on
I/O, so instrumentation can be called from any locking context in the stack
without creating lock-order cycles.  Enforced by repro-verify rule REP009
and exercised under ``tests/lockcheck.py``.
"""

from .accuracy import AccuracySampler
from .process import ProcessTelemetry
from .profile import DEFAULT_SAMPLE_INTERVAL_S, SamplingProfiler
from .registry import (
    ERROR_BUCKETS,
    LATENCY_BUCKETS_S,
    SIZE_BUCKETS,
    Counter,
    Distribution,
    Gauge,
    MetricsRegistry,
)
from .trace import (
    TRACE_HEADER,
    RequestObserver,
    Trace,
    current_trace,
    current_trace_id,
    new_trace_id,
    route_label,
    use_trace,
)

__all__ = [
    "AccuracySampler",
    "Counter",
    "DEFAULT_SAMPLE_INTERVAL_S",
    "Distribution",
    "ERROR_BUCKETS",
    "Gauge",
    "LATENCY_BUCKETS_S",
    "MetricsRegistry",
    "ProcessTelemetry",
    "RequestObserver",
    "SamplingProfiler",
    "SIZE_BUCKETS",
    "TRACE_HEADER",
    "Trace",
    "current_trace",
    "current_trace_id",
    "new_trace_id",
    "route_label",
    "use_trace",
]
