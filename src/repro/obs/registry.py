"""Dependency-free, thread-safe metrics registry (Prometheus text exposition).

The serving stack (store, WAL, ingest pipeline, HTTP servers, cluster
coordinator) records its runtime behaviour through three metric types:

* :class:`Counter` -- monotonically increasing totals (ops applied, bytes
  appended, replicas marked stale);
* :class:`Gauge` -- point-in-time values that move both ways (pending
  buffered operations);
* :class:`Distribution` -- fixed-bucket histograms for latencies and sizes,
  using the same array-native shape as the repo's histogram core: one
  immutable ``numpy`` array of upper bounds plus one counts array indexed by
  ``searchsorted``.

Concurrency contract
--------------------

Every metric owns one small ``threading.Lock`` guarding its values.  These
locks are **leaves**: no metric-update or scrape path acquires any other
lock, performs blocking I/O, or calls back into instrumented code while
holding one -- so instrumenting code that runs under store/WAL/buffer locks
can never create a lock-order cycle (the dynamic monitor in
``tests/lockcheck.py`` verifies this, and repro-verify rule REP009 enforces
it statically).  Scrapes (:meth:`MetricsRegistry.render`) copy each metric's
state under its lock, so one rendered metric is always internally consistent
-- a histogram's ``+Inf`` bucket equals its ``_count`` in every scrape.

Metrics are get-or-create by name: requesting an existing name returns the
existing instance (type and label names must match), so independently
constructed components can share one registry without coordination.
"""

from __future__ import annotations

import bisect
import threading
from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from ..exceptions import ConfigurationError

__all__ = [
    "Counter",
    "Distribution",
    "Gauge",
    "MetricsRegistry",
    "LATENCY_BUCKETS_S",
    "SIZE_BUCKETS",
    "ERROR_BUCKETS",
    "federate",
]

#: Default latency buckets (seconds): 50us .. 2.5s, roughly log-spaced.
LATENCY_BUCKETS_S = (
    0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)

#: Default size buckets (values per batch / bytes per record).
SIZE_BUCKETS = (1, 4, 16, 64, 256, 1024, 4096, 16384, 65536)

#: Default selectivity-error buckets (absolute estimated-vs-exact fraction).
ERROR_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
    0.01, 0.02, 0.05, 0.1, 0.25, 0.5,
)

_VALID_KINDS = ("counter", "gauge", "histogram")


def _label_key(
    metric_name: str, labelnames: tuple[str, ...], labels: dict[str, str]
) -> tuple[str, ...]:
    """Validate and order one update's label values against the declaration."""
    if len(labels) != len(labelnames) or any(name not in labels for name in labelnames):
        raise ConfigurationError(
            f"metric {metric_name!r} takes labels {labelnames}, got {sorted(labels)}"
        )
    return tuple(str(labels[name]) for name in labelnames)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labelnames: tuple[str, ...], key: tuple[str, ...], extra: str = "") -> str:
    pairs = [
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(labelnames, key, strict=True)
    ]
    if extra:
        pairs.append(extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _format_value(value: float) -> str:
    # Prometheus text values are floats; render integral values without the
    # trailing ".0" noise so counters read naturally.
    return str(int(value)) if float(value).is_integer() else repr(float(value))


class _Metric:
    """Shared shell: name, help text, declared labels, the leaf lock."""

    kind: str = ""

    def __init__(self, name: str, help_text: str, labelnames: Sequence[str]) -> None:
        self.name = name
        self.help_text = help_text
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()

    def render(self) -> list[str]:  # pragma: no cover - overridden
        raise NotImplementedError

    def _header(self) -> list[str]:
        return [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} {self.kind}",
        ]


class Counter(_Metric):
    """A monotonically increasing total, optionally partitioned by labels."""

    kind = "counter"

    def __init__(self, name: str, help_text: str, labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help_text, labelnames)
        self._values: dict[tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        """Add ``amount`` (must be >= 0) to the labelled series."""
        if amount < 0:
            raise ConfigurationError(f"counter {self.name} cannot decrease ({amount})")
        key = _label_key(self.name, self.labelnames, labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        key = _label_key(self.name, self.labelnames, labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def render(self) -> list[str]:
        with self._lock:
            items = sorted(self._values.items())
        lines = self._header()
        if not items and not self.labelnames:
            items = [((), 0.0)]
        for key, value in items:
            labels = _format_labels(self.labelnames, key)
            lines.append(f"{self.name}{labels} {_format_value(value)}")
        return lines


class Gauge(_Metric):
    """A point-in-time value that can move both ways."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str, labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help_text, labelnames)
        self._values: dict[tuple[str, ...], float] = {}

    def set(self, value: float, **labels: str) -> None:
        key = _label_key(self.name, self.labelnames, labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = _label_key(self.name, self.labelnames, labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: str) -> float:
        key = _label_key(self.name, self.labelnames, labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def render(self) -> list[str]:
        with self._lock:
            items = sorted(self._values.items())
        lines = self._header()
        if not items and not self.labelnames:
            items = [((), 0.0)]
        for key, value in items:
            labels = _format_labels(self.labelnames, key)
            lines.append(f"{self.name}{labels} {_format_value(value)}")
        return lines


class _Series:
    """One labelled series of a distribution: bucket counts + sum + extrema."""

    __slots__ = ("counts", "total", "count", "max")

    def __init__(self, n_buckets: int) -> None:
        # Array-native, like the histogram core: counts[i] pairs with the
        # i-th upper bound; the final slot is the +Inf overflow bucket.
        self.counts = np.zeros(n_buckets + 1, dtype=np.int64)
        self.total = 0.0
        self.count = 0
        self.max = float("-inf")


class Distribution(_Metric):
    """A fixed-bucket histogram (Prometheus ``histogram`` exposition type).

    Bucket upper bounds are fixed at construction; ``observe`` bins a value
    with one :func:`bisect.bisect_left` over the bounds (cheap enough for
    per-operation instrumentation), and :meth:`observe_many` bins a whole
    batch with one vectorised ``searchsorted`` + ``bincount`` pass -- the
    same binning idiom the histogram core uses for bulk ingest.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        buckets: Sequence[float],
        labelnames: Sequence[str] = (),
    ) -> None:
        super().__init__(name, help_text, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ConfigurationError(
                f"distribution {name!r} buckets must be strictly increasing, got {buckets}"
            )
        self._bounds = bounds
        self._bounds_array = np.asarray(bounds, dtype=float)
        self._series: dict[tuple[str, ...], _Series] = {}

    @property
    def buckets(self) -> tuple[float, ...]:
        return self._bounds

    def observe(self, value: float, **labels: str) -> None:
        """Record one sample into the labelled series."""
        value = float(value)
        index = bisect.bisect_left(self._bounds, value)
        key = _label_key(self.name, self.labelnames, labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _Series(len(self._bounds))
            series.counts[index] += 1
            series.total += value
            series.count += 1
            if value > series.max:
                series.max = value

    def observe_many(self, values: Iterable[float], **labels: str) -> None:
        """Record a batch of samples with one vectorised binning pass."""
        array = np.asarray(list(values), dtype=float)
        if array.size == 0:
            return
        indices = np.searchsorted(self._bounds_array, array, side="left")
        binned = np.bincount(indices, minlength=len(self._bounds) + 1)
        key = _label_key(self.name, self.labelnames, labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _Series(len(self._bounds))
            series.counts += binned
            series.total += float(array.sum())
            series.count += int(array.size)
            series.max = max(series.max, float(array.max()))

    def summary(self, **labels: str) -> dict[str, float]:
        """Count / sum / mean / max of one series (zeros when unobserved)."""
        key = _label_key(self.name, self.labelnames, labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                return {"count": 0, "sum": 0.0, "mean": 0.0, "max": 0.0}
            return {
                "count": series.count,
                "sum": series.total,
                "mean": series.total / series.count if series.count else 0.0,
                "max": series.max if series.count else 0.0,
            }

    def quantiles(self, qs: Sequence[float], **labels: str) -> list[float]:
        """Upper-bound quantile estimates from the fixed buckets.

        For each ``q`` in ``qs`` (fractions in [0, 1]) returns the smallest
        bucket upper bound whose cumulative count reaches ``q * count`` --
        i.e. a conservative (never under-reporting) quantile, which is what
        a latency gate wants.  Samples past the last bound resolve to the
        observed maximum.  An unobserved series returns all zeros.
        """
        for q in qs:
            if not 0.0 <= q <= 1.0:
                raise ConfigurationError(f"quantile {q} outside [0, 1]")
        key = _label_key(self.name, self.labelnames, labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                return [0.0 for _ in qs]
            counts = series.counts.copy()
            count = series.count
            observed_max = series.max
        if count == 0:
            return [0.0 for _ in qs]
        cumulative = np.cumsum(counts)
        results = []
        for q in qs:
            target = q * count
            index = int(np.searchsorted(cumulative, target, side="left"))
            if index >= len(self._bounds):
                results.append(float(observed_max))
            else:
                results.append(self._bounds[index])
        return results

    def render(self) -> list[str]:
        with self._lock:
            snapshot = [
                (key, series.counts.copy(), series.total, series.count)
                for key, series in sorted(self._series.items())
            ]
        lines = self._header()
        if not snapshot and not self.labelnames:
            snapshot = [((), np.zeros(len(self._bounds) + 1, dtype=np.int64), 0.0, 0)]
        for key, counts, total, count in snapshot:
            cumulative = 0
            for bound, bucket_count in zip(self._bounds, counts[:-1], strict=True):
                cumulative += int(bucket_count)
                labels = _format_labels(self.labelnames, key, f'le="{repr(bound)}"')
                lines.append(f"{self.name}_bucket{labels} {cumulative}")
            labels = _format_labels(self.labelnames, key, 'le="+Inf"')
            lines.append(f"{self.name}_bucket{labels} {count}")
            plain = _format_labels(self.labelnames, key)
            lines.append(f"{self.name}_sum{plain} {_format_value(total)}")
            lines.append(f"{self.name}_count{plain} {count}")
        return lines


class MetricsRegistry:
    """A named collection of metrics with get-or-create registration.

    One registry per serving process: the store, WAL, pipeline, HTTP server
    and cluster coordinator all register into the same instance, and
    ``GET /metrics`` renders it in the Prometheus text exposition format.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    def _get_or_create(
        self, cls: type, name: str, help_text: str, labelnames: Sequence[str], **kwargs
    ):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or existing.labelnames != tuple(labelnames):
                    raise ConfigurationError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}{existing.labelnames}"
                    )
                return existing
            metric = cls(name, help_text, labelnames=labelnames, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, help_text: str, labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help_text, labelnames)

    def gauge(self, name: str, help_text: str, labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, labelnames)

    def distribution(
        self,
        name: str,
        help_text: str,
        buckets: Sequence[float] = LATENCY_BUCKETS_S,
        labelnames: Sequence[str] = (),
    ) -> Distribution:
        return self._get_or_create(
            Distribution, name, help_text, labelnames, buckets=buckets
        )

    def get(self, name: str) -> _Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def render(self) -> str:
        """The whole registry in Prometheus text exposition format.

        Each metric is snapshotted under its own lock, so every rendered
        family is internally consistent (no torn histograms); families are
        rendered in name order for stable diffs.
        """
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        lines: list[str] = []
        for metric in metrics:
            lines.extend(metric.render())
        return "\n".join(lines) + "\n" if lines else ""


def federate(own: str, shards: Mapping[str, str]) -> str:
    """Merge ``own`` with each shard's exposition, whose series gain ``shard="<key>"``.

    A family several expositions carry keeps one HELP and one TYPE line;
    families come out in name order, as :meth:`MetricsRegistry.render` emits them.
    """
    families: dict[str, list[str]] = {}
    headers: set[tuple[str, str]] = set()
    for shard, text in [("", own), *shards.items()]:
        tag = f'shard="{_escape_label_value(shard)}"'
        lines: list[str] = []
        for line in text.splitlines():
            if line.startswith("# "):
                _, keyword, name = line.split(" ", 3)[:3]
                lines = families.setdefault(name, [])
                if (keyword, name) in headers:
                    continue
                headers.add((keyword, name))
            elif shard:
                series, brace, rest = line.partition("{")
                line = f"{series}{{{tag},{rest}" if brace else line.replace(" ", f"{{{tag}}} ", 1)
            lines.append(line)
    return "".join(line + "\n" for name in sorted(families) for line in families[name])
