"""Superposition and reduction of histograms (Section 8).

*Superposition* builds a union histogram whose borders are the union of the
member histograms' borders; every member bucket is sliced at those borders
under the uniform assumption, so no information beyond what the members
already lost is discarded -- the union histogram is exactly as precise as the
member histograms.  The price is a bucket count that grows with the number of
members, so the paper *reduces* the union histogram back to the memory budget
by treating it as a data set and merging similar neighbouring buckets with the
SSBM technique.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence

import numpy as np

from ..core.base import Histogram
from ..core.bucket import Bucket
from ..core.bucket_array import BucketArray
from ..core.deviation import DeviationMetric, _segment_value_count
from ..exceptions import ConfigurationError
from ..static.base import StaticHistogram

__all__ = ["UnionHistogram", "superimpose", "reduce_segments"]

Segment = tuple[float, float, float]


class UnionHistogram(StaticHistogram):
    """A histogram produced by superimposing (and optionally reducing) members.

    Unlike other static histograms, a union may be *empty*: a live cluster
    legitimately superimposes shards that have not received data yet, and the
    merged global histogram must still answer estimates (all zero) rather than
    fail.  Every derived read path handles the empty case already.
    """

    def __init__(self, buckets: Sequence[Bucket]) -> None:
        if buckets:
            super().__init__(buckets)
        else:
            self._array = BucketArray.empty(1)
            self.segment_view()


def superimpose(histograms: Sequence[Histogram]) -> UnionHistogram:
    """Superimpose member histograms into one union histogram.

    The result has a bucket border wherever any member has one; member bucket
    mass is split across the finer borders under the uniform assumption and
    added up.  Total count equals the sum of the member totals.
    """
    if not histograms:
        raise ConfigurationError("superimpose requires at least one histogram")

    border_values: list[float] = []
    point_masses: list[Bucket] = []
    interval_buckets: list[Bucket] = []
    for histogram in histograms:
        for bucket in histogram.buckets():
            if bucket.is_point_mass:
                point_masses.append(bucket)
            else:
                interval_buckets.append(bucket)
                border_values.extend((bucket.left, bucket.right))

    merged: list[Bucket] = []
    if interval_buckets:
        borders = np.unique(np.asarray(border_values, dtype=float))
        # Vectorised overlap computation: every member bucket's borders are in
        # the union border array, so each slot it covers is covered fully and
        # receives slot_width * bucket_density mass.  Accumulate per-bucket
        # densities as +density at the bucket's first slot and -density one
        # past its last; the running sum is then the stacked density of every
        # slot, without any per-bucket inner loop over slots.
        lefts = np.asarray([bucket.left for bucket in interval_buckets], dtype=float)
        rights = np.asarray([bucket.right for bucket in interval_buckets], dtype=float)
        bucket_counts = np.asarray(
            [bucket.count for bucket in interval_buckets], dtype=float
        )
        densities = bucket_counts / (rights - lefts)
        starts = np.searchsorted(borders, lefts, side="left")
        ends = np.searchsorted(borders, rights, side="left")
        density_deltas = np.zeros(len(borders), dtype=float)
        np.add.at(density_deltas, starts, densities)
        np.add.at(density_deltas, ends, -densities)
        # Cancellation in the running sum can leave slots covered by no bucket
        # at a tiny negative density instead of exactly zero; clamp them.
        counts = np.maximum(np.cumsum(density_deltas[:-1]) * np.diff(borders), 0.0)
        merged.extend(
            Bucket(float(borders[i]), float(borders[i + 1]), float(counts[i]))
            for i in range(len(counts))
        )

    # Combine point masses that share the same value.
    if point_masses:
        by_value: dict = {}
        for bucket in point_masses:
            by_value[bucket.left] = by_value.get(bucket.left, 0.0) + bucket.count
        merged.extend(Bucket(value, value, count) for value, count in by_value.items())

    merged.sort(key=lambda bucket: (bucket.left, bucket.right))
    # All members empty (freshly created shards): the union is empty too.
    return UnionHistogram(merged)


def reduce_segments(
    histogram: Histogram,
    n_buckets: int,
    *,
    metric: DeviationMetric | str = DeviationMetric.VARIANCE,
    value_unit: float = 1.0,
) -> UnionHistogram:
    """Reduce a histogram to ``n_buckets`` buckets by SSBM-style merging.

    The histogram's segments are treated as the data set to be partitioned:
    neighbouring groups of segments are successively merged, always choosing
    the pair of adjacent groups whose combined phi (Eq. 4) is smallest, until
    the target bucket count is reached.
    """
    if n_buckets < 1:
        raise ConfigurationError(f"n_buckets must be positive, got {n_buckets}")
    metric = DeviationMetric.coerce(metric)
    segments: list[Segment] = [
        (bucket.left, bucket.right, bucket.count) for bucket in histogram.buckets()
    ]
    # Degenerate inputs return early rather than trusting the merge loop: an
    # empty union (every site still empty) stays empty, and a budget at or
    # above the segment count (any single-bucket union) returns a copy.
    if not segments:
        return UnionHistogram([])
    if len(segments) <= n_buckets:
        return UnionHistogram(
            [Bucket(left, right, count) for left, right, count in segments]
        )

    # Each group is a contiguous run of segments, tracked as index ranges into
    # the segment list, linked into a doubly linked list for neighbour lookup.
    n_segments = len(segments)
    start_of = list(range(n_segments))
    end_of = list(range(n_segments))
    next_group: list[int] = [i + 1 for i in range(n_segments)]
    prev_group: list[int] = [i - 1 for i in range(n_segments)]
    alive = [True] * n_segments
    version = [0] * n_segments

    # A pair's cost is segments_phi over the joined run, evaluated here in the
    # same float-op order from per-segment value counts computed once: the
    # heap sees the same costs bit for bit, without a fresh slice of tuples
    # and a metric dispatch per segment on every push.
    if value_unit <= 0:
        raise ConfigurationError(f"value_unit must be positive, got {value_unit}")
    counts = [count for _, _, count in segments]
    value_counts = [
        _segment_value_count(left, right, value_unit) for left, right, _ in segments
    ]
    squared = metric is DeviationMetric.VARIANCE

    def group_cost(left_group: int, right_group: int) -> float:
        start, stop = start_of[left_group], end_of[right_group] + 1
        run_counts = counts[start:stop]
        run_values = value_counts[start:stop]
        total_values = sum(run_values)
        total_count = sum(run_counts)
        if total_values <= 0 or total_count <= 0:
            return 0.0
        average_frequency = total_count / total_values
        phi = 0.0
        if squared:
            for count, n_values in zip(run_counts, run_values, strict=True):
                deviation = count / n_values - average_frequency
                phi += n_values * (deviation * deviation)
        else:
            for count, n_values in zip(run_counts, run_values, strict=True):
                phi += n_values * abs(count / n_values - average_frequency)
        return phi

    heap: list[tuple[float, int, int, int, int]] = []
    for group in range(n_segments - 1):
        heapq.heappush(heap, (group_cost(group, group + 1), group, group + 1, 0, 0))

    remaining = n_segments
    while remaining > n_buckets and heap:
        _, left_group, right_group, left_version, right_version = heapq.heappop(heap)
        if not (alive[left_group] and alive[right_group]):
            continue
        if version[left_group] != left_version or version[right_group] != right_version:
            continue
        if next_group[left_group] != right_group:
            continue

        end_of[left_group] = end_of[right_group]
        alive[right_group] = False
        version[left_group] += 1
        successor = next_group[right_group]
        next_group[left_group] = successor
        if successor < n_segments:
            prev_group[successor] = left_group
        remaining -= 1

        predecessor = prev_group[left_group]
        if predecessor >= 0:
            heapq.heappush(
                heap,
                (
                    group_cost(predecessor, left_group),
                    predecessor,
                    left_group,
                    version[predecessor],
                    version[left_group],
                ),
            )
        if successor < n_segments:
            heapq.heappush(
                heap,
                (
                    group_cost(left_group, successor),
                    left_group,
                    successor,
                    version[left_group],
                    version[successor],
                ),
            )

    buckets: list[Bucket] = []
    group = 0
    while group < n_segments:
        if alive[group]:
            covered = segments[start_of[group] : end_of[group] + 1]
            left = covered[0][0]
            right = max(segment[1] for segment in covered)
            count = sum(segment[2] for segment in covered)
            buckets.append(Bucket(left, right, count))
            group = next_group[group]
        else:
            group += 1
    return UnionHistogram(buckets)
