"""Equi-Depth histogram: Equi-Sum(V, F) in the framework of Section 2.1.

The attribute-value axis is partitioned so that every bucket holds (as nearly
as possible) the same number of points.  It is the non-singleton part of the
Compressed histogram and the basis of the Approximate Histograms of Gibbons et
al. [10].
"""

from __future__ import annotations


import numpy as np

from ..metrics.distribution import DataDistribution
from .base import StaticHistogram, extract_value_frequencies, value_range_bucket

__all__ = ["EquiDepthHistogram", "equi_depth_partition"]


def equi_depth_partition(
    values: np.ndarray, frequencies: np.ndarray, n_buckets: int
) -> list[tuple[int, int]]:
    """Partition sorted distinct values into roughly equal-count groups.

    Returns inclusive ``(start_index, end_index)`` pairs into ``values``.  A
    single distinct value never straddles two buckets, so when one value's
    frequency exceeds the ideal depth the actual bucket counts deviate; fewer
    than ``n_buckets`` groups may be produced in that case.
    """
    n_values = len(values)
    if n_values == 0:
        return []
    n_buckets = min(n_buckets, n_values)
    cumulative = np.cumsum(frequencies)
    total = float(cumulative[-1])

    boundaries: list[int] = []
    previous_end = -1
    for bucket_index in range(1, n_buckets):
        target = total * bucket_index / n_buckets
        end = int(np.searchsorted(cumulative, target, side="left"))
        end = max(end, previous_end + 1)
        if end >= n_values - 1:
            break
        boundaries.append(end)
        previous_end = end

    groups: list[tuple[int, int]] = []
    start = 0
    for end in boundaries:
        groups.append((start, end))
        start = end + 1
    groups.append((start, n_values - 1))
    return groups


class EquiDepthHistogram(StaticHistogram):
    """Buckets of (approximately) equal point counts."""

    @classmethod
    def build(
        cls, data: DataDistribution, n_buckets: int, *, value_unit: float = 1.0
    ) -> EquiDepthHistogram:
        """Build an equi-depth histogram with at most ``n_buckets`` buckets."""
        cls._validate_bucket_budget(n_buckets)
        values, frequencies = extract_value_frequencies(data)
        groups = equi_depth_partition(values, frequencies, n_buckets)
        buckets = [
            value_range_bucket(
                float(values[start]),
                float(values[end]),
                float(frequencies[start : end + 1].sum()),
                value_unit=value_unit,
            )
            for start, end in groups
        ]
        return cls(buckets)
