"""The array-native DADO histogram against a replica of the seed's list-of-buckets DADO.

The replica below keeps the seed's representation: a Python list of mutable
buckets, a border list rebuilt on every lookup and phi tables recomputed
after every structural change.  Replaying the same per-value inserts into
both must end in exactly the same buckets, so every split, merge and
out-of-range borrow decision of the array core matches the seed's.  This is
the only check of DADO maintenance against an independent implementation.
"""

from __future__ import annotations

import bisect

import numpy as np

from repro.core.base import DynamicHistogram
from repro.core.bucket import Bucket
from repro.core.deviation import segments_phi
from repro.core.dynamic_vopt import DADOHistogram, _project_segments


class _LegacyBucket:
    """The seed's mutable bucket: a value range with k sub-range counters."""

    __slots__ = ("left", "right", "counts")

    def __init__(self, left: float, right: float, counts: list[float]) -> None:
        self.left = left
        self.right = right
        self.counts = counts

    @property
    def count(self) -> float:
        return sum(self.counts)

    @property
    def is_point_mass(self) -> bool:
        return self.right == self.left

    def borders(self) -> list[float]:
        k = len(self.counts)
        if self.is_point_mass or k == 1:
            return [self.left, self.right]
        step = (self.right - self.left) / k
        return [self.left + i * step for i in range(k)] + [self.right]

    def segments(self):
        if self.is_point_mass:
            return [(self.left, self.right, self.count)]
        borders = self.borders()
        return [
            (borders[i], borders[i + 1], self.counts[i])
            for i in range(len(self.counts))
        ]

    def sub_bucket_index(self, value: float) -> int:
        k = len(self.counts)
        if self.is_point_mass or k == 1:
            return 0
        position = (value - self.left) / (self.right - self.left)
        return max(0, min(int(position * k), k - 1))


class LegacyDADOHistogram(DynamicHistogram):
    """The seed's DADO maintenance strategy, written out independently.

    A faithful standalone replica of the seed implementation: the bucket
    list is a list of Python objects, locating a bucket rebuilds the border
    list, phi goes through the generic :func:`segments_phi`, and every
    split / merge / out-of-range borrow recomputes *all* bucket and pair phis
    from scratch.  It shares no maintenance code with the array-native
    :class:`DADOHistogram`, only the phi arithmetic and the sub-range
    projection.
    """

    metric = "absolute"

    def __init__(self, n_buckets: int, *, sub_buckets: int = 2, value_unit: float = 1.0):
        self._budget = n_buckets
        self._k = sub_buckets
        self._value_unit = value_unit
        self._loading: dict[float, int] | None = {}
        self._buckets: list[_LegacyBucket] = []
        self._phis: list[float] = []
        self._pair_phis: list[float] = []
        self._repartition_count = 0

    # -- read ----------------------------------------------------------
    def buckets(self) -> list[Bucket]:
        if self._loading is not None:
            return [
                Bucket(value, value, float(count))
                for value, count in sorted(self._loading.items())
            ]
        result: list[Bucket] = []
        for bucket in self._buckets:
            width = bucket.right - bucket.left
            if 0 < width <= self._value_unit:
                snapped = round(bucket.left / self._value_unit) * self._value_unit
                result.append(Bucket(snapped, snapped, bucket.count))
                continue
            for left, right, count in bucket.segments():
                result.append(Bucket(left, right, count))
        return result

    # -- update --------------------------------------------------------
    def _insert(self, value: float) -> None:
        value = float(value)
        if self._loading is not None:
            self._loading[value] = self._loading.get(value, 0) + 1
            if len(self._loading) > self._budget:
                self._bootstrap()
            return
        if value < self._buckets[0].left or value > self._buckets[-1].right:
            self._insert_out_of_range(value)
            return
        index = self._locate_bucket(value)
        bucket = self._buckets[index]
        bucket.counts[bucket.sub_bucket_index(value)] += 1.0
        # Seed behaviour: an in-range insert refreshes only the touched
        # bucket's phi and its adjacent pairs (the full-table rebuilds are
        # reserved for split / merge / resize / out-of-range borrow).
        self._refresh_bucket(index)
        self._maybe_repartition()

    def _delete(self, value: float) -> None:  # pragma: no cover - inserts only
        raise NotImplementedError("the seed replica only replays inserts")

    def _bootstrap(self) -> None:
        items = sorted(self._loading.items())
        self._loading = None
        values = [value for value, _ in items]
        if len(values) == 1:
            only_value, only_count = items[0]
            self._buckets = [
                _LegacyBucket(only_value, only_value, [float(only_count)] + [0.0] * (self._k - 1))
            ]
        else:
            self._buckets = [
                _LegacyBucket(values[i], values[i + 1], [0.0] * self._k)
                for i in range(len(values) - 1)
            ]
            for value, count in items:
                index = min(bisect.bisect_right(values, value) - 1, len(self._buckets) - 1)
                index = max(index, 0)
                bucket = self._buckets[index]
                bucket.counts[bucket.sub_bucket_index(value)] += float(count)
        self._rebuild_caches()

    def _locate_bucket(self, value: float) -> int:
        # Seed behaviour: the border list is rebuilt on every location.
        lefts = [bucket.left for bucket in self._buckets]
        index = bisect.bisect_right(lefts, value) - 1
        index = max(0, min(index, len(self._buckets) - 1))
        bucket = self._buckets[index]
        if value > bucket.right and index + 1 < len(self._buckets):
            next_bucket = self._buckets[index + 1]
            if abs(value - bucket.right) <= abs(next_bucket.left - value):
                self._resize_bucket(index, bucket.left, value)
            else:
                self._resize_bucket(index + 1, value, next_bucket.right)
                return index + 1
        return index

    def _resize_bucket(self, index: int, new_left: float, new_right: float) -> None:
        bucket = self._buckets[index]
        resized = _LegacyBucket(new_left, new_right, [0.0] * self._k)
        resized.counts = _project_segments(bucket.segments(), resized.borders())
        self._buckets[index] = resized
        self._rebuild_caches()

    def _insert_out_of_range(self, value: float) -> None:
        new_bucket = _LegacyBucket(value, value, [1.0] + [0.0] * (self._k - 1))
        if value < self._buckets[0].left:
            self._buckets.insert(0, new_bucket)
        else:
            self._buckets.append(new_bucket)
        self._rebuild_caches()
        if len(self._buckets) > self._budget:
            merge_index = self._find_best_merge()
            if merge_index is not None:
                self._merge_pair(merge_index)
                self._repartition_count += 1

    def _bucket_phi(self, bucket: _LegacyBucket) -> float:
        return segments_phi(bucket.segments(), self.metric, value_unit=self._value_unit)

    def _merged_phi(self, first: _LegacyBucket, second: _LegacyBucket) -> float:
        return segments_phi(
            first.segments() + second.segments(), self.metric, value_unit=self._value_unit
        )

    def _rebuild_caches(self) -> None:
        # Seed behaviour: every structural change recomputes the full tables.
        self._phis = [self._bucket_phi(bucket) for bucket in self._buckets]
        self._pair_phis = [
            self._merged_phi(self._buckets[i], self._buckets[i + 1])
            for i in range(len(self._buckets) - 1)
        ]

    def _refresh_bucket(self, index: int) -> None:
        self._phis[index] = self._bucket_phi(self._buckets[index])
        if index > 0:
            self._pair_phis[index - 1] = self._merged_phi(
                self._buckets[index - 1], self._buckets[index]
            )
        if index < len(self._buckets) - 1:
            self._pair_phis[index] = self._merged_phi(
                self._buckets[index], self._buckets[index + 1]
            )

    def _find_best_split(self) -> int | None:
        best_index: int | None = None
        best_phi = 0.0
        for index, phi in enumerate(self._phis):
            if self._buckets[index].right - self._buckets[index].left <= self._value_unit:
                continue
            if phi > best_phi:
                best_phi = phi
                best_index = index
        return best_index

    def _find_best_merge(self, *, exclude: int | None = None) -> int | None:
        best_index: int | None = None
        best_phi = float("inf")
        for index, phi in enumerate(self._pair_phis):
            if exclude is not None and index in (exclude - 1, exclude):
                continue
            if phi < best_phi:
                best_phi = phi
                best_index = index
        return best_index

    def _maybe_repartition(self) -> None:
        if len(self._buckets) < 3:
            return
        split_index = self._find_best_split()
        if split_index is None:
            return
        merge_index = self._find_best_merge(exclude=split_index)
        if merge_index is None:
            return
        if self._pair_phis[merge_index] - self._phis[split_index] > 0.0:
            return
        if merge_index > split_index:
            self._merge_pair(merge_index)
            self._split_bucket(split_index)
        else:
            self._split_bucket(split_index)
            self._merge_pair(merge_index)
        self._repartition_count += 1

    def _merge_pair(self, index: int) -> None:
        first, second = self._buckets[index], self._buckets[index + 1]
        merged = _LegacyBucket(first.left, second.right, [0.0] * self._k)
        merged.counts = _project_segments(
            first.segments() + second.segments(), merged.borders()
        )
        self._buckets[index : index + 2] = [merged]
        self._rebuild_caches()

    def _split_bucket(self, index: int) -> None:
        bucket = self._buckets[index]
        if bucket.is_point_mass:
            return
        borders = bucket.borders()
        k = len(bucket.counts)
        total = bucket.count
        best_border_index = 1
        best_imbalance = float("inf")
        cumulative = 0.0
        for border_index in range(1, k):
            cumulative += bucket.counts[border_index - 1]
            imbalance = abs(cumulative - (total - cumulative))
            if imbalance < best_imbalance:
                best_imbalance = imbalance
                best_border_index = border_index
        split_value = borders[best_border_index]
        left_count = sum(bucket.counts[:best_border_index])
        right_count = total - left_count
        left_bucket = _LegacyBucket(bucket.left, split_value, [left_count / k] * k)
        right_bucket = _LegacyBucket(split_value, bucket.right, [right_count / k] * k)
        self._buckets[index : index + 1] = [left_bucket, right_bucket]
        self._rebuild_caches()


def skewed_stream(n: int, seed: int = 11) -> np.ndarray:
    """Cluster-shaped integers with a slowly growing out-of-range tail."""
    rng = np.random.default_rng(seed)
    centres = rng.choice(np.arange(0, 5000, 250), size=n)
    values = (centres + rng.integers(-40, 41, size=n)).astype(float)
    tail = rng.random(size=n) < 0.002
    values[tail] = 6000.0 + np.cumsum(tail)[tail] * 10.0
    return values


def _buckets(histogram) -> list[tuple[float, float, float]]:
    return [(bucket.left, bucket.right, bucket.count) for bucket in histogram.buckets()]


def test_per_value_inserts_end_in_the_seed_replicas_buckets():
    values = skewed_stream(4_000)
    seed, array_native = LegacyDADOHistogram(32), DADOHistogram(32)
    for value in values:
        seed.insert(value)
        array_native.insert(value)
    assert _buckets(array_native) == _buckets(seed)
