"""Dynamic Compressed (DC) histogram (Section 3 of the paper).

A Compressed histogram keeps the highest-frequency values in *singular*
(singleton) buckets and partitions the rest equi-depth into *regular* buckets.
The dynamic version maintains this structure incrementally:

* the first ``n`` distinct points build the initial buckets (loading phase);
* every subsequent point is routed to its bucket by binary search and the
  bucket counter is incremented (end buckets stretch to cover out-of-range
  points);
* when the counts of the regular buckets deviate from uniformity so strongly
  that a Chi-square test rejects the null hypothesis of equal counts at
  significance ``alpha_min`` (1e-6 by default), the histogram *repartitions*:
  singular buckets that fell below the threshold ``T = N / n`` are degraded to
  regular mass, bucket borders are recomputed so all regular buckets have equal
  counts again (using the uniform assumption inside the old buckets, so total
  count is preserved), and narrow heavy buckets are promoted to singular.

Cost: O(log n) per insertion plus occasional O(n) repartitions -- the
O(N log n) total the paper reports in Section 3.1.

The regular buckets live in a contiguous
:class:`~repro.core.bucket_array.BucketArray` (ascending borders sharing
``rights[i] == lefts[i + 1]``, one counter per bucket); singular buckets stay
a value-keyed dict for O(1) membership tests on the insert hot path.  The
``buckets()`` list and the segment view are derived from those arrays, and
batched deletes bin a whole in-range batch against the border array in one
``searchsorted`` + ``bincount`` pass.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .._validation import require_positive_float, require_positive_int, require_probability
from ..exceptions import DeletionError, InsufficientDataError
from ..metrics.chi_square import chi_square_probability
from .base import DynamicHistogram
from .bucket import Bucket
from .bucket_array import BucketArray
from .segment_view import SegmentView

__all__ = ["DCHistogram"]

#: Default significance threshold below which repartitioning is triggered.
DEFAULT_ALPHA_MIN = 1.0e-6

#: Below this batch size the vectorised delete path costs more than it saves.
_VECTOR_MIN_BATCH = 32


class DCHistogram(DynamicHistogram):
    """Dynamic Compressed histogram with a Chi-square repartitioning trigger.

    Parameters
    ----------
    n_buckets:
        Total bucket budget (singular + regular), fixed by available memory.
    alpha_min:
        Significance threshold of the Chi-square uniformity test; lower values
        repartition less often.  The paper uses 1e-6 and reports that results
        are insensitive to the exact value as long as it is much below 1.
    value_unit:
        Spacing between adjacent domain values; a regular bucket whose width is
        at most one value unit and whose count exceeds the singular threshold
        is promoted to a singular bucket (``1.0`` for integer domains).
    """

    def __init__(
        self,
        n_buckets: int,
        *,
        alpha_min: float = DEFAULT_ALPHA_MIN,
        value_unit: float = 1.0,
    ) -> None:
        require_positive_int(n_buckets, "n_buckets")
        require_probability(alpha_min, "alpha_min")
        require_positive_float(value_unit, "value_unit")
        self._budget = n_buckets
        self._alpha_min = alpha_min
        self._value_unit = value_unit

        # Loading phase buffer: distinct value -> count.
        self._loading: dict[float, int] | None = {}

        # Regular buckets: contiguous ranges in one structure of arrays
        # (rights[i] == lefts[i + 1]; the end borders stretch to absorb
        # out-of-range points).
        self._array: BucketArray = BucketArray.empty(1)

        # Singular buckets: point masses keyed by value.
        self._singular: dict[float, float] = {}

        # Running statistics of regular counts for the O(1) Chi-square check.
        self._regular_total = 0.0
        self._regular_sumsq = 0.0

        self._repartition_count = 0

    # ------------------------------------------------------------------
    # public accessors
    # ------------------------------------------------------------------
    @property
    def bucket_budget(self) -> int:
        """Total number of buckets the histogram may use."""
        return self._budget

    @property
    def alpha_min(self) -> float:
        """Significance threshold of the repartitioning trigger."""
        return self._alpha_min

    @property
    def repartition_count(self) -> int:
        """Number of repartitions performed so far (border relocations)."""
        return self._repartition_count

    @property
    def is_loading(self) -> bool:
        """True while the initial loading phase is still buffering points."""
        return self._loading is not None

    @property
    def singular_value_count(self) -> int:
        """Number of singular (singleton) buckets currently in use."""
        return 0 if self._loading is not None else len(self._singular)

    @property
    def bucket_array(self) -> BucketArray:
        """The live regular-bucket arrays (empty during the loading phase).

        The single source of truth for the regular partition; treat as
        read-only outside maintenance code.
        """
        return self._array

    # ------------------------------------------------------------------
    # read API (derived views of the array state)
    # ------------------------------------------------------------------
    def buckets(self) -> list[Bucket]:
        if self._loading is not None:
            # During loading every buffered distinct value is its own bucket.
            return [
                Bucket(value, value, float(count))
                for value, count in sorted(self._loading.items())
            ]
        array = self._array
        result: list[Bucket] = [
            Bucket(float(array.lefts[i]), float(array.rights[i]), float(array.sub_counts[i, 0]))
            for i in range(len(array))
        ]
        for value, count in self._singular.items():
            result.append(Bucket(value, value, count))
        result.sort(key=lambda bucket: (bucket.left, bucket.right))
        return result

    def _build_view(self) -> SegmentView:
        """Segment view straight from the live arrays (no Bucket objects)."""
        if self._loading is not None:
            items = sorted(self._loading.items())
            values = np.asarray([value for value, _ in items], dtype=float)
            counts = np.asarray([float(count) for _, count in items], dtype=float)
            return SegmentView(values, values, counts)
        array = self._array
        if not self._singular:
            return SegmentView(array.lefts, array.rights, array.sub_counts[:, 0])
        singular_values = np.asarray(list(self._singular), dtype=float)
        singular_counts = np.asarray(list(self._singular.values()), dtype=float)
        lefts = np.concatenate((array.lefts, singular_values))
        rights = np.concatenate((array.rights, singular_values))
        counts = np.concatenate((array.sub_counts[:, 0], singular_counts))
        # Keep the (left, right) value order of the exposed bucket list, so
        # the view's end borders and aggregate totals describe the histogram
        # range rather than the storage layout.
        order = np.lexsort((rights, lefts))
        return SegmentView(lefts[order], rights[order], counts[order])

    # ------------------------------------------------------------------
    # update API
    # ------------------------------------------------------------------
    def _insert(self, value: float) -> None:
        if self._insert_value(float(value)) and self._should_repartition():
            self._repartition()

    def _insert_value(self, value: float) -> bool:
        """Insert one value; True when a regular bucket counter was bumped.

        Regular increments are the ones whose Chi-square uniformity check may
        be batched (:meth:`insert_many`); loading-phase buffering and singular
        bucket increments never trigger a repartition on their own.
        """
        if self._loading is not None:
            self._loading[value] = self._loading.get(value, 0) + 1
            if len(self._loading) >= self._budget:
                self._finish_loading()
            return False

        if value in self._singular:
            self._singular[value] += 1.0
            return False

        index = self._locate_regular(value, extend=True)
        self._increment_regular(index, 1.0)
        return True

    def insert_many(self, values, *, repartition_interval: int = 1) -> None:
        """Insert a batch of values, optionally batching the Chi-square checks.

        With the default ``repartition_interval = 1`` the result is identical
        to inserting the values one by one; it just avoids per-value template
        overhead.  A larger interval runs the uniformity test (and any
        resulting repartition) only every ``repartition_interval`` regular
        increments and once at the end of the batch, trading slightly delayed
        repartitions for substantially higher sustained insert throughput on
        bulk loads.  The total count is always exact.
        """
        require_positive_int(repartition_interval, "repartition_interval")
        try:
            pending = 0
            for value in values:
                if self._insert_value(float(value)):
                    pending += 1
                    if pending >= repartition_interval:
                        if self._should_repartition():
                            self._repartition()
                        pending = 0
            if pending and self._should_repartition():
                self._repartition()
        finally:
            self._invalidate_view()

    # ------------------------------------------------------------------
    # deletion
    # ------------------------------------------------------------------
    def _delete(self, value: float) -> None:
        value = float(value)
        if self._loading is not None:
            count = self._loading.get(value, 0)
            if count > 1:
                self._loading[value] = count - 1
            elif count == 1:
                del self._loading[value]
            else:
                raise DeletionError(f"value {value!r} is not present in the loading buffer")
            return

        # Sum the raw counters directly: total_count would build a segment
        # view that the surrounding delete() template is about to invalidate.
        if self._regular_total + sum(self._singular.values()) < 1.0 - 1e-9:
            raise DeletionError("cannot delete from an empty histogram")

        # Remove one unit of mass.  Counters may hold fractional counts after
        # a repartition, so keep taking from the closest non-empty buckets
        # until a full unit has been removed (Section 7.3 spill policy).
        counts = self._array.sub_counts[:, 0]
        remaining = 1.0
        if value in self._singular and self._singular[value] > 0:
            taken = min(self._singular[value], remaining)
            self._singular[value] -= taken
            remaining -= taken
        if remaining > 1e-12:
            index = self._locate_regular(value, extend=False)
            available = float(counts[index])
            if available > 0:
                taken = min(available, remaining)
                self._increment_regular(index, -taken)
                remaining -= taken
        while remaining > 1e-12:
            spill = self._closest_non_empty(value)
            if spill is None:
                raise DeletionError("all buckets are empty; nothing to delete")
            kind, key = spill
            if kind == "singular":
                taken = min(self._singular[key], remaining)
                self._singular[key] -= taken
            else:
                taken = min(float(counts[int(key)]), remaining)
                self._increment_regular(int(key), -taken)
            remaining -= taken

    def _delete_many(self, values: Sequence[float]) -> None:
        """Vectorised batch deletion over the regular border array.

        One ``searchsorted`` + ``bincount`` pass computes each regular
        bucket's share of the batch (singular hits are aggregated per distinct
        value first, spilling their remainder into the covering regular
        bucket exactly as the per-value path does).  When any bucket would be
        drained below its share -- which is when the per-value spill policy
        (Section 7.3) kicks in -- the whole batch falls back to strict
        per-value handling.
        """
        if (
            self._loading is not None
            or len(values) < _VECTOR_MIN_BATCH
            or not self._try_delete_vectorised(np.asarray(values, dtype=float))
        ):
            super()._delete_many(values)

    def _try_delete_vectorised(self, values: np.ndarray) -> bool:
        """Attempt the all-at-once delete; False = caller must go per-value."""
        array = self._array
        n = len(array)
        if n == 0:
            return False
        counts = array.sub_counts[:, 0]

        # Split the batch between singular buckets and regular mass.  Per
        # distinct singular value v with multiplicity m, the per-value path
        # takes min(singular[v], m) units from the singular bucket and routes
        # the remainder into the regular bucket covering v.
        singular_takes: list[tuple[float, float]] = []
        if self._singular:
            singular_sorted = np.asarray(sorted(self._singular), dtype=float)
            positions = np.searchsorted(singular_sorted, values)
            safe = np.minimum(positions, singular_sorted.size - 1)
            is_singular = singular_sorted[safe] == values
        else:
            is_singular = np.zeros(values.shape, dtype=bool)

        indices = np.searchsorted(array.lefts, values, side="right") - 1
        np.clip(indices, 0, n - 1, out=indices)
        regular_needed = np.bincount(
            indices[~is_singular], minlength=n
        ).astype(float)

        if is_singular.any():
            hit_values, multiplicities = np.unique(
                values[is_singular], return_counts=True
            )
            hit_indices = np.clip(
                np.searchsorted(array.lefts, hit_values, side="right") - 1, 0, n - 1
            )
            for value, multiplicity, index in zip(
                hit_values, multiplicities, hit_indices, strict=True
            ):
                available = self._singular.get(float(value), 0.0)
                take = min(available, float(multiplicity))
                singular_takes.append((float(value), take))
                remainder = float(multiplicity) - take
                if remainder > 0:
                    regular_needed[index] += remainder

        if np.any(regular_needed > counts):
            return False  # a bucket would drain: per-value spill policy

        before = counts[regular_needed > 0]
        counts -= regular_needed
        after = counts[regular_needed > 0]
        self._regular_total -= float(regular_needed.sum())
        self._regular_sumsq += float((after * after - before * before).sum())
        for value, take in singular_takes:
            if take > 0:
                self._singular[value] -= take
        return True

    # ------------------------------------------------------------------
    # loading phase
    # ------------------------------------------------------------------
    def _finish_loading(self) -> None:
        """Convert the loading buffer into the initial regular buckets."""
        assert self._loading is not None
        items = sorted(self._loading.items())
        # repro-verify: ignore[REP003] reached only from the insert template, which invalidates the view on exit
        self._loading = None
        if not items:
            raise InsufficientDataError("loading phase ended with no data")

        values = [value for value, _ in items]
        counts = [float(count) for _, count in items]
        if len(values) == 1:
            lefts = [values[0]]
            rights = [values[0]]
            bucket_counts = [counts[0]]
        else:
            # One bucket per distinct point: borders sit at the points, the
            # last point is folded into the final bucket.
            lefts = values[:-1]
            rights = values[1:]
            bucket_counts = counts[:-1]
            bucket_counts[-1] += counts[-1]
        # repro-verify: ignore[REP003] reached only from the insert template, which invalidates the view on exit
        self._array = BucketArray(
            np.asarray(lefts, dtype=float),
            np.asarray(rights, dtype=float),
            np.asarray(bucket_counts, dtype=float).reshape(-1, 1),
        )
        self._regular_total = sum(bucket_counts)
        self._regular_sumsq = sum(count * count for count in bucket_counts)

    # ------------------------------------------------------------------
    # regular bucket helpers
    # ------------------------------------------------------------------
    def _locate_regular(self, value: float, *, extend: bool) -> int:
        """Index of the regular bucket for ``value``; optionally extend end buckets."""
        array = self._array
        n = len(array)
        if n == 0:
            raise InsufficientDataError("histogram has no regular buckets yet")
        lefts = array.lefts
        if value < lefts[0]:
            if extend:
                lefts[0] = value
            return 0
        if value > array.rights[-1]:
            if extend:
                array.rights[-1] = value
            return n - 1
        index = int(np.searchsorted(lefts, value, side="right")) - 1
        return max(0, min(index, n - 1))

    def _increment_regular(self, index: int, delta: float) -> None:
        counts = self._array.sub_counts
        old = float(counts[index, 0])
        new = old + delta
        counts[index, 0] = new
        self._regular_total += delta
        self._regular_sumsq += new * new - old * old

    def _closest_non_empty(self, value: float) -> tuple[str, float] | None:
        """Locate the non-empty bucket whose range lies closest to ``value``.

        The regular buckets are ranked with one numpy distance pass; ``argmin``
        keeps the first of equally close buckets, and a singular bucket must
        be strictly closer to win.
        """
        array = self._array
        best: tuple[float, str, float] | None = None
        candidates = np.flatnonzero(array.sub_counts[:, 0] > 0)
        if candidates.size:
            lefts = array.lefts[candidates]
            rights = array.rights[candidates]
            distances = np.where(
                (lefts <= value) & (value <= rights),
                0.0,
                np.minimum(np.abs(value - lefts), np.abs(value - rights)),
            )
            closest = int(np.argmin(distances))
            best = (float(distances[closest]), "regular", float(candidates[closest]))
        for singular_value, count in self._singular.items():
            if count <= 0:
                continue
            distance = abs(singular_value - value)
            if best is None or distance < best[0]:
                best = (distance, "singular", singular_value)
        if best is None:
            return None
        return best[1], best[2]

    # ------------------------------------------------------------------
    # repartitioning
    # ------------------------------------------------------------------
    def _should_repartition(self) -> bool:
        """Chi-square uniformity test on the regular bucket counts."""
        n_regular = len(self._array)
        if n_regular < 2 or self._regular_total <= 0:
            return False
        mean = self._regular_total / n_regular
        chi2 = (self._regular_sumsq - n_regular * mean * mean) / mean
        if chi2 <= 0:
            return False
        dof = n_regular - 1
        # Cheap pre-filter: when chi2 is below its expectation the significance
        # is far above any sensible alpha_min.
        if chi2 <= dof:
            return False
        return chi_square_probability(chi2, dof) < self._alpha_min

    def _repartition(self) -> None:
        """Re-establish the Compressed partition constraint.

        Degrades light singular buckets to regular mass, recomputes regular
        borders so every regular bucket carries the same count (one array
        splice), and promotes narrow heavy regular buckets to singular
        buckets.  The total count is preserved exactly.
        """
        self._repartition_count += 1
        total = self._regular_total + sum(self._singular.values())
        if total <= 0:
            return
        threshold = total / self._budget
        array = self._array

        # Collect the regular mass as contiguous piecewise-uniform segments.
        segments: list[list[float]] = [
            [float(array.lefts[i]), float(array.rights[i]), float(array.sub_counts[i, 0])]
            for i in range(len(array))
        ]

        surviving_singular: dict[float, float] = {}
        segment_lefts = [segment[0] for segment in segments]
        for value, count in self._singular.items():
            if count > threshold:
                surviving_singular[value] = count
            elif count > 0:
                # Degrade: fold the mass back into the regular bucket whose
                # range contains (or is closest to) the singular value, keeping
                # the regular segments contiguous and sorted.
                target = int(np.searchsorted(segment_lefts, value, side="right")) - 1
                target = max(0, min(target, len(segments) - 1))
                segments[target][2] += count

        # Promote narrow heavy regular segments to singular buckets.  The
        # singular value is snapped to the domain grid, mirroring the paper's
        # "width one" buckets whose borders sit on actual attribute values.
        regular_segments: list[tuple[float, float, float]] = []
        for left, right, count in segments:
            is_narrow = (right - left) <= self._value_unit
            if is_narrow and count > threshold and len(surviving_singular) < self._budget - 1:
                midpoint = (left + right) / 2.0
                snapped = round(midpoint / self._value_unit) * self._value_unit
                surviving_singular[snapped] = surviving_singular.get(snapped, 0.0) + count
            else:
                regular_segments.append((left, right, count))

        n_regular = max(1, self._budget - len(surviving_singular))
        lefts, counts, right = _equalize_segments(regular_segments, n_regular)

        # repro-verify: ignore[REP003] reached only from the insert/delete templates, which invalidate the view on exit
        self._array = BucketArray(
            np.asarray(lefts, dtype=float),
            np.asarray(lefts[1:] + [right], dtype=float),
            np.asarray(counts, dtype=float).reshape(-1, 1),
        )
        self._singular = surviving_singular
        self._regular_total = sum(counts)
        self._regular_sumsq = sum(count * count for count in counts)


def _equalize_segments(
    segments: list[tuple[float, float, float]], n_buckets: int
) -> tuple[list[float], list[float], float]:
    """Partition piecewise-uniform segments into equal-count contiguous buckets.

    Returns the new left borders, per-bucket counts and the right border of the
    last bucket.  The sum of the returned counts equals the total mass of the
    segments (up to floating point), preserving the "total area stays the
    same" invariant of Figure 1.
    """
    segments = sorted((s for s in segments if s[2] > 0), key=lambda s: (s[0], s[1]))
    if not segments:
        lowest = 0.0
        return [lowest], [0.0], lowest

    total = sum(count for _, _, count in segments)
    low = segments[0][0]
    high = max(right for _, right, _ in segments)
    if n_buckets == 1 or total <= 0 or high == low:
        return [low], [total], high

    target = total / n_buckets
    lefts = [low]
    counts: list[float] = []
    accumulated = 0.0     # mass assigned to completed buckets
    current = 0.0         # mass accumulated in the bucket being built

    for left, right, count in segments:
        remaining = count
        seg_left = left
        while current + remaining >= target - 1e-12 and len(lefts) < n_buckets:
            need = target - current
            # Uniform assumption: take the needed share of the remaining
            # mass proportionally along the remaining segment range.
            border = (
                seg_left + (need / remaining) * (right - seg_left)
                if remaining > 0 and right > seg_left
                else right
            )
            counts.append(target)
            lefts.append(border)
            accumulated += target
            remaining -= need
            seg_left = border
            current = 0.0
            if remaining <= 1e-12:
                remaining = 0.0
                break
        current += remaining

    # Close the final bucket with whatever mass is left.
    counts.append(max(total - accumulated, 0.0))
    # Guard against numerical drift producing an extra border.
    while len(lefts) > len(counts):
        lefts.pop()
    return lefts, counts, high
