"""Vectorised view of a histogram's piecewise-uniform segments.

Every read operation of :class:`~repro.core.base.Histogram` -- total count,
range estimation, equality estimation, CDF evaluation -- is ultimately a
computation over the histogram's segments.  Looping over freshly allocated
:class:`~repro.core.bucket.Bucket` objects on every call makes the estimation
hot path O(B) Python work per query, which is far too slow for the
heavy-traffic serving the ROADMAP targets.

:class:`SegmentView` answers those queries from numpy arrays:

* point-mass segments as sorted ``(values, counts)`` arrays with a prefix-sum,
* regular (positive-width) segments as sorted ``(lefts, rights, counts)``
  arrays with widths and a prefix-sum of counts.

With the prefix sums, ``count_at_most`` and friends become a ``searchsorted``
(O(log B)) plus O(1) arithmetic, and the ``*_many`` variants evaluate a whole
query batch with a handful of vectorised numpy operations.

Views are built **directly from the histogram's live array state** (the
:class:`~repro.core.bucket_array.BucketArray` single source of truth): the
input border/count arrays are adopted without copying whenever the segment
list is already sorted and free of point masses, so constructing a view costs
only the prefix sums.  There is no generation counter any more -- a histogram
caches its view and simply drops the cache on mutation (see
:meth:`~repro.core.base.Histogram.segment_view`).  Consequently a view is
valid until its source histogram's next mutation; library code always
re-fetches through ``segment_view()`` rather than holding one across writes.

The fast paths assume the regular segments are sorted and non-overlapping
(true for every histogram in the library); a view built from overlapping
segments sets ``fast = False`` and the base class falls back to the exact
per-bucket loops.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any

import numpy as np

from .bucket import Bucket

__all__ = ["SegmentView"]


class SegmentView:
    """Vectorised numpy view of a segment list (borders, counts, prefix sums)."""

    __slots__ = (
        "n_buckets",
        "total",
        "first_left",
        "last_right",
        "pm_values",
        "pm_counts",
        "pm_prefix",
        "reg_lefts",
        "reg_rights",
        "reg_counts",
        "reg_widths",
        "reg_prefix",
        "fast",
        "owned",
    )

    def __init__(
        self, lefts: np.ndarray, rights: np.ndarray, counts: np.ndarray
    ) -> None:
        lefts = np.asarray(lefts, dtype=float)
        rights = np.asarray(rights, dtype=float)
        counts = np.asarray(counts, dtype=float)
        self.n_buckets = int(lefts.shape[0])
        self.total = float(counts.sum()) if self.n_buckets else 0.0
        self.first_left = float(lefts[0]) if self.n_buckets else 0.0
        self.last_right = float(rights[-1]) if self.n_buckets else 0.0

        point = rights == lefts
        if point.any():
            pm_values = lefts[point]
            pm_counts = counts[point]
            regular = ~point
            reg_lefts = lefts[regular]
            reg_rights = rights[regular]
            reg_counts = counts[regular]
        else:
            # Common case (all segments have positive width): adopt the live
            # arrays as-is -- building the view is zero-copy up to the prefix
            # sums.
            pm_values = np.empty(0, dtype=float)
            pm_counts = np.empty(0, dtype=float)
            reg_lefts = lefts
            reg_rights = rights
            reg_counts = counts
        if pm_values.size > 1 and np.any(np.diff(pm_values) < 0):
            order = np.argsort(pm_values, kind="stable")
            pm_values = pm_values[order]
            pm_counts = pm_counts[order]
        self.pm_values = pm_values
        self.pm_counts = pm_counts
        self.pm_prefix = np.concatenate(([0.0], np.cumsum(pm_counts)))

        if reg_lefts.size > 1 and np.any(np.diff(reg_lefts) < 0):
            order = np.argsort(reg_lefts, kind="stable")
            reg_lefts = reg_lefts[order]
            reg_rights = reg_rights[order]
            reg_counts = reg_counts[order]
        self.reg_lefts = reg_lefts
        self.reg_rights = reg_rights
        self.reg_counts = reg_counts
        self.reg_widths = reg_rights - reg_lefts
        self.reg_prefix = np.concatenate(([0.0], np.cumsum(reg_counts)))

        # The O(log B) paths require the regular segments to be disjoint (they
        # may share borders); anything else falls back to per-bucket loops.
        self.fast = bool(
            reg_lefts.size < 2 or np.all(reg_lefts[1:] >= reg_rights[:-1])
        )
        # Zero-copy adoption above means the view may alias the histogram's
        # live arrays; ``detach()`` produces an owning clone safe to publish.
        self.owned = False

    def detach(self) -> SegmentView:
        """Return a clone that owns copies of every possibly-aliased array.

        The constructor adopts the caller's border/count arrays without
        copying, so a view built from a live histogram can alias state the
        next mutation rewrites in place.  A detached view copies those arrays
        (widths and prefix sums are always freshly allocated and never
        mutated, so they are shared), making it immutable-by-construction and
        safe to hand to readers that never hold the writer's lock.
        """
        if self.owned:
            return self
        clone = object.__new__(SegmentView)
        clone.n_buckets = self.n_buckets
        clone.total = self.total
        clone.first_left = self.first_left
        clone.last_right = self.last_right
        clone.pm_values = np.array(self.pm_values, dtype=float, copy=True)
        clone.pm_counts = np.array(self.pm_counts, dtype=float, copy=True)
        clone.pm_prefix = self.pm_prefix
        clone.reg_lefts = np.array(self.reg_lefts, dtype=float, copy=True)
        clone.reg_rights = np.array(self.reg_rights, dtype=float, copy=True)
        clone.reg_counts = np.array(self.reg_counts, dtype=float, copy=True)
        clone.reg_widths = self.reg_widths
        clone.reg_prefix = self.reg_prefix
        clone.fast = self.fast
        clone.owned = True
        return clone

    def to_wire(self) -> dict[str, Any]:
        """JSON-compatible form that :meth:`from_wire` rebuilds identically.

        Ships the total and the (already sorted) point-mass and regular
        arrays; the widths and prefix sums are derived from them again.
        ``total`` travels as is: re-summing the counts in another order
        could change its last bit.
        """
        return {
            "n_buckets": self.n_buckets,
            "total": self.total,
            "first_left": self.first_left,
            "last_right": self.last_right,
            "pm_values": self.pm_values.tolist(),
            "pm_counts": self.pm_counts.tolist(),
            "reg_lefts": self.reg_lefts.tolist(),
            "reg_rights": self.reg_rights.tolist(),
            "reg_counts": self.reg_counts.tolist(),
        }

    @classmethod
    def from_wire(cls, wire: Mapping[str, Any]) -> SegmentView:
        """Rebuild an owned view from :meth:`to_wire`, bit for bit."""
        view = object.__new__(cls)
        view.n_buckets = int(wire["n_buckets"])
        view.total = float(wire["total"])
        view.first_left = float(wire["first_left"])
        view.last_right = float(wire["last_right"])
        view.pm_values = np.asarray(wire["pm_values"], dtype=float)
        view.pm_counts = np.asarray(wire["pm_counts"], dtype=float)
        view.pm_prefix = np.concatenate(([0.0], np.cumsum(view.pm_counts)))
        view.reg_lefts = np.asarray(wire["reg_lefts"], dtype=float)
        view.reg_rights = np.asarray(wire["reg_rights"], dtype=float)
        view.reg_counts = np.asarray(wire["reg_counts"], dtype=float)
        view.reg_widths = view.reg_rights - view.reg_lefts
        view.reg_prefix = np.concatenate(([0.0], np.cumsum(view.reg_counts)))
        view.fast = bool(
            view.reg_lefts.size < 2 or np.all(view.reg_lefts[1:] >= view.reg_rights[:-1])
        )
        view.owned = True
        return view

    @classmethod
    def from_buckets(cls, buckets: Sequence[Bucket]) -> SegmentView:
        """Build a view from a materialised bucket list (generic fallback)."""
        return cls(
            np.asarray([bucket.left for bucket in buckets], dtype=float),
            np.asarray([bucket.right for bucket in buckets], dtype=float),
            np.asarray([bucket.count for bucket in buckets], dtype=float),
        )

    # ------------------------------------------------------------------
    # scalar queries
    # ------------------------------------------------------------------
    def count_at_most(self, x: float) -> float:
        """Mass with value <= ``x`` (point masses at ``x`` fully included)."""
        result = float(self.pm_prefix[np.searchsorted(self.pm_values, x, side="right")])
        index = int(np.searchsorted(self.reg_lefts, x, side="right")) - 1
        if index >= 0:
            fraction = (x - self.reg_lefts[index]) / self.reg_widths[index]
            fraction = min(max(fraction, 0.0), 1.0)
            result += float(self.reg_prefix[index] + self.reg_counts[index] * fraction)
        return result

    def range_count(self, low: float, high: float) -> float:
        """Mass in the closed range ``[low, high]`` (uniform assumption)."""
        if high < low:
            return 0.0
        pm_part = self.pm_prefix[
            np.searchsorted(self.pm_values, high, side="right")
        ] - self.pm_prefix[np.searchsorted(self.pm_values, low, side="left")]
        return float(pm_part + self._regular_at_most(high) - self._regular_at_most(low))

    def equal_estimate(self, value: float, granularity: float) -> float:
        """Mass estimated at exactly ``value`` (half-open bucket convention).

        A border shared by two adjacent buckets is counted in the right bucket
        only; the closed right border of a bucket with no right neighbour at
        that border (the last bucket, or a bucket followed by a gap) still
        counts, so no domain value inside the histogram range estimates to
        zero spuriously.
        """
        estimate = float(
            self.pm_prefix[np.searchsorted(self.pm_values, value, side="right")]
            - self.pm_prefix[np.searchsorted(self.pm_values, value, side="left")]
        )
        index = int(np.searchsorted(self.reg_lefts, value, side="right")) - 1
        if index >= 0 and value <= self.reg_rights[index]:
            width = self.reg_widths[index]
            estimate += float(self.reg_counts[index] / width * min(granularity, width))
        return estimate

    def _regular_at_most(self, x: float) -> float:
        index = int(np.searchsorted(self.reg_lefts, x, side="right")) - 1
        if index < 0:
            return 0.0
        fraction = (x - self.reg_lefts[index]) / self.reg_widths[index]
        fraction = min(max(fraction, 0.0), 1.0)
        return float(self.reg_prefix[index] + self.reg_counts[index] * fraction)

    # ------------------------------------------------------------------
    # vectorised batch queries
    # ------------------------------------------------------------------
    def count_at_most_many(
        self, xs: np.ndarray, *, include_point_mass_at: bool = True
    ) -> np.ndarray:
        """Vectorised ``count_at_most`` over an array of query points.

        ``include_point_mass_at = False`` gives the left limit (``P(X < x)``
        numerators), which the KS metric needs at CDF jump points.
        """
        xs = np.asarray(xs, dtype=float)
        side = "right" if include_point_mass_at else "left"
        result = self.pm_prefix[np.searchsorted(self.pm_values, xs, side=side)]
        result = np.asarray(result, dtype=float).copy()
        if self.reg_lefts.size:
            index = np.searchsorted(self.reg_lefts, xs, side="right") - 1
            safe = np.maximum(index, 0)
            fraction = np.clip(
                (xs - self.reg_lefts[safe]) / self.reg_widths[safe], 0.0, 1.0
            )
            result += np.where(
                index >= 0, self.reg_prefix[safe] + self.reg_counts[safe] * fraction, 0.0
            )
        return result

    def range_count_many(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Vectorised ``range_count`` over parallel arrays of closed ranges."""
        lows = np.asarray(lows, dtype=float)
        highs = np.asarray(highs, dtype=float)
        pm_part = self.pm_prefix[
            np.searchsorted(self.pm_values, highs, side="right")
        ] - self.pm_prefix[np.searchsorted(self.pm_values, lows, side="left")]
        reg_part = self._regular_at_most_many(highs) - self._regular_at_most_many(lows)
        return np.where(highs < lows, 0.0, pm_part + reg_part)

    def _regular_at_most_many(self, xs: np.ndarray) -> np.ndarray:
        if not self.reg_lefts.size:
            return np.zeros(np.shape(xs), dtype=float)
        index = np.searchsorted(self.reg_lefts, xs, side="right") - 1
        safe = np.maximum(index, 0)
        fraction = np.clip((xs - self.reg_lefts[safe]) / self.reg_widths[safe], 0.0, 1.0)
        return np.where(
            index >= 0, self.reg_prefix[safe] + self.reg_counts[safe] * fraction, 0.0
        )
