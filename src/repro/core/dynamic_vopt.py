"""Dynamic V-Optimal (DVO) and Dynamic Average-Deviation Optimal (DADO) histograms.

Section 4 of the paper.  Each bucket stores its value range and the point
counts of ``sub_buckets`` equal-width sub-ranges (two in the paper); this is
the minimal internal structure that lets the algorithm estimate how much the
frequencies inside a bucket deviate from their average (the bucket's *phi*,
Eq. 3 for DVO and Eq. 5 for DADO) without storing individual frequencies.

Maintenance is a sequence of *split-merge* repartitions: after each insertion
the algorithm finds the bucket with the largest phi (the best one to split --
Theorem 4.1) and the adjacent pair whose hypothetical merge has the smallest
phi; if splitting the former and merging the latter lowers the total phi
(``min delta phi <= 0``), the split and merge are performed.  Because memory is
fixed, the operations always come in pairs and the bucket count never changes.

Points beyond the current range get a fresh single-point bucket ("borrow one
bucket") immediately balanced by merging the most similar adjacent pair.
Deletions decrement the matching sub-bucket counter; when a bucket has run out
of points, the closest non-empty bucket is decremented instead (Section 7.3).

The histogram state is one :class:`~repro.core.bucket_array.BucketArray`
(borders, sub-bucket counts, phi and pair-phi caches as contiguous numpy
arrays).  Maintenance splices that array; ``buckets()`` and the segment view
are derived read-only views of it, and both the insert and the delete batch
paths bin whole in-range chunks with a single ``searchsorted`` + ``bincount``
pass over the live arrays.

A delete that spills ranks every sub-bucket slot by its distance to the value
with one stable numpy argsort over the slot borders.  ``delete_many`` ranks
its batch once (each delete's occurrence within its slot) and, after a spill,
re-tests only the later deletes of the slots that spill changed; a spill
inside a batch defers its phi refresh to the batch's end, where the caches
are recomputed from the final arrays.  The result is bit-identical to deleting
value by value, and batches of fewer than four values (the measured cut-over)
take that per-value loop.
"""

from __future__ import annotations

import bisect
from collections.abc import Sequence

import numpy as np

from .._validation import require_positive_float, require_positive_int
from ..exceptions import ConfigurationError, DeletionError, InsufficientDataError
from .base import DynamicHistogram
from .bucket import Bucket, SubBucketedBucket
from .bucket_array import BucketArray
from .deviation import DeviationMetric
from .segment_view import SegmentView

__all__ = ["DVOHistogram", "DADOHistogram"]

Segment = tuple[float, float, float]

#: Below this batch size the vectorised insert path costs more than it saves.
_VECTOR_MIN_BATCH = 32
#: Below this batch size a per-value delete loop beats one batch ranking pass.
#: Measured on a 2-core host (DVO and DADO, 85 buckets): the loop is faster at
#: 3 values, the two are even at 4, and the batch costs about two thirds of
#: the loop per value at 8 values and half at 16.
_DELETE_MIN_BATCH = 4


def _project_segments(segments: Sequence[Segment], borders: Sequence[float]) -> list[float]:
    """Distribute segment mass onto the sub-ranges delimited by ``borders``.

    Uniform assumption within each source segment; point-mass segments are
    assigned entirely to the sub-range containing their value (ties go left).
    Total mass is preserved exactly.
    """
    n_parts = len(borders) - 1
    counts = [0.0] * n_parts
    total = sum(count for _, _, count in segments)
    assigned = 0.0
    for left, right, count in segments:
        if count <= 0:
            continue
        if right == left:
            index = bisect.bisect_left(borders, left, 1, n_parts)
            counts[index - 1] += count
            assigned += count
            continue
        width = right - left
        for part in range(n_parts):
            overlap = min(right, borders[part + 1]) - max(left, borders[part])
            if overlap > 0:
                share = count * overlap / width
                counts[part] += share
                assigned += share
    # Numerical drift correction: keep the exact total.  Positive drift goes
    # to the last sub-range; a negative drift larger than the last sub-range's
    # count is taken from the preceding positive sub-ranges instead of being
    # clamped away (clamping would silently lose mass).
    drift = total - assigned
    if counts and drift > 0:
        counts[-1] += drift
    elif counts and drift < 0:
        deficit = -drift
        for part in range(n_parts - 1, -1, -1):
            if deficit <= 0:
                break
            taken = min(counts[part], deficit)
            counts[part] -= taken
            deficit -= taken
    return counts


def _k2_value_counts(left: float, right: float, value_unit: float) -> tuple[float, float]:
    """Domain-value counts of a non-point-mass 2-sub-bucket bucket's segments.

    Replicates exactly what :func:`_phi_of_segments` would derive from the
    bucket's segments -- including the floating-point identities of the border
    arithmetic in :meth:`BucketArray.row_borders` -- without building the
    border and segment lists.
    """
    width = right - left
    middle = left + width / 2
    first_width = middle - left
    second_width = right - middle
    if first_width <= 0:
        n0 = 1.0
    else:
        n0 = first_width / value_unit
        if n0 < 1.0:
            n0 = 1.0
    if second_width <= 0:
        n1 = 1.0
    else:
        n1 = second_width / value_unit
        if n1 < 1.0:
            n1 = 1.0
    return n0, n1


def _phi_of_counts(
    value_counts: tuple[float, ...], counts: tuple[float, ...], variance: bool
) -> float:
    """Phi of parallel (value-count, point-count) segment tuples.

    The allocation-free core of :func:`_phi_of_segments`, used by the
    per-insert phi refreshes; the accumulation order matches the generic
    implementation so cached phis stay bit-identical to a full rebuild.
    """
    total_values = 0.0
    total_count = 0.0
    for n_values in value_counts:
        total_values += n_values
    for count in counts:
        total_count += count
    if total_values <= 0 or total_count <= 0:
        return 0.0
    average = total_count / total_values
    phi = 0.0
    if variance:
        for n_values, count in zip(value_counts, counts, strict=True):
            deviation = count / n_values - average
            phi += n_values * (deviation * deviation)
    else:
        for n_values, count in zip(value_counts, counts, strict=True):
            deviation = count / n_values - average
            phi += n_values * abs(deviation)
    return phi


def _phi_of_segments(segments: list[Segment], variance: bool, value_unit: float) -> float:
    """Specialised :func:`~repro.core.deviation.segments_phi` for the hot path.

    Phi refreshes run once per inserted value, so the generic implementation's
    per-call overhead (enum coercion, validation, per-segment method dispatch)
    dominates bucket maintenance.  This inlined version performs the *exact*
    same floating-point operations in the same order -- the cached phis must be
    bit-identical to a from-scratch ``segments_phi`` rebuild.
    """
    if not segments:
        return 0.0
    value_counts: list[float] = []
    total_values = 0.0
    total_count = 0.0
    for left, right, count in segments:
        width = right - left
        if width <= 0:
            n_values = 1.0
        else:
            n_values = width / value_unit
            if n_values < 1.0:
                n_values = 1.0
        value_counts.append(n_values)
        total_values += n_values
        total_count += count
    if total_values <= 0 or total_count <= 0:
        return 0.0
    average = total_count / total_values
    phi = 0.0
    if variance:
        for (_, _, count), n_values in zip(segments, value_counts, strict=True):
            deviation = count / n_values - average
            phi += n_values * (deviation * deviation)
    else:
        for (_, _, count), n_values in zip(segments, value_counts, strict=True):
            deviation = count / n_values - average
            phi += n_values * abs(deviation)
    return phi


def _row_segments(left: float, right: float, counts: Sequence[float]) -> list[Segment]:
    """Piecewise-uniform segments of a ``(left, right, counts)`` bucket row."""
    if right == left:
        total = 0.0
        for count in counts:
            total += count
        return [(left, right, total)]
    k = len(counts)
    if k == 1:
        return [(left, right, counts[0])]
    step = (right - left) / k
    borders = [left + i * step for i in range(k)] + [right]
    return [(borders[i], borders[i + 1], counts[i]) for i in range(k)]


class DVOHistogram(DynamicHistogram):
    """Dynamic V-Optimal histogram (squared-deviation phi).

    Parameters
    ----------
    n_buckets:
        Fixed bucket budget (set from memory via
        :func:`~repro.core.memory.buckets_for_memory`).
    sub_buckets:
        Number of equal-width sub-ranges per bucket.  The paper uses 2 and
        reports that 2-3 perform comparably while finer subdivisions hurt;
        values other than 2 are provided for the ablation benchmarks.
    value_unit:
        Spacing between adjacent domain values (1 for integer domains); used
        when converting sub-range widths into value counts for phi.
    repartition_threshold:
        Upper bound on ``min delta phi`` beyond which repartitioning is not
        triggered; the paper uses the most aggressive choice, 0.
    """

    #: Deviation metric: squared deviations for DVO (overridden by DADO).
    metric = DeviationMetric.VARIANCE

    def __init__(
        self,
        n_buckets: int,
        *,
        sub_buckets: int = 2,
        value_unit: float = 1.0,
        repartition_threshold: float = 0.0,
    ) -> None:
        require_positive_int(n_buckets, "n_buckets")
        require_positive_int(sub_buckets, "sub_buckets")
        require_positive_float(value_unit, "value_unit")
        if repartition_threshold > 0:
            raise ConfigurationError(
                "repartition_threshold must be non-positive "
                f"(a positive bound would accept harmful repartitions), got {repartition_threshold}"
            )
        self._budget = n_buckets
        self._k = sub_buckets
        self._value_unit = value_unit
        self._threshold = repartition_threshold
        #: Resolved once: the per-insert phi refreshes sit on the hot path and
        #: must not re-derive the metric flavour from the enum every call.
        self._variance = self.metric is DeviationMetric.VARIANCE

        self._loading: dict[float, int] | None = {}
        #: Single source of truth once bootstrapped: borders, sub-bucket
        #: counts and the phi / pair-phi maintenance caches, all spliced
        #: together by the maintenance operations below.
        self._array: BucketArray | None = None
        self._repartition_count = 0

    # ------------------------------------------------------------------
    # public accessors
    # ------------------------------------------------------------------
    @property
    def bucket_budget(self) -> int:
        """Fixed number of buckets the histogram maintains."""
        return self._budget

    @property
    def sub_bucket_count(self) -> int:
        """Number of sub-buckets (counters) per bucket."""
        return self._k

    @property
    def repartition_count(self) -> int:
        """Number of split-merge repartitions performed so far."""
        return self._repartition_count

    @property
    def is_loading(self) -> bool:
        """True while the initial loading phase is still buffering points."""
        return self._loading is not None

    @property
    def bucket_array(self) -> BucketArray | None:
        """The live structure-of-arrays state (None during the loading phase).

        This is the histogram's single source of truth; treat it as read-only
        unless you are implementing a maintenance operation.
        """
        return self._array

    def sub_bucketed_buckets(self) -> list[SubBucketedBucket]:
        """The internal buckets as :class:`SubBucketedBucket` values.

        Only available for the paper's two-sub-bucket configuration.
        """
        if self._k != 2:
            raise ConfigurationError(
                f"sub_bucketed_buckets() requires sub_buckets=2, this histogram uses {self._k}"
            )
        self._require_bootstrapped()
        array = self._array
        return [
            SubBucketedBucket(
                float(array.lefts[i]),
                float(array.rights[i]),
                float(array.sub_counts[i, 0]),
                float(array.sub_counts[i, 1]),
            )
            for i in range(len(array))
        ]

    # ------------------------------------------------------------------
    # read API (derived views of the array state)
    # ------------------------------------------------------------------
    def buckets(self) -> list[Bucket]:
        if self._loading is not None:
            return [
                Bucket(value, value, float(count))
                for value, count in sorted(self._loading.items())
            ]
        result: list[Bucket] = []
        array = self._array
        unit = self._value_unit
        for index in range(len(array)):
            left = float(array.lefts[index])
            right = float(array.rights[index])
            width = right - left
            if 0 < width <= unit:
                # Under the continuous-value assumption a bucket no wider than
                # one value unit covers exactly one domain value: expose it as
                # a point mass at that value (the paper's single-value bucket).
                snapped = round(left / unit) * unit
                result.append(Bucket(snapped, snapped, array.bucket_count(index)))
                continue
            for seg_left, seg_right, seg_count in array.row_segments(index):
                result.append(Bucket(seg_left, seg_right, seg_count))
        return result

    def _build_view(self) -> SegmentView:
        """Segment view straight from the live arrays (no Bucket objects).

        When no bucket collapses to an exposed point mass the per-sub-range
        count matrix is adopted as a flat zero-copy view; otherwise the
        exposed segments are assembled with a handful of vectorised passes.
        """
        if self._loading is not None:
            items = sorted(self._loading.items())
            values = np.asarray([value for value, _ in items], dtype=float)
            counts = np.asarray([float(count) for _, count in items], dtype=float)
            return SegmentView(values, values, counts)
        array = self._array
        lefts, rights, sub = array.lefts, array.rights, array.sub_counts
        n, k = sub.shape
        widths = rights - lefts
        collapse = widths <= self._value_unit  # point masses and narrow buckets
        if not collapse.any():
            if k == 1:
                return SegmentView(lefts, rights, sub[:, 0])
            seg_lefts, seg_rights = self._slot_borders()
            return SegmentView(seg_lefts.ravel(), seg_rights.ravel(), sub.ravel())

        # Mixed exposure: collapsed buckets contribute one point mass each (at
        # the snapped domain value, or their own value when already width 0),
        # the rest expand to their k sub-range segments, in bucket order.
        sizes = np.where(collapse, 1, k)
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        total_segments = int(offsets[-1])
        out_lefts = np.empty(total_segments, dtype=float)
        out_rights = np.empty(total_segments, dtype=float)
        out_counts = np.empty(total_segments, dtype=float)

        collapsed = np.nonzero(collapse)[0]
        if collapsed.size:
            snapped = np.round(lefts[collapsed] / self._value_unit) * self._value_unit
            values = np.where(widths[collapsed] == 0.0, lefts[collapsed], snapped)
            positions = offsets[collapsed]
            out_lefts[positions] = values
            out_rights[positions] = values
            out_counts[positions] = sub[collapsed].sum(axis=1)

        regular = np.nonzero(~collapse)[0]
        if regular.size:
            slot_lefts, slot_rights = self._slot_borders()
            base = offsets[regular]
            for j in range(k):
                out_lefts[base + j] = slot_lefts[regular, j]
                out_rights[base + j] = slot_rights[regular, j]
                out_counts[base + j] = sub[regular, j]
        return SegmentView(out_lefts, out_rights, out_counts)

    def _slot_borders(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-sub-range border matrices ``(n, k)`` of every bucket.

        Replicates ``left + j * (width / k)`` (with the last border pinned to
        the exact right edge) so the expansion is bit-identical to
        :meth:`BucketArray.row_borders`.  Point-mass rows degenerate to their
        single value in every slot.
        """
        array = self._array
        lefts, rights = array.lefts, array.rights
        k = self._k
        if k == 1:
            return lefts.reshape(-1, 1), rights.reshape(-1, 1)
        steps = (rights - lefts) / k
        j = np.arange(k, dtype=float)
        slot_lefts = lefts[:, None] + j * steps[:, None]
        slot_rights = np.empty_like(slot_lefts)
        slot_rights[:, : k - 1] = lefts[:, None] + j[1:] * steps[:, None]
        slot_rights[:, k - 1] = rights
        return slot_lefts, slot_rights

    # ------------------------------------------------------------------
    # update API
    # ------------------------------------------------------------------
    def _insert(self, value: float) -> None:
        if self._insert_value(float(value)):
            self._maybe_repartition()

    def _insert_value(self, value: float) -> bool:
        """Insert one value; True when an in-range insertion happened.

        In-range insertions are the ones whose repartition check may be
        batched (:meth:`insert_many`); loading-phase and out-of-range
        insertions rebalance on their own.
        """
        if self._loading is not None:
            self._loading[value] = self._loading.get(value, 0) + 1
            if len(self._loading) > self._budget:
                self._bootstrap()
            return False

        array = self._array
        if value < array.lefts[0] or value > array.rights[-1]:
            self._insert_out_of_range(value)
            return False

        index = self._locate_bucket(value)
        array.sub_counts[index, array.sub_index(index, value)] += 1.0
        self._refresh_bucket(index)
        return True

    def insert_many(self, values, *, repartition_interval: int = 1) -> None:
        """Insert a batch of values, optionally batching repartition checks.

        With the default ``repartition_interval = 1`` the result is identical
        to inserting the values one by one; it just avoids per-value template
        overhead.  A larger interval runs the O(B) split/merge scan only every
        ``repartition_interval`` in-range insertions (and once at the end of
        the batch), trading slightly delayed repartitions for substantially
        higher sustained insert throughput on bulk loads.  Out-of-range
        insertions still rebalance immediately, and the total count is always
        exact.

        Between two maintenance points nothing reads the phi caches, so the
        batch is processed one *interval chunk* at a time: a chunk whose
        values all land inside existing buckets is binned into the live
        ``sub_counts`` matrix with one ``searchsorted`` + ``bincount`` pass
        (sub-bucket counter increments commute, so the end-of-chunk state
        matches per-value insertion up to floating-point associativity of the
        counter sums), and only then are the phi/pair-phi caches refreshed for
        the distinct touched buckets and the split/merge scan run.  Chunks
        containing out-of-range or border-gap values fall back to strict
        per-value handling, since those mutate bucket ranges mid-chunk.
        """
        require_positive_int(repartition_interval, "repartition_interval")
        if isinstance(values, np.ndarray):
            arr = values.astype(float, copy=False).ravel()
            n_values = arr.shape[0]
        else:
            arr = list(values)
            n_values = len(arr)
        if repartition_interval == 1 or n_values < _VECTOR_MIN_BATCH:
            # Small batches (and strict per-value maintenance) are faster
            # without the numpy round-trip; this also keeps single-value
            # insert_many calls as cheap as plain insert.
            self._insert_many_scalar(arr, repartition_interval)
            return
        arr = np.asarray(arr, dtype=float)
        dirty: set = set()
        try:
            pending = 0
            position = 0
            while position < n_values:
                if self._loading is not None:
                    self._insert_value(float(arr[position]))
                    position += 1
                    continue
                chunk = arr[position : position + repartition_interval]
                position += chunk.shape[0]
                if self._apply_chunk_vectorised(chunk, dirty):
                    pending += chunk.shape[0]
                else:
                    for value in chunk:
                        value = float(value)
                        if self._loading is not None:  # pragma: no cover - defensive
                            self._insert_value(value)
                            continue
                        array = self._array
                        if value < array.lefts[0] or value > array.rights[-1]:
                            self._refresh_dirty(dirty)
                            self._insert_out_of_range(value)
                            continue
                        index = self._locate_bucket(value)
                        array.sub_counts[index, array.sub_index(index, value)] += 1.0
                        dirty.add(index)
                        pending += 1
                        if pending >= repartition_interval:
                            self._refresh_dirty(dirty)
                            self._maybe_repartition()
                            pending = 0
                if pending >= repartition_interval:
                    self._refresh_dirty(dirty)
                    self._maybe_repartition()
                    pending = 0
            if pending:
                self._refresh_dirty(dirty)
                self._maybe_repartition()
        finally:
            # On an exception mid-batch the dirty buckets must still be
            # refreshed, or later maintenance would read stale phis.
            self._refresh_dirty(dirty)
            self._invalidate_view()

    def _insert_many_scalar(self, values, repartition_interval: int) -> None:
        """Per-value batch insertion (strict maintenance, immediate refresh)."""
        try:
            pending = 0
            for value in values:
                if self._insert_value(float(value)):
                    pending += 1
                    if pending >= repartition_interval:
                        self._maybe_repartition()
                        pending = 0
            if pending:
                self._maybe_repartition()
        finally:
            self._invalidate_view()

    def _apply_chunk_vectorised(self, chunk: np.ndarray, dirty: set) -> bool:
        """Bin a chunk of values into the live count matrix in one numpy pass.

        Only applies when every value lands strictly inside an existing
        bucket's range (no out-of-range extension, no border-gap stretch);
        returns False otherwise so the caller can fall back to per-value
        handling.  Touched bucket indices are added to ``dirty`` -- the caller
        must refresh the phi caches before they are next consumed.
        """
        array = self._array
        lefts, rights = array.lefts, array.rights
        n_buckets = lefts.shape[0]
        if chunk.min() < lefts[0] or chunk.max() > rights[-1]:
            return False
        # The range check above guarantees every value is >= lefts[0] and
        # <= rights[-1], so the located indices are already in [0, n) without
        # clamping.
        indices = lefts.searchsorted(chunk, side="right")
        indices -= 1
        bucket_rights = rights[indices]
        if np.any(chunk > bucket_rights):
            # Values inside a border gap: _locate_bucket would stretch a
            # bucket, which must happen in submission order.
            return False
        k = self._k
        if k == 1:
            flat_indices = indices
        else:
            bucket_lefts = lefts[indices]
            widths = bucket_rights - bucket_lefts
            if widths.all():
                subs = ((chunk - bucket_lefts) / widths * k).astype(np.int64)
            else:
                # Rare: some values land in point-mass buckets (sub-range 0).
                with np.errstate(divide="ignore", invalid="ignore"):
                    subs = ((chunk - bucket_lefts) / widths * k).astype(np.int64)
                subs[widths <= 0] = 0
                subs = np.maximum(subs, 0)
            np.minimum(subs, k - 1, out=subs)
            flat_indices = indices * k + subs
        increments = np.bincount(flat_indices, minlength=n_buckets * k)
        array.sub_counts += increments.reshape(n_buckets, k)
        dirty.update(np.unique(indices).tolist())
        return True

    def _refresh_dirty(self, dirty: set) -> None:
        """Recompute cached phis for the distinct dirty buckets, then clear.

        The borders and counts are pulled out of the arrays in three bulk
        ``tolist`` passes: phi arithmetic runs on plain Python floats, which
        is several times cheaper than per-element numpy scalar extraction.
        """
        if not dirty:
            return
        array = self._array
        lefts = array.lefts.tolist()
        rights = array.rights.tolist()
        subs = array.sub_counts.tolist()
        n = len(lefts)
        phis = array.phis
        pair_indices = set()
        for index in dirty:
            phis[index] = self._row_phi(lefts[index], rights[index], subs[index])
            if index > 0:
                pair_indices.add(index - 1)
            if index + 1 < n:
                pair_indices.add(index)
        pair_phis = array.pair_phis
        for pair_index in pair_indices:
            pair_phis[pair_index] = self._pair_phi_rows(
                lefts[pair_index],
                rights[pair_index],
                subs[pair_index],
                lefts[pair_index + 1],
                rights[pair_index + 1],
                subs[pair_index + 1],
            )
        dirty.clear()

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
        k = self._k
        for bucket_index in {slot // k for slot in self._take_unit(value, None)}:
            self._refresh_bucket(bucket_index)

    def _take_unit(self, value: float, slots: tuple | None) -> list[int]:
        """Remove one unit of mass for ``value`` (the Section 7.3 spill policy).

        Starts at the slot closest to the value and spills outwards to the
        next closest non-empty slots while the local counters (which may be
        fractional after repartitioning) run dry.  ``slots`` is a
        :meth:`_deletion_slots` triple, or None to build one.  Returns the
        flat slots taken from; a failed delete raises instead, so its caller
        refreshes nothing.
        """
        # Sum the raw counters directly: going through total_count would
        # build a segment view that the surrounding template is about to
        # invalidate anyway.  This check raises before anything is taken.
        array = self._array
        if array.total() < 1.0 - 1e-9:
            raise DeletionError("cannot delete from an empty histogram")
        sub = array.sub_counts
        k = self._k
        remaining = 1.0
        taken_from = []
        for slot in self._deletion_candidates(value, slots).tolist():
            if remaining <= 1e-12:
                break
            bucket_index, sub_index = divmod(slot, k)
            available = sub[bucket_index, sub_index]
            if available <= 0:
                continue
            taken = min(float(available), remaining)
            sub[bucket_index, sub_index] -= taken
            remaining -= taken
            taken_from.append(slot)
        if remaining > 1e-9:
            raise DeletionError("all buckets are empty; nothing to delete")
        return taken_from

    def _delete_many(self, values: Sequence[float]) -> None:
        """Vectorised batch deletion: one ranking pass over the batch.

        Mirrors ``insert_many``: values are routed to the sub-range slot the
        per-value path would pick (its closest slot, ties to the lower index)
        with one ``searchsorted`` pass, and every maximal run whose slots can
        absorb their share of the batch is applied with a single ``bincount``
        decrement -- within such a run every delete takes exactly one unit
        from its own slot, so the decrements commute and the end state
        matches per-value deletion bit-for-bit.  A value that would drain its
        slot (the Section 7.3 spill regime) is handed to the exact per-value
        policy on precisely the state per-value processing would have
        produced, then the vectorised scan resumes.

        The batch is ranked once: each delete's occurrence among the batch's
        deletes of its slot.  A delete overdraws when ``occurrence - done >
        held``: ``held`` is what its slot held after the last spill that
        changed it (its starting count before any) and ``done`` the batch's
        deletes of that slot up to that spill (0 before any).  Only integer
        decrements move a count between spills, so the test is exact; written
        as ``occurrence > held + done``, the float sum could round up and hide
        an overdraw.  A spill re-tests only the later deletes of the slots it
        changed, reuses the batch's slot borders and adds its buckets to the
        batch's dirty set: deletes never read the phi caches, and
        :meth:`_refresh_dirty` recomputes them from the final arrays.  (So the
        caches match a per-value run's, except after a spill that fails having
        taken part of its unit, which needs the sequential and pairwise sums of
        the counts to straddle the emptiness threshold.)  Batches under
        :data:`_DELETE_MIN_BATCH` values take the per-value loop.
        """
        if self._loading is not None or len(values) < _DELETE_MIN_BATCH:
            return super()._delete_many(values)
        array = self._array
        n = len(array)
        k = self._k
        slot_lefts, slot_rights = self._slot_borders()
        flat_lefts = slot_lefts.ravel()
        flat_rights = slot_rights.ravel()
        n_slots = flat_rights.size
        if n == 0 or (
            n_slots > 1
            and (np.any(np.diff(flat_rights) < 0) or np.any(np.diff(flat_lefts) < 0))
        ):
            # Empty state or pathological border rounding: the scalar path copes.
            return super()._delete_many(values)
        arr = np.asarray(values, dtype=float)

        # Ties-to-lower binning, matching _deletion_candidates: the first slot
        # whose right border reaches the value and whose left border covers it.
        indices = np.searchsorted(flat_rights, arr, side="left")
        above = indices >= n_slots
        np.minimum(indices, n_slots - 1, out=indices)
        outside = above | (flat_lefts[indices] > arr)
        if outside.any():
            # Values beyond the range or inside a border gap: route each to
            # its closest slot, exactly as the first entry of the per-value
            # candidate list would (ties resolve to the lower slot index --
            # hence the snap-left over slots sharing the same border, which
            # covers the degenerate sub-slots of point-mass buckets).
            out_values = arr[outside]
            out_above = above[outside]
            hi = indices[outside]
            lo = np.where(out_above, n_slots - 1, np.maximum(hi - 1, 0))
            lo_valid = out_above | (hi > 0)
            dist_lo = np.where(lo_valid, out_values - flat_rights[lo], np.inf)
            dist_hi = np.where(out_above, np.inf, flat_lefts[hi] - out_values)
            use_lo = dist_lo <= dist_hi
            chosen = np.where(use_lo, lo, hi)
            snapped = np.where(
                use_lo,
                np.searchsorted(flat_rights, flat_rights[chosen], side="left"),
                np.searchsorted(flat_lefts, flat_lefts[chosen], side="left"),
            )
            indices[outside] = snapped

        # Occurrence rank of each delete within its slot, in batch order
        # (the stable sort keeps equal slots in submission order).
        n_values = arr.shape[0]
        order = np.argsort(indices, kind="stable")
        sorted_slots = indices[order]
        group_starts = np.searchsorted(sorted_slots, sorted_slots, side="left")
        occurrence = np.empty(n_values, dtype=float)
        occurrence[order] = (np.arange(n_values, dtype=float) - group_starts) + 1.0
        sub = array.sub_counts
        overdraws = occurrence > sub.ravel()[indices]
        # Each slot's batch deletes are order[bounds[slot] : bounds[slot + 1]].
        bounds = np.searchsorted(sorted_slots, np.arange(n_slots + 1)).tolist()
        slots = self._deletion_slots(slot_lefts, slot_rights)
        decremented = np.zeros(n_slots, dtype=np.int64)
        applied = 0
        dirty: set = set()
        try:
            position = 0
            while position < n_values:
                spill = position + int(np.argmax(overdraws[position:]))
                if not overdraws[spill]:
                    spill = n_values
                if spill > position:
                    decrements = np.bincount(indices[position:spill], minlength=n_slots)
                    sub -= decrements.reshape(n, k)
                    decremented += decrements
                    applied = spill
                if spill == n_values:
                    break
                # This delete drains its slot: run the per-value spill policy
                # (closest non-empty slots) on the exact intermediate state.
                changed = self._take_unit(float(arr[spill]), slots)
                dirty.update(slot // k for slot in changed)
                applied += 1
                position = spill + 1
                for slot in {*changed, int(indices[spill])}:
                    deletes = order[bounds[slot] : bounds[slot + 1]]
                    done = int(deletes.searchsorted(spill, side="right"))
                    later = deletes[done:]
                    if later.size:
                        held = sub[slot // k, slot % k]
                        overdraws[later] = occurrence[later] - done > held
        except Exception as error:
            error.applied_count = applied
            raise
        finally:
            dirty.update(np.flatnonzero(decremented.reshape(n, k).any(axis=1)).tolist())
            self._refresh_dirty(dirty)

    # ------------------------------------------------------------------
    # loading / bootstrap
    # ------------------------------------------------------------------
    def _bootstrap(self) -> None:
        """Build the initial bucket array from the loading buffer."""
        assert self._loading is not None
        items = sorted(self._loading.items())
        self._loading = None
        if not items:
            raise InsufficientDataError("loading phase ended with no data")

        k = self._k
        values = [value for value, _ in items]
        if len(values) == 1:
            only_value, only_count = items[0]
            lefts = np.asarray([only_value], dtype=float)
            rights = np.asarray([only_value], dtype=float)
            sub = np.zeros((1, k), dtype=float)
            sub[0, 0] = float(only_count)
            self._array = BucketArray(lefts, rights, sub)
        else:
            # One bucket between each pair of consecutive points.
            borders = values
            n = len(borders) - 1
            lefts = np.asarray(borders[:-1], dtype=float)
            rights = np.asarray(borders[1:], dtype=float)
            sub = np.zeros((n, k), dtype=float)
            array = BucketArray(lefts, rights, sub)
            for value, count in items:
                index = min(bisect.bisect_right(borders, value) - 1, n - 1)
                index = max(index, 0)
                sub[index, array.sub_index(index, value)] += float(count)
            self._array = array
        self._rebuild_phis()
        # The exposed buckets changed shape (loading point masses -> real
        # buckets); a bootstrap triggered from a read path must not leave a
        # stale segment view behind.
        self._invalidate_view()

    def _require_bootstrapped(self) -> None:
        if self._loading is not None:
            self._bootstrap_from_buffer_if_possible()
        if self._loading is not None:
            raise InsufficientDataError(
                "the histogram is still in its loading phase; insert more data first"
            )

    def _bootstrap_from_buffer_if_possible(self) -> None:
        if self._loading and len(self._loading) > 1:
            self._bootstrap()

    # ------------------------------------------------------------------
    # insertion helpers
    # ------------------------------------------------------------------
    def _locate_bucket(self, value: float) -> int:
        """Index of the bucket whose range contains (or is closest to) ``value``."""
        array = self._array
        n = len(array)
        index = int(np.searchsorted(array.lefts, value, side="right")) - 1
        index = max(0, min(index, n - 1))
        right = array.rights[index]
        if value > right and index + 1 < n:
            # ``value`` falls in a gap between bucket ``index`` and the next
            # one; stretch whichever border is closer.
            next_left = array.lefts[index + 1]
            if abs(value - right) <= abs(next_left - value):
                self._resize_bucket(index, float(array.lefts[index]), value)
            else:
                self._resize_bucket(index + 1, value, float(array.rights[index + 1]))
                return index + 1
        return index

    def _resize_bucket(self, index: int, new_left: float, new_right: float) -> None:
        """Change a bucket's range, re-projecting its mass onto the new sub-ranges."""
        if new_right < new_left:
            raise ConfigurationError("new bucket range is inverted")
        array = self._array
        segments = array.row_segments(index)
        array.lefts[index] = new_left
        array.rights[index] = new_right
        projected = _project_segments(segments, array.row_borders(index))
        row = array.sub_counts[index]
        row[:] = 0.0
        row[: len(projected)] = projected
        self._refresh_bucket(index)

    def _insert_out_of_range(self, value: float) -> None:
        """Handle a point beyond the end buckets: borrow a bucket, then merge.

        Borrowing a bucket only counts as a repartition when the budget was
        exhausted and a compensating merge was actually performed; while the
        bucket count is still under budget the stretch is free and must not
        inflate the repartition statistics.
        """
        array = self._array
        new_counts = [1.0] + [0.0] * (self._k - 1)
        index = 0 if value < array.lefts[0] else len(array)
        array.splice(index, index, [value], [value], [new_counts], phis=[0.0])
        n = len(array)
        if n >= 2:
            if index == 0:
                array.splice_pair_phis(0, 0, [self._merged_phi(0, 1)])
            else:
                array.splice_pair_phis(
                    n - 1, n - 1, [self._merged_phi(n - 2, n - 1)]
                )
        if n > self._budget:
            merge_index = self._find_best_merge()
            if merge_index is not None:
                self._merge_pair(merge_index)
                self._repartition_count += 1

    # ------------------------------------------------------------------
    # phi caches
    # ------------------------------------------------------------------
    def _row_phi(self, left: float, right: float, counts: Sequence[float]) -> float:
        """Phi of one bucket row (point masses are single segments: phi 0)."""
        if right == left:
            return 0.0
        if self._k == 2:
            n0, n1 = _k2_value_counts(left, right, self._value_unit)
            return _phi_of_counts((n0, n1), (counts[0], counts[1]), self._variance)
        return _phi_of_segments(
            _row_segments(left, right, counts), self._variance, self._value_unit
        )

    def _pair_phi_rows(
        self,
        first_left: float,
        first_right: float,
        first_counts: Sequence[float],
        second_left: float,
        second_right: float,
        second_counts: Sequence[float],
    ) -> float:
        """Phi of the hypothetical merge of two adjacent bucket rows."""
        if self._k == 2 and first_right != first_left and second_right != second_left:
            n00, n01 = _k2_value_counts(first_left, first_right, self._value_unit)
            n10, n11 = _k2_value_counts(second_left, second_right, self._value_unit)
            return _phi_of_counts(
                (n00, n01, n10, n11),
                (first_counts[0], first_counts[1], second_counts[0], second_counts[1]),
                self._variance,
            )
        return _phi_of_segments(
            _row_segments(first_left, first_right, first_counts)
            + _row_segments(second_left, second_right, second_counts),
            self._variance,
            self._value_unit,
        )

    def _bucket_phi(self, index: int) -> float:
        array = self._array
        left = float(array.lefts[index])
        right = float(array.rights[index])
        if right == left:
            return 0.0
        return self._row_phi(left, right, array.sub_counts[index].tolist())

    def _merged_phi(self, first: int, second: int) -> float:
        array = self._array
        return self._pair_phi_rows(
            float(array.lefts[first]),
            float(array.rights[first]),
            array.sub_counts[first].tolist(),
            float(array.lefts[second]),
            float(array.rights[second]),
            array.sub_counts[second].tolist(),
        )

    def _rebuild_phis(self) -> None:
        """Recompute the phi caches from scratch (bootstrap / deserialisation).

        Steady-state maintenance never calls this: split, merge and
        out-of-range insertion splice the caches locally (only the touched
        bucket and its two adjacent pairs change).
        """
        array = self._array
        n = len(array)
        array.phis = np.asarray(
            [self._bucket_phi(index) for index in range(n)], dtype=float
        )
        array.pair_phis = np.asarray(
            [self._merged_phi(index, index + 1) for index in range(n - 1)], dtype=float
        )

    def _refresh_bucket(self, index: int) -> None:
        """Recompute cached phi values affected by a change to bucket ``index``.

        One bulk ``tolist`` per array pulls the three-bucket neighbourhood out
        as Python floats; the phi arithmetic then runs allocation-free.
        """
        array = self._array
        n = array.lefts.shape[0]
        low = index - 1 if index > 0 else 0
        high = index + 2 if index + 2 <= n else n
        lefts = array.lefts[low:high].tolist()
        rights = array.rights[low:high].tolist()
        subs = array.sub_counts[low:high].tolist()
        at = index - low
        array.phis[index] = self._row_phi(lefts[at], rights[at], subs[at])
        if index > 0:
            array.pair_phis[index - 1] = self._pair_phi_rows(
                lefts[at - 1], rights[at - 1], subs[at - 1],
                lefts[at], rights[at], subs[at],
            )
        if index < n - 1:
            array.pair_phis[index] = self._pair_phi_rows(
                lefts[at], rights[at], subs[at],
                lefts[at + 1], rights[at + 1], subs[at + 1],
            )

    # ------------------------------------------------------------------
    # repartitioning (split-merge)
    # ------------------------------------------------------------------
    def _find_best_split(self) -> int | None:
        """Bucket with the largest phi that can actually be split.

        Buckets no wider than one domain value cannot be split meaningfully
        (they correspond to the paper's width-one singular buckets), so they
        are skipped.  First occurrence wins on ties, matching the historical
        scan order.
        """
        array = self._array
        masked = np.where(
            (array.rights - array.lefts) > self._value_unit, array.phis, -np.inf
        )
        best = int(np.argmax(masked))
        # Covers both "largest phi is zero" and "no bucket is splittable"
        # (argmax over all -inf) in one comparison.
        if masked[best] <= 0.0:
            return None
        return best

    def _find_best_merge(self, *, exclude: int | None = None) -> int | None:
        """Left index of the adjacent pair whose merge has the smallest phi."""
        pair_phis = self._array.pair_phis
        if pair_phis.size == 0:
            return None
        if exclude is None:
            return int(np.argmin(pair_phis))
        masked = pair_phis.copy()
        if exclude - 1 >= 0:
            masked[exclude - 1] = np.inf
        if exclude < masked.size:
            masked[exclude] = np.inf
        best = int(np.argmin(masked))
        if masked[best] == np.inf:
            return None
        return best

    def _maybe_repartition(self) -> None:
        if len(self._array) < 3:
            return
        split_index = self._find_best_split()
        if split_index is None:
            return
        merge_index = self._find_best_merge(exclude=split_index)
        if merge_index is None:
            return
        array = self._array
        delta_phi = array.pair_phis[merge_index] - array.phis[split_index]
        if delta_phi > self._threshold:
            return
        self._split_and_merge(split_index, merge_index)
        self._repartition_count += 1

    def _split_and_merge(self, split_index: int, merge_index: int) -> None:
        """Split the bucket at ``split_index`` and merge the pair at ``merge_index``."""
        # Perform the merge first or second depending on positions so indices
        # stay valid; easiest is to operate on the higher index first.
        if merge_index > split_index:
            self._merge_pair(merge_index)
            self._split_bucket(split_index)
        else:
            self._split_bucket(split_index)
            self._merge_pair(merge_index)

    def _merge_pair(self, index: int) -> None:
        """Merge buckets ``index`` and ``index + 1`` into one array row.

        Only the merged bucket's phi and the (at most two) pairs adjacent to
        it change; every array is spliced in an O(1)-sized neighbourhood
        instead of rebuilt.
        """
        array = self._array
        merged_left = float(array.lefts[index])
        merged_right = float(array.rights[index + 1])
        segments = array.row_segments(index) + array.row_segments(index + 1)
        k = self._k
        if merged_right == merged_left:
            total = sum(count for _, _, count in segments)
            merged_counts = [total] + [0.0] * (k - 1)
        else:
            step = (merged_right - merged_left) / k
            borders = [merged_left + i * step for i in range(k)] + [merged_right]
            merged_counts = _project_segments(segments, borders)
        merged_phi = self._row_phi(merged_left, merged_right, merged_counts)
        array.splice(
            index,
            index + 2,
            [merged_left],
            [merged_right],
            [merged_counts],
            phis=[merged_phi],
        )
        new_pairs = []
        if index > 0:
            new_pairs.append(self._merged_phi(index - 1, index))
        if index + 1 < len(array):
            new_pairs.append(self._merged_phi(index, index + 1))
        low = index - 1 if index > 0 else 0
        array.splice_pair_phis(low, index + 2, new_pairs)

    def _split_bucket(self, index: int) -> None:
        """Split bucket ``index`` at its most balanced internal border."""
        array = self._array
        left = float(array.lefts[index])
        right = float(array.rights[index])
        if right == left:
            return
        counts = [float(c) for c in array.sub_counts[index]]
        k = self._k
        borders = array.row_borders(index)
        total = 0.0
        for count in counts:
            total += count
        # Pick the interior border that divides the count most evenly (for the
        # paper's k = 2 this is simply the midpoint).
        best_border_index = 1
        best_imbalance = float("inf")
        cumulative = 0.0
        for border_index in range(1, k):
            cumulative += counts[border_index - 1]
            imbalance = abs(cumulative - (total - cumulative))
            if imbalance < best_imbalance:
                best_imbalance = imbalance
                best_border_index = border_index
        split_value = borders[best_border_index]
        left_count = sum(counts[:best_border_index])
        right_count = total - left_count

        left_row = [left_count / k] * k
        right_row = [right_count / k] * k
        array.splice(
            index,
            index + 1,
            [left, split_value],
            [split_value, right],
            [left_row, right_row],
            phis=[
                self._row_phi(left, split_value, left_row),
                self._row_phi(split_value, right, right_row),
            ],
        )
        new_pairs = []
        if index > 0:
            new_pairs.append(self._merged_phi(index - 1, index))
        new_pairs.append(self._merged_phi(index, index + 1))
        if index + 2 < len(array):
            new_pairs.append(self._merged_phi(index + 1, index + 2))
        low = index - 1 if index > 0 else 0
        array.splice_pair_phis(low, index + 1, new_pairs)

    # ------------------------------------------------------------------
    # deletion helper
    # ------------------------------------------------------------------
    def _deletion_slots(
        self, slot_lefts: np.ndarray, slot_rights: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Flat borders and flat ids of the slots a delete may take from.

        Takes :meth:`_slot_borders`' matrices.  A point-mass row is one
        segment, so it offers only its sub-slot 0; ids are None when every
        slot is offered.
        """
        lefts, rights = slot_lefts.ravel(), slot_rights.ravel()
        array = self._array
        points = array.lefts == array.rights
        if self._k == 1 or not points.any():
            return lefts, rights, None
        offered = np.ones(slot_lefts.shape, dtype=bool)
        offered[points, 1:] = False
        ids = np.flatnonzero(offered)
        return lefts[ids], rights[ids], ids

    def _deletion_candidates(self, value: float, slots: tuple | None = None) -> np.ndarray:
        """Flat slot ids (``bucket * k + sub``), the range closest to ``value`` first.

        The order is that of sorting ``(distance, bucket, sub)`` tuples: one
        stable argsort of the distances, taken over the slots in flat order.
        ``slots`` is a :meth:`_deletion_slots` triple (built when omitted).
        """
        if slots is None:
            slots = self._deletion_slots(*self._slot_borders())
        lefts, rights, ids = slots
        distances = np.minimum(np.abs(value - lefts), np.abs(value - rights))
        distances[(lefts <= value) & (value <= rights)] = 0.0
        order = np.argsort(distances, kind="stable")
        return order if ids is None else ids[order]


class DADOHistogram(DVOHistogram):
    """Dynamic Average-Deviation Optimal histogram (absolute-deviation phi).

    Identical to :class:`DVOHistogram` except that the bucket deviation is the
    sum of absolute deviations (Eq. 5), which is more robust to the random
    frequency oscillations of a data stream -- the reason the paper finds DADO
    consistently more accurate than DVO (Section 4.1).
    """

    metric = DeviationMetric.ABSOLUTE
