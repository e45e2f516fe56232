"""Tests for the cached vectorised segment view and the incremental hot paths.

The segment view must be observationally equivalent to the original
per-bucket Python loops on every histogram in the library, must be invalidated
by every mutation, and must fall back to the exact loops when the bucket list
violates the disjointness assumption of the O(log B) paths.
"""

import numpy as np
import pytest

from repro import Bucket, DADOHistogram, DCHistogram, DVOHistogram
from repro.core.segment_view import SegmentView
from repro.static.base import StaticHistogram


# ----------------------------------------------------------------------
# reference implementations (the seed's per-bucket loops)
# ----------------------------------------------------------------------
def loop_total(histogram):
    return float(sum(bucket.count for bucket in histogram.buckets()))


def loop_estimate_range(histogram, low, high):
    if high < low:
        return 0.0
    return float(sum(bucket.count_in_range(low, high) for bucket in histogram.buckets()))


def loop_estimate_equal(histogram, value):
    """Point masses at ``value``, plus one unit of the bucket holding it; a
    value on a shared border counts the bucket it opens, a closing border only
    when no bucket opens there."""
    estimate = 0.0
    border_bucket = None
    interior_hit = False
    for bucket in histogram.buckets():
        if bucket.is_point_mass:
            if bucket.left == value:
                estimate += bucket.count
        elif bucket.left <= value < bucket.right:
            estimate += bucket.density * min(1.0, bucket.width)
            interior_hit = True
        elif value == bucket.right:
            border_bucket = bucket
    if border_bucket is not None and not interior_hit:
        estimate += border_bucket.density * min(1.0, border_bucket.width)
    return float(estimate)


def loop_count_at_most(histogram, x):
    return float(sum(bucket.count_at_most(x) for bucket in histogram.buckets()))


def loop_cdf_many(histogram, xs, *, include_point_mass_at=True):
    xs_arr = np.asarray(xs, dtype=float)
    buckets = histogram.buckets()
    total = sum(bucket.count for bucket in buckets)
    if not buckets or total <= 0:
        return np.zeros(xs_arr.shape, dtype=float)
    cumulative = np.zeros(xs_arr.shape, dtype=float)
    for bucket in buckets:
        if bucket.is_point_mass:
            if include_point_mass_at:
                cumulative += np.where(xs_arr >= bucket.left, bucket.count, 0.0)
            else:
                cumulative += np.where(xs_arr > bucket.left, bucket.count, 0.0)
        else:
            fraction = np.clip((xs_arr - bucket.left) / bucket.width, 0.0, 1.0)
            cumulative += bucket.count * fraction
    return cumulative / total


def _dado_histogram(values):
    histogram = DADOHistogram(24)
    for value in values:
        histogram.insert(float(value))
    return histogram


# ----------------------------------------------------------------------
# equivalence with the per-bucket loops
# ----------------------------------------------------------------------
class TestViewEquivalence:
    @pytest.fixture(
        params=["static", "dado", "dc"],
    )
    def histogram(self, request, uniform_values):
        if request.param == "static":
            return StaticHistogram(
                [
                    Bucket(0.0, 10.0, 40.0),
                    Bucket(10.0, 20.0, 40.0),
                    Bucket(20.0, 20.0, 5.0),
                    Bucket(25.0, 25.0, 20.0),
                    Bucket(30.0, 50.0, 15.0),
                ]
            )
        if request.param == "dado":
            return _dado_histogram(uniform_values)
        histogram = DCHistogram(32)
        histogram.insert_many(float(v) for v in uniform_values)
        return histogram

    def test_fast_path_is_active(self, histogram):
        assert histogram.segment_view().fast

    def test_total_count(self, histogram):
        assert histogram.total_count == pytest.approx(loop_total(histogram), rel=1e-12)

    def test_estimate_range(self, histogram, rng):
        lows = rng.uniform(-10, 60, size=200)
        widths = rng.uniform(0, 40, size=200)
        for low, width in zip(lows, widths, strict=True):
            assert histogram.estimate_range(low, low + width) == pytest.approx(
                loop_estimate_range(histogram, low, low + width), rel=1e-9, abs=1e-9
            )

    def test_estimate_equal(self, histogram, rng):
        borders = {edge for bucket in histogram.buckets() for edge in (bucket.left, bucket.right)}
        for value in [*rng.uniform(-10, 60, size=200), *sorted(borders)]:
            assert histogram.estimate_equal(value) == pytest.approx(
                loop_estimate_equal(histogram, value), rel=1e-9, abs=1e-9
            )

    def test_estimate_ranges_batch_matches_scalar(self, histogram, rng):
        lows = rng.uniform(-10, 60, size=100)
        highs = lows + rng.uniform(-5, 40, size=100)
        batch = histogram.estimate_ranges(lows, highs)
        for low, high, estimate in zip(lows, highs, batch, strict=True):
            assert estimate == pytest.approx(
                histogram.estimate_range(low, high), rel=1e-12, abs=1e-12
            )

    def test_count_at_most(self, histogram, rng):
        for x in rng.uniform(-10, 60, size=200):
            assert histogram.count_at_most(x) == pytest.approx(
                loop_count_at_most(histogram, x), rel=1e-9, abs=1e-9
            )

    def test_cdf_many_both_sides(self, histogram):
        xs = np.linspace(-10, 260, 400)
        np.testing.assert_allclose(
            histogram.cdf_many(xs), loop_cdf_many(histogram, xs), rtol=1e-9, atol=1e-12
        )
        np.testing.assert_allclose(
            histogram.cdf_left_many(xs),
            loop_cdf_many(histogram, xs, include_point_mass_at=False),
            rtol=1e-9,
            atol=1e-12,
        )

    def test_queries_exactly_on_borders(self, histogram):
        view = histogram.segment_view()
        borders = np.concatenate((view.reg_lefts, view.reg_rights, view.pm_values))
        for x in borders:
            assert histogram.count_at_most(float(x)) == pytest.approx(
                loop_count_at_most(histogram, float(x)), rel=1e-9, abs=1e-9
            )


# ----------------------------------------------------------------------
# cache invalidation
# ----------------------------------------------------------------------
class TestViewInvalidation:
    def test_view_is_cached_between_reads(self, uniform_values):
        histogram = _dado_histogram(uniform_values)
        assert histogram.segment_view() is histogram.segment_view()

    def test_insert_invalidates(self, uniform_values):
        histogram = _dado_histogram(uniform_values)
        before = histogram.segment_view()
        total_before = histogram.total_count
        histogram.insert(42.0)
        assert histogram.segment_view() is not before
        assert histogram.total_count == pytest.approx(total_before + 1.0)

    def test_delete_invalidates(self, uniform_values):
        histogram = _dado_histogram(uniform_values)
        total_before = histogram.total_count
        histogram.delete(float(uniform_values[0]))
        assert histogram.total_count == pytest.approx(total_before - 1.0)

    def test_insert_many_and_apply_invalidate(self, uniform_values):
        from repro import UpdateStream

        histogram = DCHistogram(32)
        histogram.insert_many(float(v) for v in uniform_values[:200])
        assert histogram.total_count == pytest.approx(200.0, abs=1e-6)
        histogram.apply(UpdateStream.inserts(float(v) for v in uniform_values[200:300]))
        assert histogram.total_count == pytest.approx(300.0, abs=1e-6)

    def test_bootstrap_from_read_path_invalidates(self):
        histogram = DADOHistogram(8)
        for value in [1.0, 5.0, 9.0]:
            histogram.insert(value)
        assert histogram.total_count == pytest.approx(3.0)
        assert histogram.is_loading
        histogram.sub_bucketed_buckets()  # forces the bootstrap
        assert not histogram.is_loading
        assert histogram.total_count == pytest.approx(3.0)


# ----------------------------------------------------------------------
# fallback path for non-disjoint bucket lists
# ----------------------------------------------------------------------
class TestFallback:
    def _overlapping_histogram(self):
        return StaticHistogram(
            [Bucket(0.0, 10.0, 30.0), Bucket(5.0, 15.0, 30.0), Bucket(12.0, 20.0, 40.0)]
        )

    def test_overlap_disables_fast_path(self):
        histogram = self._overlapping_histogram()
        assert not histogram.segment_view().fast

    def test_fallback_matches_loops(self):
        histogram = self._overlapping_histogram()
        assert histogram.total_count == pytest.approx(100.0)
        for low, high in [(-1.0, 7.0), (5.0, 12.0), (0.0, 20.0), (13.0, 30.0)]:
            assert histogram.estimate_range(low, high) == pytest.approx(
                loop_estimate_range(histogram, low, high)
            )
            assert histogram.count_at_most(high) == pytest.approx(
                loop_count_at_most(histogram, high)
            )
        xs = np.linspace(-2, 25, 100)
        np.testing.assert_allclose(
            histogram.cdf_many(xs), loop_cdf_many(histogram, xs), rtol=1e-9
        )


# ----------------------------------------------------------------------
# DVO insert_many fast path
# ----------------------------------------------------------------------
class TestDVOInsertMany:
    def test_default_interval_matches_sequential_inserts(self, uniform_values):
        sequential = DVOHistogram(16)
        for value in uniform_values:
            sequential.insert(float(value))
        batched = DVOHistogram(16)
        batched.insert_many(float(v) for v in uniform_values)
        seq_buckets = [(b.left, b.right, b.count) for b in sequential.buckets()]
        bat_buckets = [(b.left, b.right, b.count) for b in batched.buckets()]
        assert seq_buckets == bat_buckets
        assert sequential.repartition_count == batched.repartition_count

    @pytest.mark.parametrize("interval", [4, 64])
    def test_batched_interval_conserves_count(self, interval, uniform_values):
        histogram = DADOHistogram(16)
        histogram.insert_many(
            (float(v) for v in uniform_values), repartition_interval=interval
        )
        assert histogram.total_count == pytest.approx(len(uniform_values), rel=1e-9)
        assert len(histogram.bucket_array) <= histogram.bucket_budget

    def test_invalid_interval_rejected(self):
        histogram = DADOHistogram(8)
        with pytest.raises(Exception):
            histogram.insert_many([1.0], repartition_interval=0)


# ----------------------------------------------------------------------
# wire form (the cluster's ``published`` op)
# ----------------------------------------------------------------------
class TestWireForm:
    """``from_wire(to_wire())`` through JSON rebuilds the view bit for bit."""

    ARRAYS = (
        "pm_values", "pm_counts", "pm_prefix",
        "reg_lefts", "reg_rights", "reg_counts", "reg_widths", "reg_prefix",
    )

    @staticmethod
    def histograms():
        rng = np.random.default_rng(23)
        values = np.concatenate(
            [np.repeat([5.0, 17.0, 40.0], 60), rng.normal(30.0, 9.0, 600).round(1)]
        )
        built = []
        for cls in (DCHistogram, DVOHistogram, DADOHistogram):
            histogram = cls(12)
            histogram.insert_many(values.tolist())
            histogram.delete_many(values[:200].tolist())
            built.append(histogram)
        built.append(DCHistogram(12))  # empty
        return built

    def test_round_trip_is_bit_identical(self):
        import json

        histograms = self.histograms()
        assert any(h.published_view().pm_values.size for h in histograms)  # point masses too
        for histogram in histograms:
            view = histogram.published_view()
            rebuilt = SegmentView.from_wire(json.loads(json.dumps(view.to_wire())))
            for name in self.ARRAYS:
                assert getattr(rebuilt, name).tobytes() == getattr(view, name).tobytes(), name
            for name in ("n_buckets", "total", "first_left", "last_right", "fast"):
                assert getattr(rebuilt, name) == getattr(view, name), name
            assert rebuilt.owned

    def test_estimates_from_the_rebuilt_view_are_equal(self):
        from repro.core.base import SnapshotHistogram
        from repro.service.store import evaluate_queries

        queries = [
            {"op": "total"},
            {"op": "range", "low": 10.0, "high": 35.5},
            {"op": "equal", "value": 17.0},
            {"op": "cdf", "xs": [0.0, 5.0, 17.0, 29.9, 80.0]},
            {"op": "selectivity", "low": 4.0, "high": 41.0},
        ]
        for histogram in self.histograms():
            view = histogram.published_view()
            local = evaluate_queries(SnapshotHistogram(view), queries)
            shipped = SnapshotHistogram(SegmentView.from_wire(view.to_wire()))
            assert evaluate_queries(shipped, queries) == local
