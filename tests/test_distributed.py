"""Unit tests for the shared-nothing global histogram layer (Section 8)."""

import numpy as np
import pytest

from repro import (
    DataDistribution,
    ExactHistogram,
    GlobalHistogramCoordinator,
    GlobalStrategy,
    SiteGenerationConfig,
    SSBMHistogram,
    generate_sites,
    ks_statistic,
    reduce_segments,
    superimpose,
)
from repro.core.bucket import Bucket
from repro.core.deviation import DeviationMetric, segments_phi
from repro.distributed.union import UnionHistogram
from repro.exceptions import ConfigurationError


class TestSiteGeneration:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SiteGenerationConfig(n_sites=0)
        with pytest.raises(ConfigurationError):
            SiteGenerationConfig(min_range_fraction=0.0)
        with pytest.raises(ConfigurationError):
            SiteGenerationConfig(domain=(10, 5))

    def test_generates_requested_sites(self):
        config = SiteGenerationConfig(n_sites=4, total_points=2000, seed=1)
        sites = generate_sites(config)
        assert len(sites) == 4
        assert sum(site.size for site in sites) == pytest.approx(2000, abs=4)

    def test_site_data_stays_in_global_domain(self):
        config = SiteGenerationConfig(n_sites=3, total_points=1500, domain=(0, 500), seed=2)
        for site in generate_sites(config):
            assert site.data.min_value >= 0
            assert site.data.max_value <= 500

    def test_site_size_skew_concentrates_data(self):
        flat = generate_sites(SiteGenerationConfig(n_sites=6, total_points=6000, seed=3))
        skewed = generate_sites(
            SiteGenerationConfig(n_sites=6, total_points=6000, site_size_skew=2.0, seed=3)
        )
        assert max(s.size for s in skewed) > max(s.size for s in flat)

    def test_local_histogram_build(self):
        config = SiteGenerationConfig(n_sites=2, total_points=1000, seed=4)
        site = generate_sites(config)[0]
        histogram = site.build_local_histogram(0.25)
        assert histogram.total_count == pytest.approx(site.size)


class TestSuperposition:
    def test_superposition_of_exact_histograms_is_lossless(self):
        first = DataDistribution([1, 2, 2, 3])
        second = DataDistribution([2, 5, 6])
        union = superimpose([ExactHistogram.build(first), ExactHistogram.build(second)])
        pooled = DataDistribution([1, 2, 2, 3, 2, 5, 6])
        assert union.total_count == pytest.approx(7)
        assert ks_statistic(pooled, union) == pytest.approx(0.0, abs=1e-12)

    def test_superposition_preserves_total_count(self, small_distribution):
        histogram_a = SSBMHistogram.build(small_distribution, 10)
        histogram_b = SSBMHistogram.build(small_distribution, 15)
        union = superimpose([histogram_a, histogram_b])
        assert union.total_count == pytest.approx(2 * small_distribution.total_count)

    def test_union_has_borders_of_both_members(self, small_distribution):
        histogram_a = SSBMHistogram.build(small_distribution, 5)
        histogram_b = SSBMHistogram.build(small_distribution, 9)
        union = superimpose([histogram_a, histogram_b])
        assert union.bucket_count >= max(histogram_a.bucket_count, histogram_b.bucket_count)

    def test_empty_input_rejected(self):
        with pytest.raises(ConfigurationError):
            superimpose([])


class TestReduction:
    def test_reduction_hits_bucket_budget(self, small_distribution):
        union = superimpose(
            [SSBMHistogram.build(small_distribution, 20), SSBMHistogram.build(small_distribution, 20)]
        )
        reduced = reduce_segments(union, 12)
        assert reduced.bucket_count <= 12
        assert reduced.total_count == pytest.approx(union.total_count)

    def test_reduction_with_budget_larger_than_input(self, small_distribution):
        histogram = SSBMHistogram.build(small_distribution, 8)
        reduced = reduce_segments(histogram, 100)
        assert reduced.bucket_count == histogram.bucket_count

    def test_invalid_budget(self, small_distribution):
        histogram = SSBMHistogram.build(small_distribution, 8)
        with pytest.raises(ConfigurationError):
            reduce_segments(histogram, 0)


def reduce_with_segments_phi(histogram, n_buckets, metric, value_unit):
    """The reduction the plain way: every pair cost is ``segments_phi`` over a
    fresh slice of the joined run (the oracle for ``reduce_segments``)."""
    segments = [(b.left, b.right, b.count) for b in histogram.buckets()]
    groups = [[index, index] for index in range(len(segments))]  # [start, end]
    while len(groups) > n_buckets:
        costs = [
            segments_phi(
                segments[groups[i][0] : groups[i + 1][1] + 1], metric, value_unit=value_unit
            )
            for i in range(len(groups) - 1)
        ]
        best = min(range(len(costs)), key=lambda i: (costs[i], groups[i][0]))
        groups[best : best + 2] = [[groups[best][0], groups[best + 1][1]]]
    return [
        (
            segments[start][0],
            max(segment[1] for segment in segments[start : end + 1]),
            sum(segment[2] for segment in segments[start : end + 1]),
        )
        for start, end in groups
    ]


class TestReductionPinnedToSegmentsPhi:
    """``reduce_segments`` evaluates pair costs from per-segment value counts
    computed once; the result must equal the ``segments_phi`` path bit for bit."""

    @pytest.mark.parametrize("metric", ["variance", "absolute"])
    @pytest.mark.parametrize("value_unit", [1.0, 0.25, 3.0])
    def test_random_segment_sets(self, metric, value_unit):
        rng = np.random.default_rng([7, int(value_unit * 4), len(metric)])
        for _ in range(12):
            n = int(rng.integers(6, 60))
            borders = np.cumsum(rng.choice([0.0, 0.1, 0.5, 1.0, 2.5, 7.0], size=n + 1))
            buckets = [
                Bucket(float(left), float(right), float(count))
                for left, right, count in zip(
                    borders[:-1], borders[1:], rng.exponential(20.0, n).round(3), strict=True
                )
            ]
            union = UnionHistogram(buckets)
            for budget in (1, 3, max(1, n // 4), n - 1):
                got = [(b.left, b.right, b.count) for b in reduce_segments(
                    union, budget, metric=metric, value_unit=value_unit
                ).buckets()]
                want = reduce_with_segments_phi(
                    union, budget, DeviationMetric(metric), value_unit
                )
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestDegenerateClusterInputs:
    """The degenerate shapes a live cluster feeds into the union operators.

    Regression tests for the explicit early returns: empty shards, all-empty
    unions, single-bucket unions, and a reduce budget at or above the current
    segment count must round-trip without touching the merge loop.
    """

    def test_superimpose_with_empty_members_ignores_them(self):
        from repro import DCHistogram

        empty = DCHistogram(n_buckets=8)  # never inserted into: zero buckets
        full = ExactHistogram.build(DataDistribution([1, 2, 2, 3]))
        union = superimpose([empty, full])
        assert union.total_count == pytest.approx(4.0)

    def test_superimpose_of_all_empty_members_is_an_empty_union(self):
        from repro import DCHistogram

        union = superimpose([DCHistogram(n_buckets=8), DCHistogram(n_buckets=8)])
        assert union.bucket_count == 0
        assert union.total_count == 0.0
        assert union.estimate_range(0.0, 100.0) == 0.0
        assert union.estimate_equal(5.0) == 0.0
        assert list(union.cdf_many([0.0, 1.0])) == [0.0, 0.0]

    def test_reduce_of_an_empty_union_is_empty(self):
        from repro import DCHistogram

        union = superimpose([DCHistogram(n_buckets=8)])
        reduced = reduce_segments(union, 5)
        assert reduced.bucket_count == 0
        assert reduced.total_count == 0.0

    def test_reduce_of_a_single_bucket_union_returns_it_unchanged(self):
        union = superimpose([ExactHistogram.build(DataDistribution([7, 7, 7]))])
        reduced = reduce_segments(union, 5)
        assert [(b.left, b.right, b.count) for b in reduced.buckets()] == [
            (b.left, b.right, b.count) for b in union.buckets()
        ]

    def test_reduce_with_budget_equal_to_segment_count_is_identity(self, small_distribution):
        histogram = SSBMHistogram.build(small_distribution, 8)
        reduced = reduce_segments(histogram, histogram.bucket_count)
        assert [(b.left, b.right, b.count) for b in reduced.buckets()] == [
            (b.left, b.right, b.count) for b in histogram.buckets()
        ]


class TestCoordinator:
    @pytest.fixture
    def sites(self):
        return generate_sites(SiteGenerationConfig(n_sites=4, total_points=4000, seed=5))

    def test_both_strategies_produce_histograms(self, sites):
        coordinator = GlobalHistogramCoordinator(sites, 0.25)
        for strategy in GlobalStrategy:
            histogram = coordinator.build(strategy)
            assert histogram.total_count == pytest.approx(
                sum(site.size for site in sites), rel=1e-6
            )

    def test_evaluation_returns_bounded_ks(self, sites):
        coordinator = GlobalHistogramCoordinator(sites, 0.25)
        results = coordinator.evaluate()
        assert set(results) == {"histogram_then_union", "union_then_histogram"}
        for value in results.values():
            assert 0.0 <= value <= 1.0

    def test_strategies_have_comparable_quality(self, sites):
        # Section 8: the two alternatives give histograms of approximately the
        # same quality.
        coordinator = GlobalHistogramCoordinator(sites, 0.25)
        results = coordinator.evaluate()
        difference = abs(
            results["histogram_then_union"] - results["union_then_histogram"]
        )
        assert difference < 0.1

    def test_pooled_data_matches_site_sizes(self, sites):
        coordinator = GlobalHistogramCoordinator(sites, 0.25)
        assert coordinator.pooled_data().total_count == sum(site.size for site in sites)

    def test_empty_site_list_rejected(self):
        with pytest.raises(ConfigurationError):
            GlobalHistogramCoordinator([], 0.25)

    def test_invalid_memory_rejected(self, sites):
        with pytest.raises(ConfigurationError):
            GlobalHistogramCoordinator(sites, 0.0)
