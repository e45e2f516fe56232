"""Unit tests for the Dynamic Compressed (DC) histogram (Section 3)."""

import numpy as np
import pytest

from repro import DataDistribution, DCHistogram, ks_statistic
from repro.exceptions import ConfigurationError, DeletionError


class TestConstruction:
    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            DCHistogram(0)
        with pytest.raises(ConfigurationError):
            DCHistogram(10, alpha_min=2.0)
        with pytest.raises(ConfigurationError):
            DCHistogram(10, value_unit=0.0)

    def test_accessors(self):
        histogram = DCHistogram(16, alpha_min=1e-4)
        assert histogram.bucket_budget == 16
        assert histogram.alpha_min == 1e-4
        assert histogram.repartition_count == 0
        assert histogram.is_loading


class TestLoadingPhase:
    def test_loading_buffers_distinct_points(self):
        histogram = DCHistogram(8)
        for value in [5, 5, 5, 7]:
            histogram.insert(value)
        assert histogram.is_loading
        assert histogram.total_count == 4
        assert histogram.bucket_count == 2  # point masses while loading

    def test_loading_ends_at_budget_distinct_values(self):
        histogram = DCHistogram(8)
        for value in range(8):
            histogram.insert(value)
        assert not histogram.is_loading
        assert histogram.total_count == pytest.approx(8)

    def test_delete_during_loading(self):
        histogram = DCHistogram(8)
        histogram.insert(5)
        histogram.insert(5)
        histogram.delete(5)
        assert histogram.total_count == 1
        histogram.delete(5)
        with pytest.raises(DeletionError):
            histogram.delete(5)


class TestInsertions:
    def test_count_is_conserved(self, uniform_values):
        histogram = DCHistogram(32)
        for value in uniform_values:
            histogram.insert(float(value))
        assert histogram.total_count == pytest.approx(len(uniform_values), rel=1e-9)

    def test_out_of_range_values_extend_end_buckets(self):
        histogram = DCHistogram(4)
        for value in [10, 20, 30, 40]:
            histogram.insert(value)
        histogram.insert(5)
        histogram.insert(100)
        assert histogram.min_value <= 5
        assert histogram.max_value >= 100
        assert histogram.total_count == pytest.approx(6)

    def test_repartitioning_occurs_under_skewed_load(self, rng):
        histogram = DCHistogram(16, alpha_min=1e-6)
        values = np.concatenate(
            [np.arange(16), rng.integers(3, 5, size=3000)]  # hammer a narrow region
        )
        for value in values:
            histogram.insert(float(value))
        assert histogram.repartition_count > 0
        assert histogram.total_count == pytest.approx(len(values), rel=1e-6)

    def test_repartitioning_keeps_regular_counts_balanced(self, rng):
        histogram = DCHistogram(16, alpha_min=1e-3)
        values = rng.integers(0, 50, size=4000)
        for value in values:
            histogram.insert(float(value))
        buckets = histogram.buckets()
        regular_counts = [b.count for b in buckets if not b.is_point_mass and b.count > 0]
        # After (possibly many) repartitions the spread of regular counts must
        # stay well below the total count.
        assert max(regular_counts) - min(regular_counts) < histogram.total_count / 2

    def test_lower_alpha_min_means_fewer_repartitions(self, rng):
        values = rng.integers(0, 80, size=4000)
        eager = DCHistogram(16, alpha_min=1e-2)
        lazy = DCHistogram(16, alpha_min=1e-12)
        for value in values:
            eager.insert(float(value))
            lazy.insert(float(value))
        assert lazy.repartition_count <= eager.repartition_count

    def test_accuracy_on_uniform_data(self, uniform_values):
        histogram = DCHistogram(64)
        truth = DataDistribution()
        for value in uniform_values:
            histogram.insert(float(value))
            truth.add(float(value))
        assert ks_statistic(truth, histogram, value_unit=1.0) < 0.05


class TestSingularBuckets:
    def test_heavy_value_becomes_singular(self, rng):
        histogram = DCHistogram(16)
        background = rng.integers(0, 100, size=2000)
        heavy = np.full(1500, 42)
        for value in np.concatenate([background, heavy]):
            histogram.insert(float(value))
        assert histogram.singular_value_count >= 1
        singular_values = [b.left for b in histogram.buckets() if b.is_point_mass]
        assert 42.0 in singular_values

    def test_estimate_of_heavy_value_is_accurate(self, rng):
        histogram = DCHistogram(16)
        background = rng.integers(0, 100, size=2000)
        heavy = np.full(1500, 42)
        truth = DataDistribution()
        for value in np.concatenate([background, heavy]):
            histogram.insert(float(value))
            truth.add(float(value))
        estimated = histogram.estimate_equal(42.0)
        assert estimated == pytest.approx(truth.frequency(42.0), rel=0.35)


class TestDeletions:
    def test_delete_reverses_insert(self, uniform_values):
        histogram = DCHistogram(32)
        for value in uniform_values:
            histogram.insert(float(value))
        for value in uniform_values[:500]:
            histogram.delete(float(value))
        assert histogram.total_count == pytest.approx(len(uniform_values) - 500, rel=1e-9)

    def test_delete_from_empty_histogram_raises(self):
        histogram = DCHistogram(4)
        for value in [1, 2, 3, 4]:
            histogram.insert(value)
        for value in [1, 2, 3, 4]:
            histogram.delete(value)
        with pytest.raises(DeletionError):
            histogram.delete(1)

    def test_delete_spills_to_closest_bucket(self):
        histogram = DCHistogram(4)
        for value in [10, 20, 30, 40]:
            histogram.insert(value)
        # Bucket around 40 has a single point; delete it twice -- the second
        # delete must spill to a neighbouring bucket instead of failing.
        histogram.delete(40)
        histogram.delete(40)
        assert histogram.total_count == pytest.approx(2)


class TestInsertMany:
    def test_interval_one_matches_per_value_inserts(self, uniform_values):
        looped = DCHistogram(24)
        batched = DCHistogram(24)
        for value in uniform_values:
            looped.insert(float(value))
        batched.insert_many([float(value) for value in uniform_values])
        assert batched.total_count == pytest.approx(looped.total_count)
        assert batched.repartition_count == looped.repartition_count
        for a, b in zip(batched.buckets(), looped.buckets(), strict=True):
            assert a.left == pytest.approx(b.left)
            assert a.right == pytest.approx(b.right)
            assert a.count == pytest.approx(b.count)

    def test_batched_interval_preserves_total_and_accuracy(self, uniform_values):
        truth = DataDistribution(uniform_values)
        histogram = DCHistogram(24)
        histogram.insert_many(
            [float(value) for value in uniform_values], repartition_interval=16
        )
        assert histogram.total_count == pytest.approx(len(uniform_values))
        assert ks_statistic(truth, histogram, value_unit=1.0) < 0.1

    def test_batched_insert_refreshes_cached_view(self):
        histogram = DCHistogram(8)
        histogram.insert_many([float(v) for v in range(20)], repartition_interval=4)
        before = histogram.total_count
        histogram.insert_many([3.0, 4.0], repartition_interval=4)
        assert histogram.total_count == pytest.approx(before + 2)

    def test_invalid_interval_rejected(self):
        histogram = DCHistogram(8)
        with pytest.raises(ConfigurationError):
            histogram.insert_many([1.0], repartition_interval=0)


def oracle_closest_non_empty(histogram, value):
    """The spill target the plain way: scan every bucket in Python, keeping
    the first regular bucket of least distance, then any strictly closer
    singular bucket."""
    array = histogram.bucket_array
    lefts, rights = array.lefts.tolist(), array.rights.tolist()
    best = None
    for index, count in enumerate(array.sub_counts[:, 0].tolist()):
        if count <= 0:
            continue
        left, right = lefts[index], rights[index]
        distance = 0.0 if left <= value <= right else min(abs(value - left), abs(value - right))
        if best is None or distance < best[0]:
            best = (distance, "regular", float(index))
    for singular_value, count in histogram._singular.items():
        if count > 0 and (best is None or abs(singular_value - value) < best[0]):
            best = (abs(singular_value - value), "singular", singular_value)
    return None if best is None else (best[1], best[2])


class OracleSpillDC(DCHistogram):
    """A DC histogram whose deletes spill by the Python scan."""

    def _closest_non_empty(self, value):
        return oracle_closest_non_empty(self, value)


def dc_state(histogram):
    from repro.persistence import histogram_to_dict

    array = histogram.bucket_array
    return (
        array.lefts.tobytes(),
        array.rights.tobytes(),
        array.sub_counts.tobytes(),
        histogram_to_dict(histogram),
    )


class TestClosestNonEmptyOracle:
    """The numpy spill ranking is pinned to the Python scan it replaced."""

    @staticmethod
    def clustered(seed, n=3000):
        rng = np.random.default_rng(seed)
        centers = rng.uniform(0, 1000, 12)
        values = rng.normal(centers[rng.integers(0, 12, n)], 4.0).round()
        return np.concatenate([values, np.repeat([250.0, 610.0], 40)])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_same_target_for_every_probe(self, seed):
        histogram = DCHistogram(20)
        values = self.clustered(seed)
        histogram.insert_many(values.tolist())
        histogram.delete_many(np.sort(values)[:500].tolist())
        probes = np.concatenate([np.random.default_rng(seed).uniform(-50, 1050, 200), [250.0, 610.0]])
        for value in probes.tolist():
            assert histogram._closest_non_empty(value) == oracle_closest_non_empty(histogram, value)

    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_spilling_deletes_end_in_the_same_state(self, seed):
        values = self.clustered(seed)
        low_first = np.sort(values)
        histograms = [DCHistogram(20), OracleSpillDC(20)]
        for histogram in histograms:
            histogram.insert_many(values.tolist())
            histogram.delete_many(low_first[:600].tolist())  # empties the lowest buckets
            for value in low_first[600:700].tolist():
                histogram.delete(value)
        assert histograms[0].repartition_count == histograms[1].repartition_count
        assert dc_state(histograms[0]) == dc_state(histograms[1])
