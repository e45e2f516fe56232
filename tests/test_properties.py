"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import (
    Bucket,
    DataDistribution,
    DADOHistogram,
    DCHistogram,
    DVOHistogram,
    ReservoirSampler,
    SubBucketedBucket,
    ks_statistic_between,
)
from repro.core.deviation import bucket_phi, merge_sub_buckets, merged_phi, split_bucket
from repro.datagen.zipf import zipf_counts, zipf_weights
from repro.static.ssbm import ssbm_partition
from repro.static.optimal_dp import optimal_partition

# Strategies -----------------------------------------------------------------

values_strategy = st.lists(
    st.integers(min_value=0, max_value=300), min_size=1, max_size=300
)

counts_strategy = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def sub_bucketed_pair(draw):
    """Two adjacent, non-overlapping sub-bucketed buckets with sane counts."""
    left = draw(st.floats(min_value=-1000, max_value=1000, allow_nan=False))
    width_a = draw(st.floats(min_value=0.5, max_value=500))
    gap = draw(st.floats(min_value=0.0, max_value=50))
    width_b = draw(st.floats(min_value=0.5, max_value=500))
    counts = [draw(counts_strategy) for _ in range(4)]
    first = SubBucketedBucket(left, left + width_a, counts[0], counts[1])
    second_left = left + width_a + gap
    second = SubBucketedBucket(second_left, second_left + width_b, counts[2], counts[3])
    return first, second


# DataDistribution ------------------------------------------------------------


@given(values_strategy)
def test_distribution_total_matches_input_length(values):
    dist = DataDistribution(values)
    assert dist.total_count == len(values)
    assert dist.distinct_count == len(set(values))


@given(values_strategy)
def test_distribution_cdf_is_monotone_and_normalised(values):
    dist = DataDistribution(values)
    points = np.linspace(min(values) - 1, max(values) + 1, 50)
    cdf = dist.cdf_many(points)
    assert np.all(np.diff(cdf) >= -1e-12)
    assert cdf[0] == 0.0 or min(values) <= points[0]
    assert cdf[-1] == 1.0


@given(values_strategy, st.integers(min_value=0, max_value=300))
def test_distribution_add_remove_round_trip(values, extra):
    dist = DataDistribution(values)
    before = dist.to_pairs()
    dist.add(extra)
    dist.remove(extra)
    assert dist.to_pairs() == before


@given(values_strategy)
def test_ks_between_identical_distributions_is_zero(values):
    dist = DataDistribution(values)
    assert ks_statistic_between(dist, dist.copy()) == 0.0


@given(values_strategy)
def test_range_count_matches_expanded_multiset(values):
    dist = DataDistribution(values)
    arr = np.asarray(values, dtype=float)
    low, high = np.percentile(arr, [20, 80])
    expected = np.count_nonzero((arr >= low) & (arr <= high))
    assert dist.range_count(low, high) == expected


# Buckets ---------------------------------------------------------------------


@given(
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    st.floats(min_value=0.0, max_value=100),
    counts_strategy,
    st.floats(min_value=-150, max_value=250),
    st.floats(min_value=0.0, max_value=100),
)
def test_bucket_range_counts_are_bounded(left, width, count, query_low, query_width):
    bucket = Bucket(left, left + width, count)
    in_range = bucket.count_in_range(query_low, query_low + query_width)
    assert 0.0 <= in_range <= count + 1e-9
    assert bucket.count_at_most(bucket.right) >= count - 1e-6


# Deviation algebra -----------------------------------------------------------


@given(sub_bucketed_pair(), st.sampled_from(["variance", "absolute"]))
@settings(max_examples=200)
def test_merge_never_decreases_phi(pair, metric):
    first, second = pair
    combined = merged_phi(first, second, metric)
    separate = bucket_phi(first, metric) + bucket_phi(second, metric)
    assert combined >= separate - 1e-6 * max(1.0, abs(separate))


@given(sub_bucketed_pair())
def test_merge_preserves_count(pair):
    first, second = pair
    merged = merge_sub_buckets(first, second)
    np.testing.assert_allclose(merged.count, first.count + second.count, rtol=1e-9, atol=1e-9)


@given(sub_bucketed_pair(), st.sampled_from(["variance", "absolute"]))
def test_split_produces_zero_phi_halves(pair, metric):
    bucket, _ = pair
    assume(not bucket.is_point_mass)
    left, right = split_bucket(bucket)
    assert bucket_phi(left, metric) <= 1e-9 * max(1.0, bucket.count)
    assert bucket_phi(right, metric) <= 1e-9 * max(1.0, bucket.count)
    np.testing.assert_allclose(left.count + right.count, bucket.count, rtol=1e-9)


# Zipf ------------------------------------------------------------------------


@given(st.integers(min_value=1, max_value=500), st.floats(min_value=0.0, max_value=4.0))
def test_zipf_weights_are_a_distribution(n, skew):
    weights = zipf_weights(n, skew)
    assert len(weights) == n
    assert abs(weights.sum() - 1.0) < 1e-9
    assert np.all(weights > 0)


@given(
    st.integers(min_value=0, max_value=100_000),
    st.integers(min_value=1, max_value=200),
    st.floats(min_value=0.0, max_value=3.0),
)
def test_zipf_counts_sum_exactly(total, n, skew):
    counts = zipf_counts(total, n, skew)
    assert counts.sum() == total
    assert np.all(counts >= 0)


# Partitions ------------------------------------------------------------------


@given(
    st.lists(st.floats(min_value=0, max_value=1000, allow_nan=False), min_size=2, max_size=60),
    st.integers(min_value=1, max_value=12),
)
def test_ssbm_partition_is_a_partition(frequencies, n_buckets):
    freqs = np.asarray(frequencies)
    partition = ssbm_partition(freqs, n_buckets)
    assert partition[0][0] == 0
    assert partition[-1][1] == len(freqs) - 1
    covered = sum(end - start + 1 for start, end in partition)
    assert covered == len(freqs)
    assert len(partition) == min(n_buckets, len(freqs))


@given(
    st.lists(st.floats(min_value=0, max_value=1000, allow_nan=False), min_size=2, max_size=25),
    st.integers(min_value=1, max_value=6),
)
@settings(max_examples=60, deadline=None)
def test_optimal_partition_is_a_partition(frequencies, n_buckets):
    freqs = np.asarray(frequencies)
    partition = optimal_partition(freqs, n_buckets)
    assert partition[0][0] == 0
    assert partition[-1][1] == len(freqs) - 1
    covered = sum(end - start + 1 for start, end in partition)
    assert covered == len(freqs)


# Dynamic histograms ----------------------------------------------------------


@given(values_strategy)
@settings(max_examples=40, deadline=None)
def test_dado_count_conservation(values):
    histogram = DADOHistogram(12)
    for value in values:
        histogram.insert(float(value))
    np.testing.assert_allclose(histogram.total_count, len(values), rtol=1e-9)


@given(values_strategy)
@settings(max_examples=40, deadline=None)
def test_dc_count_conservation(values):
    histogram = DCHistogram(12)
    for value in values:
        histogram.insert(float(value))
    np.testing.assert_allclose(histogram.total_count, len(values), rtol=1e-6)


@given(values_strategy, st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_dado_insert_then_delete_everything(values, seed):
    histogram = DADOHistogram(10)
    rng = np.random.default_rng(seed)
    for value in values:
        histogram.insert(float(value))
    for value in rng.permutation(np.asarray(values, dtype=float)):
        histogram.delete(float(value))
    assert abs(histogram.total_count) < 1e-6


ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["insert", "insert_far", "delete"]),
        st.integers(min_value=0, max_value=300),
    ),
    min_size=20,
    max_size=250,
)


@st.composite
def interleaved_stream(draw):
    """A stream of inserts, far out-of-range inserts and safe deletes."""
    ops = draw(ops_strategy)
    return ops


@given(st.sampled_from([DADOHistogram, DVOHistogram]), interleaved_stream())
@settings(max_examples=40, deadline=None)
def test_dynamic_vopt_mass_conservation_under_interleaved_stream(histogram_class, ops):
    """Mass in == mass retained under long interleaved update streams.

    Inserts (including far out-of-range ones, which exercise the borrow-and-
    merge path) add exactly one unit each; deletes remove exactly one unit of
    previously inserted mass.  No maintenance operation may leak mass.
    """
    histogram = histogram_class(10)
    live = 0
    far_offset = 100_000
    n_far = 0
    for op, value in ops:
        if op == "insert":
            histogram.insert(float(value))
            live += 1
        elif op == "insert_far":
            # Alternate far beyond both ends so end buckets keep stretching.
            n_far += 1
            sign = 1 if n_far % 2 else -1
            histogram.insert(float(sign * (far_offset + value * 10)))
            live += 1
        elif live > 0 and not histogram.is_loading:
            histogram.delete(float(value))
            live -= 1
    np.testing.assert_allclose(histogram.total_count, live, rtol=1e-9, atol=1e-6)


def _assert_view_matches_array_state(histogram):
    """The derived views and the BucketArray single source of truth agree.

    * the exposed ``buckets()`` list carries exactly the array's mass,
    * the zero-copy ``segment_view()`` answers queries identically to a view
      materialised from the exposed bucket list,
    * the spliced phi / pair-phi caches are bit-identical to a from-scratch
      rebuild from the borders and sub-counts.
    """
    from repro.core.segment_view import SegmentView

    array = histogram.bucket_array
    buckets = histogram.buckets()

    total_from_buckets = float(sum(bucket.count for bucket in buckets))
    np.testing.assert_allclose(total_from_buckets, array.total(), rtol=1e-12, atol=1e-9)

    view = histogram.segment_view()
    reference = SegmentView.from_buckets(buckets)
    assert view.fast == reference.fast
    assert view.n_buckets == reference.n_buckets
    np.testing.assert_allclose(view.total, reference.total, rtol=1e-12, atol=1e-9)
    np.testing.assert_array_equal(view.pm_values, reference.pm_values)
    np.testing.assert_allclose(view.pm_counts, reference.pm_counts, rtol=1e-12)
    np.testing.assert_array_equal(view.reg_lefts, reference.reg_lefts)
    np.testing.assert_array_equal(view.reg_rights, reference.reg_rights)
    np.testing.assert_allclose(view.reg_counts, reference.reg_counts, rtol=1e-12)

    spliced_phis = array.phis.copy()
    spliced_pairs = array.pair_phis.copy()
    histogram._rebuild_phis()
    np.testing.assert_array_equal(spliced_phis, array.phis)
    np.testing.assert_array_equal(spliced_pairs, array.pair_phis)


@given(interleaved_stream())
@settings(max_examples=25, deadline=None)
def test_views_match_array_state_under_interleaved_maintenance(ops):
    """buckets()/segment_view() always agree with the live BucketArray.

    The stream drives every maintenance operation -- split/merge repartitions,
    out-of-range borrows, deletions with spill -- and at checkpoints asserts
    that the derived views and the spliced phi caches exactly describe the
    array state (the single-source-of-truth invariant of the array core).
    """
    histogram = DADOHistogram(8)
    live = 0
    for index, (op, value) in enumerate(ops):
        if op == "insert":
            histogram.insert(float(value))
            live += 1
        elif op == "insert_far":
            histogram.insert(float(50_000 + value * 7))
            live += 1
        elif live > 0 and not histogram.is_loading:
            histogram.delete(float(value))
            live -= 1
        if histogram.is_loading or index % 10:
            continue
        _assert_view_matches_array_state(histogram)
    if not histogram.is_loading:
        _assert_view_matches_array_state(histogram)


@given(
    st.sampled_from([DVOHistogram, DADOHistogram]),
    st.integers(min_value=1, max_value=3),
    values_strategy,
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_delete_many_matches_per_value_deletes(histogram_class, sub_buckets, values, seed):
    """The vectorised delete path ends in the per-value path's exact arrays.

    Borders, sub-counts and the phi / pair-phi caches must match bit for bit,
    as ``_delete_many`` promises, not merely the bucket counts up to rounding.
    """
    per_value = histogram_class(10, sub_buckets=sub_buckets)
    batched = histogram_class(10, sub_buckets=sub_buckets)
    floats = [float(v) for v in values]
    per_value.insert_many(floats, repartition_interval=4)
    batched.insert_many(floats, repartition_interval=4)

    rng = np.random.default_rng(seed)
    order = rng.permutation(np.asarray(floats, dtype=float))
    to_delete = order[: len(order) // 2]
    for value in to_delete:
        per_value.delete(float(value))
    batched.delete_many(list(to_delete))

    assert per_value.is_loading == batched.is_loading
    if per_value.is_loading:
        assert per_value._loading == batched._loading
        return
    a, b = per_value.bucket_array, batched.bucket_array
    for name in ("lefts", "rights", "sub_counts", "phis", "pair_phis"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


@given(values_strategy, st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_dc_delete_many_matches_per_value_deletes(values, seed):
    """DC's binning delete pass ends in the per-value path's buckets.

    Borders match exactly; counts match up to the summation order of the
    batched pass.
    """
    per_value = DCHistogram(10)
    batched = DCHistogram(10)
    floats = [float(v) for v in values]
    per_value.insert_many(floats, repartition_interval=4)
    batched.insert_many(floats, repartition_interval=4)

    rng = np.random.default_rng(seed)
    to_delete = rng.permutation(np.asarray(floats, dtype=float))[: len(floats) // 2]
    for value in to_delete:
        per_value.delete(float(value))
    batched.delete_many(list(to_delete))

    a, b = per_value.buckets(), batched.buckets()
    assert [(x.left, x.right) for x in a] == [(x.left, x.right) for x in b]
    np.testing.assert_allclose(
        [x.count for x in a], [x.count for x in b], rtol=1e-9, atol=1e-9
    )


@given(
    st.sampled_from([DCHistogram, DVOHistogram, DADOHistogram]),
    values_strategy,
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_delete_heavy_mass_conservation(histogram_class, values, seed):
    """Delete-heavy batches conserve mass exactly on DC and DVO/DADO.

    Every inserted value is deleted again through ``delete_many`` in shuffled
    batches (the paper's Figure 17-18 regime); after each batch the total
    count must equal the live mass, and the histogram ends empty.
    """
    histogram = histogram_class(10)
    floats = [float(v) for v in values]
    histogram.insert_many(floats, repartition_interval=8)
    rng = np.random.default_rng(seed)
    order = rng.permutation(np.asarray(floats, dtype=float))
    remaining = len(order)
    position = 0
    while position < len(order):
        batch = [float(v) for v in order[position : position + 37]]
        position += len(batch)
        histogram.delete_many(batch)
        remaining -= len(batch)
        np.testing.assert_allclose(
            histogram.total_count, remaining, rtol=1e-9, atol=1e-6
        )
    np.testing.assert_allclose(histogram.total_count, 0.0, atol=1e-6)


# Reservoir sampling ----------------------------------------------------------


@given(
    st.integers(min_value=1, max_value=50),
    st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), max_size=300),
)
def test_reservoir_never_exceeds_capacity(capacity, stream):
    sampler = ReservoirSampler(capacity, seed=0)
    sampler.offer_many(stream)
    assert sampler.size == min(capacity, len(stream))
    assert sampler.seen_count == len(stream)
    assert all(value in [float(v) for v in stream] for value in sampler.values())
