"""The DVO/DADO delete spill policy (Section 7.3), pinned to an independent oracle.

The oracle below ranks a delete's candidate slots the plain way: it builds a
``(distance, bucket, sub)`` tuple for every sub-bucket slot and sorts them.
The histogram ranks with numpy (and once per batch in ``delete_many``), so a
ranking bug shared by ``delete`` and ``delete_many`` would pass a test that
only compares those two paths; here both are compared with a twin that
deletes value by value with the oracle ranking.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DADOHistogram, DVOHistogram
from repro.exceptions import DeletionError
from repro.persistence import histogram_from_dict, histogram_to_dict


def oracle_candidates(histogram, value):
    """Every ``(bucket, sub)`` slot, closest range to ``value`` first.

    A point-mass row is one segment, so it offers only sub-slot 0.
    """
    array = histogram.bucket_array
    k = histogram.sub_bucket_count
    candidates = []
    lefts, rights = array.lefts.tolist(), array.rights.tolist()
    for bucket, (left, right) in enumerate(zip(lefts, rights, strict=True)):
        if right == left or k == 1:
            borders = [left, right]
        else:
            step = (right - left) / k
            borders = [left + i * step for i in range(k)] + [right]
        for sub in range(len(borders) - 1):
            low, high = borders[sub], borders[sub + 1]
            distance = 0.0 if low <= value <= high else min(abs(value - low), abs(value - high))
            candidates.append((distance, bucket, sub))
    candidates.sort()
    return [(bucket, sub) for _, bucket, sub in candidates]


def oracle_delete(histogram, value):
    """Delete one value: take one unit, closest oracle candidate first."""
    value = float(value)
    array = histogram.bucket_array
    try:
        if array.total() < 1.0 - 1e-9:
            raise DeletionError("cannot delete from an empty histogram")
        remaining = 1.0
        touched = set()
        for bucket, sub in oracle_candidates(histogram, value):
            if remaining <= 1e-12:
                break
            available = array.sub_counts[bucket, sub]
            if available <= 0:
                continue
            taken = min(float(available), remaining)
            array.sub_counts[bucket, sub] -= taken
            remaining -= taken
            touched.add(bucket)
        if remaining > 1e-9:
            raise DeletionError("all buckets are empty; nothing to delete")
        for bucket in touched:
            histogram._refresh_bucket(bucket)
    finally:
        histogram._invalidate_view()


def array_state(histogram):
    """The exact bytes of every array: borders, sub-counts, phis, pair-phis."""
    array = histogram.bucket_array
    parts = (array.lefts, array.rights, array.sub_counts, array.phis, array.pair_phis)
    return [np.ascontiguousarray(part).tobytes() for part in parts]


def run_deletes(delete_one, values):
    """Delete ``values`` one by one; the error raised (if any) and how many applied."""
    for applied, value in enumerate(values):
        try:
            delete_one(value)
        except DeletionError as error:
            return str(error), applied
    return None, len(values)


# Strategies -------------------------------------------------------------------

COUNTS = st.sampled_from(
    [0.0, 0.0, 0.25, 0.5, 1.0, 1.0, 1.0, 2.0, 3.0, 5.0, 1 / 3, 2 / 3, 1 - 2**-52, 7.5]
)


@st.composite
def drawn_states(draw):
    """Hand-drawn rows: fractional counts, border gaps and point-mass rows."""
    k = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=10))
    x = draw(st.sampled_from([-40.0, 0.0, 3.0, 100.5]))
    rows = []
    for index in range(n):
        if index:
            x += draw(st.sampled_from([0.0, 0.0, 0.0, 1.0, 2.5]))
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            # A point mass (what a single-value bootstrap or an
            # out-of-range insert leaves): its mass sits in sub-slot 0.
            rows.append([x, x, [draw(COUNTS)] + [0.0] * (k - 1)])
        else:
            width = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0, 7.0, 10.0]))
            rows.append([x, x + width, [draw(COUNTS) for _ in range(k)]])
            x += width
    return k, rows


@st.composite
def streamed_states(draw):
    """Rows a real insert/delete history produced (repartitions, borrows)."""
    k = draw(st.integers(min_value=1, max_value=3))
    budget = draw(st.integers(min_value=3, max_value=12))
    histogram = DVOHistogram(budget, sub_buckets=k)
    values = draw(
        st.lists(st.integers(min_value=0, max_value=60), min_size=budget + 1, max_size=80)
    )
    histogram.insert_many([float(v) for v in values], repartition_interval=4)
    for far in draw(st.lists(st.sampled_from([-30.0, -5.0, 90.0, 200.0]), max_size=3)):
        histogram.insert(far)
    if histogram.is_loading:
        histogram.insert_many([float(v) for v in range(budget + 1)])
    for value in draw(st.lists(st.integers(min_value=0, max_value=60), max_size=20)):
        try:
            histogram.delete(float(value))
        except DeletionError:
            break
    return k, histogram.bucket_array.to_rows()


@st.composite
def delete_cases(draw):
    """A state, its class and a delete stream around (and beyond) its rows."""
    k, rows = draw(st.one_of(drawn_states(), streamed_states()))
    kind = draw(st.sampled_from(["dvo", "dado"]))
    state = {
        "format_version": 1,
        "kind": kind,
        "bucket_budget": max(len(rows), draw(st.integers(min_value=3, max_value=12))),
        "sub_buckets": k,
        "value_unit": 1.0,
        "repartition_threshold": 0.0,
        "buckets": rows,
    }
    low, high = rows[0][0], rows[-1][1]
    borders = sorted({border for left, right, _ in rows for border in (left, right)})
    gaps = [(a + b) / 2 for a, b in zip(borders[:-1], borders[1:], strict=True)]
    special = [*borders, *gaps, low - 1.0, low - 7.5, high + 1.0, high + 7.5, high + 1e6]
    values = draw(
        st.lists(
            st.one_of(
                st.sampled_from(special),
                st.floats(min_value=low - 20.0, max_value=high + 20.0),
            ),
            min_size=1,
            max_size=60,
        )
    )
    return state, values


# Tests ------------------------------------------------------------------------


def check_against_oracle(state, values):
    histogram = histogram_from_dict(state)
    k = histogram.sub_bucket_count
    # (a) the candidate order is the oracle's, for every value of the stream.
    for value in values:
        ranked = [divmod(slot, k) for slot in histogram._deletion_candidates(value).tolist()]
        assert ranked == oracle_candidates(histogram, value)

    # (b) the same stream through delete() and through delete_many() ends
    # with the oracle twin's arrays, error and applied count.
    oracle = histogram_from_dict(state)
    expected = run_deletes(lambda value: oracle_delete(oracle, value), values)

    per_value = histogram_from_dict(state)
    assert run_deletes(per_value.delete, values) == expected
    assert array_state(per_value) == array_state(oracle)

    batched = histogram_from_dict(state)
    try:
        batched.delete_many(values)
        outcome = (None, len(values))
    except DeletionError as error:
        outcome = (str(error), error.applied_count)
    assert outcome == expected
    assert array_state(batched) == array_state(oracle)


@given(delete_cases())
@settings(max_examples=80, deadline=None)
def test_spill_policy_matches_the_oracle(case):
    check_against_oracle(*case)


@pytest.mark.slow
@given(delete_cases())
@settings(max_examples=2000, deadline=None)
def test_spill_policy_matches_the_oracle_many_examples(case):
    check_against_oracle(*case)


@pytest.mark.parametrize("histogram_class", [DVOHistogram, DADOHistogram])
def test_batch_overdraw_is_exact_after_a_spill(histogram_class):
    """A slot left just under a whole count by a spill overdraws on its next delete.

    Slot ``[2, 4]`` holds 2.5 and loses one unit to the first delete of 3.0.
    The delete of 1.0 drains slot ``[0, 2]`` (0.5 - 2**-53) and spills
    0.5 + 2**-53 onto ``[2, 4]``, which then holds 1 - 2**-53 with one of the
    batch's deletes done.  The next delete of 3.0 must spill: 2 - 1 > 1 - 2**-53,
    while the float sum 1 - 2**-53 + 1 rounds to 2.0 and would hide it.
    """
    state = histogram_to_dict(histogram_class(3))
    del state["loading"]
    state["buckets"] = [[0.0, 4.0, [0.5 - 2**-53, 2.5]], [4.0, 8.0, [2.0, 2.0]]]
    values = [3.0, 1.0, 3.0, 3.0, 5.0, 3.0]
    oracle = histogram_from_dict(state)
    assert run_deletes(lambda value: oracle_delete(oracle, value), values) == (None, 6)
    assert oracle.bucket_array.sub_counts.min() >= 0.0
    batched = histogram_from_dict(state)
    batched.delete_many(values)
    assert array_state(batched) == array_state(oracle)
