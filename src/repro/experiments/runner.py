"""Low-level experiment helpers: stream replay, KS measurement, seed averaging."""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

from ..core.base import DynamicHistogram
from ..metrics.distribution import DataDistribution
from ..metrics.ks import ks_statistic
from ..workloads.streams import UpdateStream

__all__ = [
    "build_truth",
    "replay",
    "final_ks",
    "checkpointed_ks",
    "average_over_seeds",
]


def build_truth(stream: UpdateStream) -> DataDistribution:
    """Exact distribution of the data that remains live after the full stream."""
    return DataDistribution(stream.live_values())


def replay(
    histogram: DynamicHistogram,
    stream: Iterable,
    *,
    truth: DataDistribution | None = None,
) -> None:
    """Apply every operation of a stream to a histogram (and the ground truth)."""
    for op in stream:
        if op.is_insert:
            histogram.insert(op.value)
            if truth is not None:
                truth.add(op.value)
        else:
            histogram.delete(op.value)
            if truth is not None:
                truth.remove(op.value)


def final_ks(histogram: DynamicHistogram, stream: UpdateStream) -> float:
    """Replay a stream and return the KS statistic against the live data."""
    truth = DataDistribution()
    replay(histogram, stream, truth=truth)
    return ks_statistic(truth, histogram)


def checkpointed_ks(
    histogram: DynamicHistogram,
    stream: UpdateStream,
    fractions: Sequence[float],
) -> list[tuple[float, float]]:
    """KS statistic measured after each requested fraction of the stream.

    Returns ``(fraction, ks)`` pairs; fractions outside (0, 1] are rejected.
    This reproduces the "precision degradation as the data size increases"
    experiments of Sections 7.2.1 and 7.3.1.
    """
    for fraction in fractions:
        if not 0 < fraction <= 1:
            raise ValueError(f"fractions must lie in (0, 1], got {fraction}")
    ordered = sorted(fractions)
    operations = stream.operations
    total = len(operations)
    truth = DataDistribution()

    results: list[tuple[float, float]] = []
    position = 0
    for fraction in ordered:
        target = int(round(fraction * total))
        while position < target:
            op = operations[position]
            if op.is_insert:
                histogram.insert(op.value)
                truth.add(op.value)
            else:
                histogram.delete(op.value)
                truth.remove(op.value)
            position += 1
        results.append((fraction, ks_statistic(truth, histogram)))
    return results


def average_over_seeds(measure: Callable[[int], float], seeds: Sequence[int]) -> float:
    """Average a seeded measurement over several seeds."""
    if not seeds:
        raise ValueError("seeds must be a non-empty sequence")
    return sum(measure(seed) for seed in seeds) / len(seeds)
