"""The benchmark's own arithmetic: percentiles, shares, intervals.

Kept free of NumPy and of the program under test so that the
self-tests in ``selftest.py`` can pin every formula exactly.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple

#: A tail percentile is reported only when at least this many samples
#: of one run lie beyond it (a p90 therefore needs 100 samples).
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a run with too few samples beyond it."""


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile (``0 < q <= 100``).

    Returns an observed sample, never an interpolation, so a
    deterministic sample list gives a deterministic value, and the
    value is unchanged when the list is repeated whole (episodes that
    replay the same seed).
    """
    if not values:
        raise TooFewSamples("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile {q} outside (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return float(ordered[max(rank, 1) - 1])


def beyond(count: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q``-th percentile."""
    return count - max(math.ceil(q / 100.0 * count), 1)


def tail_percentile(
    values: Sequence[float], q: float, min_beyond: int = MIN_BEYOND
) -> Tuple[float, int]:
    """``(percentile, sample count)``, refusing an under-sampled tail.

    Raises :class:`TooFewSamples` unless at least ``min_beyond``
    samples lie beyond the percentile.
    """
    n = len(values)
    if beyond(n, q) < min_beyond:
        raise TooFewSamples(
            f"p{q:g} of {n} samples has {max(beyond(n, q), 0)} beyond it; "
            f"need {min_beyond}"
        )
    return nearest_rank(values, q), n


def median(values: Sequence[float]) -> float:
    """The usual median (mean of the two middle values for even n)."""
    if not values:
        raise TooFewSamples("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def failed_share(
    rejected: int,
    admission_failures: int,
    reoptimize_failures: int,
    requests_offered: int,
    triggers: int,
) -> float:
    """Failed work over the requests and triggers attempted.

    Rejected requests, failed admissions and failed reoptimizations
    count as failures; the base is every request offered to the queue
    (accepted or rejected) plus every reoptimization trigger noted.
    """
    attempted = requests_offered + triggers
    if attempted <= 0:
        raise ValueError("failed_share of a run that attempted nothing")
    failed = rejected + admission_failures + reoptimize_failures
    if failed > attempted:
        raise ValueError(f"{failed} failures out of {attempted} attempts")
    return failed / attempted


def ratio(part: float, whole: float) -> float:
    """``part / whole``, or 0 when there is no whole (nothing happened)."""
    return part / whole if whole else 0.0


def merge(intervals: Iterable[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Union of closed intervals as a sorted, disjoint list."""
    out: List[Tuple[float, float]] = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if out and start <= out[-1][1]:
            if end > out[-1][1]:
                out[-1] = (out[-1][0], end)
        else:
            out.append((start, end))
    return out


def covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    return sum(end - start for start, end in merge(intervals))


def self_time(
    span: Tuple[float, float], children: Iterable[Tuple[float, float]]
) -> float:
    """A span's duration minus the part of it its children cover.

    Children may nest inside one another or overlap (work handed to
    other threads); each instant of the span is subtracted at most
    once, and child time outside the span is ignored.
    """
    start, end = span
    clipped = [(max(s, start), min(e, end)) for s, e in children]
    return (end - start) - covered(clipped)
