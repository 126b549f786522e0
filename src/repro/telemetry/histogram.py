"""Fixed-bucket streaming histograms for load-scale percentile tracking.

The load harness replays 10⁵–10⁶ requests; retaining a per-request
latency list (the :class:`~repro.pipeline.PipelineStats` approach) would
cost memory linear in the trace and an O(n log n) sort per percentile
query.  A :class:`StreamingHistogram` keeps a fixed grid of counts
instead: ``observe()`` is O(1), memory is constant, and any percentile
is answered by one cumulative walk with a guaranteed error of at most
one bucket width.

Everything is deterministic — no sampling, no decay — so two identical
simulated runs produce byte-identical histogram summaries, which is
what lets the sim-only JSONL determinism gates cover load runs too.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

__all__ = ["StreamingHistogram"]


class StreamingHistogram:
    """Streaming values → fixed-width buckets with percentile queries.

    Args:
        bucket_width: width of each bucket (e.g. seconds of latency).
        buckets: number of regular buckets; values at or beyond
            ``bucket_width * buckets`` land in one overflow bucket.
        lowest: left edge of the first bucket (0.0 for latencies).

    A percentile query returns the *upper edge* of the bucket holding
    the requested rank, so the reported value is an upper bound on the
    true percentile and never off by more than one ``bucket_width``
    (overflowed values are reported as the overflow edge).
    """

    __slots__ = (
        "bucket_width",
        "buckets",
        "lowest",
        "_counts",
        "count",
        "total",
        "min",
        "max",
    )

    def __init__(
        self,
        bucket_width: float = 0.001,
        buckets: int = 4096,
        lowest: float = 0.0,
    ):
        if bucket_width <= 0:
            raise ValueError("bucket_width must be positive")
        if buckets < 1:
            raise ValueError("need at least one bucket")
        self.bucket_width = float(bucket_width)
        self.buckets = int(buckets)
        self.lowest = float(lowest)
        # +1 overflow bucket at the end.
        self._counts = np.zeros(self.buckets + 1, dtype=np.int64)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    # -- recording -------------------------------------------------------

    def _index(self, value: float) -> int:
        idx = int((value - self.lowest) / self.bucket_width)
        if idx < 0:
            return 0
        if idx >= self.buckets:
            return self.buckets  # overflow
        return idx

    def observe(self, value: float) -> None:
        """Fold one value in (O(1))."""
        value = float(value)
        self._counts[self._index(value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    # -- queries ---------------------------------------------------------

    @property
    def mean(self) -> float:
        """Exact mean of the observed values (sum is tracked exactly)."""
        return self.total / self.count if self.count else 0.0

    @property
    def overflow(self) -> int:
        """Values that landed beyond the regular grid."""
        return int(self._counts[-1])

    def percentile(self, q: float) -> float:
        """Upper bound of the q-th percentile (within one bucket width).

        ``q`` is in [0, 100].  Returns 0.0 when nothing was observed.
        """
        if self.count == 0:
            return 0.0
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        rank = int(np.ceil(q / 100.0 * self.count))
        rank = max(rank, 1)
        cumulative = 0
        for idx in range(self.buckets + 1):
            cumulative += int(self._counts[idx])
            if cumulative >= rank:
                # Upper edge of this bucket (overflow reports the edge
                # of the grid — the true value is at least that).
                return self.lowest + self.bucket_width * min(
                    idx + 1, self.buckets
                )
        return self.lowest + self.bucket_width * self.buckets

    def as_dict(self, prefix: str = "") -> Dict[str, float]:
        """Flat JSON-friendly summary (deterministic per run)."""
        if self.count == 0:
            return {f"{prefix}count": 0}
        return {
            f"{prefix}count": self.count,
            f"{prefix}mean": round(self.mean, 9),
            f"{prefix}min": round(self.min, 9),
            f"{prefix}max": round(self.max, 9),
            f"{prefix}p50": round(self.percentile(50.0), 9),
            f"{prefix}p99": round(self.percentile(99.0), 9),
            f"{prefix}p999": round(self.percentile(99.9), 9),
            f"{prefix}overflow": self.overflow,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StreamingHistogram({self.count} values, "
            f"{self.buckets}x{self.bucket_width:g})"
        )
