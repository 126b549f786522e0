"""Empirical CDFs for the paper's Figure-5-style evaluations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


def median(values, axis: Optional[int] = None):
    """``np.median`` of finite, non-empty input, bit for bit, at less cost.

    The middle element of the sorted values, or ``(a + b) / 2`` of the
    two middle ones, which is the two-element mean ``np.median`` takes.
    ``axis=0`` gives the median of each column of a 2-D array.  Unlike
    ``np.median`` it does not check for NaN.
    """
    a = np.asarray(values, dtype=float)
    if axis is None:
        a = a.reshape(-1)
    elif axis != 0:
        raise ValueError(f"median supports axis None or 0, got {axis}")
    n = len(a)
    if n == 0:
        raise ValueError("median of an empty array")
    half = n // 2
    if n % 2:
        return np.partition(a, half, axis=0)[half]
    part = np.partition(a, (half - 1, half), axis=0)
    return (part[half - 1] + part[half]) / 2.0


@dataclass(frozen=True)
class EmpiricalCDF:
    """An empirical distribution over scalar samples."""

    samples: np.ndarray

    def __post_init__(self) -> None:
        arr = np.sort(np.asarray(self.samples, dtype=float).reshape(-1))
        if arr.size == 0:
            raise ValueError("CDF needs at least one sample")
        object.__setattr__(self, "samples", arr)

    @property
    def count(self) -> int:
        """Number of samples."""
        return self.samples.size

    def at(self, value: float) -> float:
        """P(X <= value)."""
        return float(np.searchsorted(self.samples, value, side="right")) / (
            self.count
        )

    def percentile(self, q: float) -> float:
        """The q-th percentile (q in [0, 100])."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must lie in [0, 100]")
        return float(np.percentile(self.samples, q))

    @property
    def median(self) -> float:
        """50th percentile."""
        return self.percentile(50.0)

    def curve(self, points: int = 50) -> Tuple[np.ndarray, np.ndarray]:
        """(x, F(x)) arrays for plotting/tabulating the CDF."""
        xs = np.linspace(self.samples[0], self.samples[-1], points)
        ys = np.array([self.at(x) for x in xs])
        return xs, ys


def cdf_table(
    cdfs: Dict[str, EmpiricalCDF],
    xs: Sequence[float],
    value_format: str = "{:.2f}",
) -> List[List[str]]:
    """Rows of F(x) per series at shared x values (for text rendering)."""
    rows = []
    for x in xs:
        row = [value_format.format(x)]
        row.extend(f"{cdf.at(x):.2f}" for cdf in cdfs.values())
        rows.append(row)
    return rows


def summarize(
    cdfs: Dict[str, EmpiricalCDF], percentiles: Sequence[float] = (10, 50, 90)
) -> Dict[str, Dict[str, float]]:
    """Percentile summary per series."""
    return {
        name: {f"p{int(q)}": cdf.percentile(q) for q in percentiles}
        for name, cdf in cdfs.items()
    }
