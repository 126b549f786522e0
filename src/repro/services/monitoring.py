"""Monitoring / diagnosis service.

The §5 argument for an OS-like runtime made executable: a monitor keeps
per-point SNR time series, detects sudden degradations (blockage events
such as a person walking into the beam), and reports environment health
— the trigger for the runtime daemon's re-optimization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..analysis.cdf import median
from ..core.errors import ServiceError


@dataclass(frozen=True)
class Anomaly:
    """One detected degradation event."""

    time: float
    point_index: int
    drop_db: float
    snr_db: float


@dataclass
class MonitorSnapshot:
    """One observation of the coverage state."""

    time: float
    snrs_db: np.ndarray


class ChannelMonitor:
    """Sliding-window SNR monitor with drop detection.

    Args:
        drop_threshold_db: degradation vs the baseline that counts as an
            anomaly.
        baseline_window: snapshots used for the rolling baseline.
    """

    def __init__(
        self, drop_threshold_db: float = 10.0, baseline_window: int = 5
    ):
        if drop_threshold_db <= 0:
            raise ServiceError("drop threshold must be positive")
        if baseline_window < 1:
            raise ServiceError("baseline window must be >= 1")
        self.drop_threshold_db = drop_threshold_db
        self.baseline_window = baseline_window
        self._history: List[MonitorSnapshot] = []
        self._anomalies: List[Anomaly] = []

    @property
    def history(self) -> List[MonitorSnapshot]:
        """All recorded snapshots."""
        return list(self._history)

    @property
    def anomalies(self) -> List[Anomaly]:
        """All detected anomalies."""
        return list(self._anomalies)

    def observe(self, time: float, snrs_db: Sequence[float]) -> List[Anomaly]:
        """Record a snapshot; returns anomalies it triggered."""
        snrs = np.asarray(snrs_db, dtype=float)
        if self._history and snrs.shape != self._history[0].snrs_db.shape:
            raise ServiceError("snapshot size changed mid-monitoring")
        new: List[Anomaly] = []
        baseline = self.baseline()
        if baseline is not None:
            drops = baseline - snrs
            for idx in np.flatnonzero(drops >= self.drop_threshold_db):
                anomaly = Anomaly(
                    time=time,
                    point_index=int(idx),
                    drop_db=float(drops[idx]),
                    snr_db=float(snrs[idx]),
                )
                new.append(anomaly)
        self._history.append(MonitorSnapshot(time=time, snrs_db=snrs))
        self._anomalies.extend(new)
        return new

    def baseline(self) -> Optional[np.ndarray]:
        """Current rolling-median baseline, or None with no history."""
        if not self._history:
            return None
        window = self._history[-self.baseline_window :]
        return median(np.stack([s.snrs_db for s in window]), axis=0)

    def health_report(self, floor_snr_db: float = 10.0) -> Dict[str, float]:
        """Summary statistics for diagnosis dashboards."""
        if not self._history:
            raise ServiceError("no observations recorded")
        all_snrs = np.stack([s.snrs_db for s in self._history])
        return {
            "observations": float(len(self._history)),
            "mean_snr_db": float(all_snrs.mean()),
            "worst_snr_db": float(all_snrs.min()),
            "anomaly_count": float(len(self._anomalies)),
            "healthy_fraction": float(np.mean(all_snrs >= floor_snr_db)),
        }
