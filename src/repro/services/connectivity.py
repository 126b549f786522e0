"""Connectivity services: coverage optimization and link enhancement.

These wrap :class:`CoverageObjective` with goal handling (target SNR /
throughput) and provide the evaluation helpers the orchestrator uses to
report achieved metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from ..channel.model import ChannelModel, LinearChannelForm
from ..em.noise import LinkBudget, shannon_required_snr_db
from ..orchestrator.objectives import CoverageGoal, CoverageObjective


def coverage_objective(
    form: LinearChannelForm,
    amplitudes: Optional[np.ndarray] = None,
    budget: Optional[LinkBudget] = None,
    weights: Optional[np.ndarray] = None,
) -> CoverageObjective:
    """The coverage-task loss over a linear channel form."""
    return CoverageObjective(
        form,
        amplitudes=amplitudes,
        goal=CoverageGoal(budget=budget or LinkBudget(), weights=weights),
    )


def link_objective(
    form: LinearChannelForm,
    point_index: int,
    amplitudes: Optional[np.ndarray] = None,
    budget: Optional[LinkBudget] = None,
) -> CoverageObjective:
    """An ``enhance_link()`` loss: all weight on one endpoint."""
    weights = np.zeros(form.num_points)
    weights[point_index] = 1.0
    return coverage_objective(
        form, amplitudes=amplitudes, budget=budget, weights=weights
    )


def snr_map_db(
    model: ChannelModel,
    configs: Mapping[str, np.ndarray],
    budget: LinkBudget,
) -> np.ndarray:
    """Per-point SNR (dB) with transmit MRT, for live configurations."""
    h = model.evaluate(configs)
    return budget.snr_db_many(np.sum(np.abs(h) ** 2, axis=1))


def rss_map_dbm(
    model: ChannelModel,
    configs: Mapping[str, np.ndarray],
    budget: LinkBudget,
) -> np.ndarray:
    """Per-point RSS (dBm) with transmit MRT."""
    h = model.evaluate(configs)
    gains = np.sum(np.abs(h) ** 2, axis=1)
    return np.array([budget.rss_dbm(g) for g in gains])


def required_snr_for_throughput(
    throughput_bps: float, budget: LinkBudget, margin_db: float = 3.0
) -> float:
    """Target SNR (dB) for an application throughput, plus link margin."""
    return shannon_required_snr_db(throughput_bps, budget.bandwidth_hz) + margin_db


@dataclass(frozen=True)
class CoverageReport:
    """Achieved coverage statistics over an evaluation grid."""

    median_snr_db: float
    p10_snr_db: float
    min_snr_db: float
    max_snr_db: float
    fraction_above_target: float

    @classmethod
    def from_snrs(
        cls, snrs_db: Sequence[float], target_snr_db: Optional[float] = None
    ) -> "CoverageReport":
        snrs = np.asarray(snrs_db, dtype=float)
        if snrs.size == 0:
            raise ValueError("empty SNR set")
        target = -np.inf if target_snr_db is None else target_snr_db
        return cls(
            median_snr_db=float(np.median(snrs)),
            p10_snr_db=float(np.percentile(snrs, 10)),
            min_snr_db=float(snrs.min()),
            max_snr_db=float(snrs.max()),
            fraction_above_target=float(np.mean(snrs >= target)),
        )
