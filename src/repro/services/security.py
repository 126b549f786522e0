"""Security service: protect a link against an eavesdropper.

Protego-style physical-layer protection: the surface maximizes capacity
at the legitimate endpoint while *nulling* the signal toward a known or
suspected eavesdropper location.  The loss is a weighted combination of
the legitimate coverage loss and the (negated) eavesdropper coverage
loss; the achieved metric is the secrecy margin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from ..channel.model import ChannelModel, LinearChannelForm
from ..core.errors import ServiceError
from ..em.noise import LinkBudget
from ..orchestrator.objectives import (
    CoverageGoal,
    CoverageObjective,
    JointObjective,
)


def security_objective(
    form: LinearChannelForm,
    legit_indices: Sequence[int],
    eavesdropper_indices: Sequence[int],
    amplitudes: Optional[np.ndarray] = None,
    budget: Optional[LinkBudget] = None,
    nulling_weight: float = 1.0,
) -> JointObjective:
    """Loss = legit coverage loss − ``nulling_weight`` × eve coverage loss.

    Minimizing it maximizes legitimate capacity while minimizing the
    eavesdropper's.  ``legit_indices`` and ``eavesdropper_indices``
    select rows of the shared linear form (the model must be built with
    both endpoints among its points).
    """
    budget = budget or LinkBudget()
    k = form.num_points
    legit = np.zeros(k)
    legit[np.asarray(legit_indices, dtype=int)] = 1.0
    eve = np.zeros(k)
    eve[np.asarray(eavesdropper_indices, dtype=int)] = 1.0
    if np.any(legit * eve):
        raise ServiceError("a point cannot be both legitimate and eavesdropper")
    if nulling_weight <= 0:
        raise ServiceError("nulling_weight must be positive")
    legit_obj = CoverageObjective(
        form, amplitudes=amplitudes, goal=CoverageGoal(budget, weights=legit)
    )
    eve_obj = CoverageObjective(
        form, amplitudes=amplitudes, goal=CoverageGoal(budget, weights=eve)
    )
    return JointObjective([(legit_obj, 1.0), (eve_obj, -nulling_weight)])


@dataclass(frozen=True)
class SecrecyReport:
    """Achieved secrecy statistics."""

    legit_snr_db: float
    eavesdropper_snr_db: float

    @property
    def secrecy_margin_db(self) -> float:
        """SNR advantage of the legitimate endpoint."""
        return self.legit_snr_db - self.eavesdropper_snr_db


def secrecy_report(
    model: ChannelModel,
    configs: Mapping[str, np.ndarray],
    legit_indices: Sequence[int],
    eavesdropper_indices: Sequence[int],
    budget: LinkBudget,
) -> SecrecyReport:
    """Evaluate the secrecy margin for live configurations."""
    h = model.evaluate(configs)
    gains = np.sum(np.abs(h) ** 2, axis=1)
    snrs = budget.snr_db_many(gains)
    return SecrecyReport(
        legit_snr_db=float(np.mean(snrs[np.asarray(legit_indices, dtype=int)])),
        eavesdropper_snr_db=float(
            np.mean(snrs[np.asarray(eavesdropper_indices, dtype=int)])
        ),
    )
