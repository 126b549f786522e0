"""Deployment goals for the design/placement automation (§5).

"In clean slate scenarios, we also need to consider the design and
deployment stages … compiling upper-layer goals into hardware designs
and deployment configurations."  A :class:`DeploymentGoal` is that
upper-layer goal: what service level is needed, where, and under which
cost/size constraints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..core.errors import ServiceError


@dataclass(frozen=True)
class DeploymentGoal:
    """What a clean-slate deployment must achieve.

    Attributes:
        room_id: the room to serve.
        target_median_snr_db: coverage target over the room grid.
        frequency_hz: the network's carrier.
        max_cost_usd: hardware budget (``inf`` = unconstrained).
        max_area_m2: largest panel area that fits the walls.
        require_reconfigurable: demand dynamic steering (e.g. for
            mobility); ``None`` = either.
    """

    room_id: str
    target_median_snr_db: float
    frequency_hz: float
    max_cost_usd: float = math.inf
    max_area_m2: float = 1.0
    require_reconfigurable: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0:
            raise ServiceError("carrier must be positive")
        if self.max_cost_usd <= 0:
            raise ServiceError("cost budget must be positive")
        if self.max_area_m2 <= 0:
            raise ServiceError("area budget must be positive")
