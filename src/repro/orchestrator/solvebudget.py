"""Drift-aware adaptive solve budgets.

Under the mobility loop consecutive :meth:`reoptimize` calls solve
near-identical problems: the environment drifts a little, the objective
moves a little, and yet every reaction pays the optimizer's full fixed
iteration budget.  The leg cache made *channel builds* incremental;
adaptive budgets make the *solve* incremental:

* The orchestrator keeps, per ``(unit key, panel)``, the last converged
  phase vector and its score in the unit's solve record.
* At the top of a reaction it re-scores the kept phases under the
  *new* objective (one deterministic evaluation) and compares against
  the kept score — the relative **drift**.
* :meth:`SolveBudgetConfig.budget` maps drift to an iteration budget:
  tiny drift earns the floor budget (the kept solution is nearly
  optimal, a short polish suffices), large drift earns the full budget,
  and the band in between interpolates linearly.  The map is a pure
  function of sim-visible state — no wall clock, no host load — so
  same-seed runs stay byte-identical.

The warm-started phases double as the solve's initial incumbent, which
is what makes the floor budget safe: the search starts at last
reaction's optimum instead of the live hardware configuration.

Everything here is inert unless :attr:`SolveBudgetConfig.enabled` is
set; the disabled path keeps no phases, probes nothing and records no
``solver.*`` telemetry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from ..core.errors import ServiceError

__all__ = ["SolveBudgetConfig", "group_key", "relative_drift"]

#: Floor on the denominator of the relative-drift ratio, so a kept
#: score of exactly zero cannot blow the drift up to infinity.
_DRIFT_SCALE_FLOOR = 1e-9

#: Prefix marking a joint-group unit key (one shared phase vector
#: serving several configuration-multiplexed tasks).
_GROUP_PREFIX = "joint:"


@dataclass(frozen=True)
class SolveBudgetConfig:
    """Tuning for drift-aware adaptive solve budgets.

    Attributes:
        enabled: master switch.  Off (the default) keeps the
            orchestrator byte-identical to the fixed-budget control
            plane: no kept phases, no probes, no ``solver.*`` telemetry.
        floor: smallest iteration budget a warm, low-drift solve may
            receive (also the budget floor after ceiling clamping).
        ceiling: largest adaptive budget; ``None`` uses the optimizer's
            own full budget (``max_iterations`` / ``steps``).
        drift_low: relative drift at or below which the floor budget
            applies (the kept solution still scores essentially the
            same under the new objective).
        drift_high: relative drift at or above which the full budget
            applies (the problem changed too much to trust the kept
            solution).
    """

    enabled: bool = False
    floor: int = 4
    ceiling: Optional[int] = None
    drift_low: float = 0.02
    drift_high: float = 0.5

    def __post_init__(self) -> None:
        if self.floor < 1:
            raise ServiceError("floor must be at least 1")
        if self.ceiling is not None and self.ceiling < self.floor:
            raise ServiceError("ceiling must be >= floor")
        if not 0.0 <= self.drift_low < self.drift_high:
            raise ServiceError(
                "need 0 <= drift_low < drift_high, got "
                f"[{self.drift_low}, {self.drift_high}]"
            )

    def budget(self, drift: Optional[float], full: int) -> int:
        """The iteration budget for one solve.

        A pure function of ``(drift, full)`` and the config: no clocks,
        no randomness, no host state — the determinism contract depends
        on it.  ``drift`` is the relative drift measured against the
        kept solution (``None`` = cold start, nothing to trust → full
        budget).  ``full`` is the optimizer's own fixed budget.
        """
        ceiling = full if self.ceiling is None else min(self.ceiling, full)
        ceiling = max(ceiling, self.floor)
        if drift is None:
            return ceiling
        if drift <= self.drift_low:
            return self.floor
        if drift >= self.drift_high:
            return ceiling
        fraction = (drift - self.drift_low) / (self.drift_high - self.drift_low)
        return int(round(self.floor + fraction * (ceiling - self.floor)))


def group_key(task_ids: Iterable[str]) -> str:
    """The unit key of one joint (shared-config) group.

    Joint groups solve a single phase vector for every member task, so
    a kept solution is only commensurable when the *same* set of tasks
    is being co-served; the key is the sorted member list.
    """
    return _GROUP_PREFIX + "+".join(sorted(task_ids))


def relative_drift(new_score: float, cached_score: float) -> float:
    """Relative drift of a kept solution under a new objective."""
    scale = max(abs(cached_score), _DRIFT_SCALE_FLOOR)
    return abs(new_score - cached_score) / scale
