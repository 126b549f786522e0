"""Drift-aware adaptive solve budgets with cross-reaction solution memory.

Under the mobility loop consecutive :meth:`reoptimize` calls solve
near-identical problems: the environment drifts a little, the objective
moves a little, and yet every reaction pays the optimizer's full fixed
iteration budget.  The leg cache made *channel builds* incremental
(PR 5); this module makes the *solve* incremental:

* :class:`SolutionStore` remembers, per ``(task key, panel)``, the last
  converged phase vector and its score together with a structural
  :func:`objective_digest` of the objective it solved.
* At the top of a reaction the orchestrator re-scores the cached phases
  under the *new* objective (one deterministic evaluation) and compares
  against the cached score — the relative **drift**.
* :class:`BudgetController` maps drift to an iteration budget: tiny
  drift earns the floor budget (the cached solution is nearly optimal,
  a short polish suffices), large drift earns the full budget, and the
  band in between interpolates linearly.  The map is a pure function of
  sim-visible state — no wall clock, no host load — so same-seed runs
  stay byte-identical at any channel or evaluation worker count.

The warm-started phases double as the solve's initial incumbent, which
is what makes the floor budget safe: the search starts at last
reaction's optimum instead of the live hardware configuration.

Everything here is inert unless :attr:`SolveBudgetConfig.enabled` is
set; the disabled path is byte-identical to an orchestrator that never
imported this module.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

import numpy as np

from ..core.errors import ServiceError

__all__ = [
    "BudgetController",
    "SolutionEntry",
    "SolutionStore",
    "SolveBudgetConfig",
    "group_key",
    "objective_digest",
]

#: Floor on the denominator of the relative-drift ratio, so a cached
#: score of exactly zero cannot blow the drift up to infinity.
_DRIFT_SCALE_FLOOR = 1e-9

#: Prefix marking a joint-group solution key (one shared phase vector
#: serving several configuration-multiplexed tasks).
_GROUP_PREFIX = "joint:"


@dataclass(frozen=True)
class SolveBudgetConfig:
    """Tuning for drift-aware adaptive solve budgets.

    Attributes:
        enabled: master switch.  Off (the default) keeps the
            orchestrator byte-identical to the fixed-budget control
            plane: no store, no probes, no ``solver.*`` telemetry.
        floor: smallest iteration budget a warm, low-drift solve may
            receive (also the budget floor after ceiling clamping).
        ceiling: largest adaptive budget; ``None`` uses the optimizer's
            own full budget (``max_iterations`` / ``steps``).
        drift_low: relative drift at or below which the floor budget
            applies (the cached solution still scores essentially the
            same under the new objective).
        drift_high: relative drift at or above which the full budget
            applies (the problem changed too much to trust the cache).
        store_size: LRU bound on remembered ``(task, panel)`` solutions.
    """

    enabled: bool = False
    floor: int = 4
    ceiling: Optional[int] = None
    drift_low: float = 0.02
    drift_high: float = 0.5
    store_size: int = 512

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
        if self.store_size < 1:
            raise ServiceError("store_size must be at least 1")


@dataclass
class SolutionEntry:
    """One remembered converged solve."""

    digest: Tuple
    phases: np.ndarray
    loss: float


def group_key(task_ids: Iterable[str]) -> str:
    """The solution-store key for one joint (shared-config) group.

    Joint groups solve a single phase vector for every member task, so
    the cached solution is only commensurable when the *same* set of
    tasks is being co-served; the key is the sorted member list.
    """
    return _GROUP_PREFIX + "+".join(sorted(task_ids))


def _key_task_ids(task_key: str) -> Tuple[str, ...]:
    """The task ids a store key involves (one, or a joint group's set)."""
    if task_key.startswith(_GROUP_PREFIX):
        return tuple(task_key[len(_GROUP_PREFIX):].split("+"))
    return (task_key,)


def objective_digest(objective) -> Tuple:
    """A structural fingerprint of an objective.

    Cached phases are only comparable to a *new* objective when both
    describe the same problem shape: same objective type, same phase
    dimension, same evaluation-point count, and (for joint objectives)
    the same weighted part structure.  The digest deliberately ignores
    the channel coefficients themselves — those drifting is exactly
    what the drift probe measures.
    """
    parts = getattr(objective, "parts", None)
    if parts is not None:
        sub = []
        for part in parts:
            if isinstance(part, tuple):
                inner, weight = part
                sub.append((objective_digest(inner), float(weight)))
            else:
                sub.append(objective_digest(part))
        return (
            type(objective).__name__,
            int(getattr(objective, "dim", -1)),
            tuple(sub),
        )
    form = getattr(objective, "form", None)
    shape = None
    if form is not None:
        shape = (int(form.num_points), int(form.num_elements))
    return (type(objective).__name__, int(getattr(objective, "dim", -1)), shape)


class SolutionStore:
    """LRU of last-converged phases per ``(task key, panel)``.

    Entries carry the objective digest they were solved under; a lookup
    with a different digest is a miss (the problem changed shape, the
    cached phases are not commensurable).
    """

    def __init__(self, size: int = 512):
        if size < 1:
            raise ServiceError("solution store size must be at least 1")
        self.size = size
        self._entries: "OrderedDict[Tuple[str, str], SolutionEntry]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(
        self, task_key: str, panel_id: str, digest: Tuple
    ) -> Optional[SolutionEntry]:
        """The remembered solution, or None on a miss/shape change."""
        key = (task_key, panel_id)
        entry = self._entries.get(key)
        if entry is None or entry.digest != digest:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def store(
        self,
        task_key: str,
        panel_id: str,
        digest: Tuple,
        phases: np.ndarray,
        loss: float,
    ) -> None:
        """Remember a converged solve (most-recently-used position)."""
        key = (task_key, panel_id)
        self._entries[key] = SolutionEntry(
            digest=digest,
            phases=np.asarray(phases, dtype=float).reshape(-1).copy(),
            loss=float(loss),
        )
        self._entries.move_to_end(key)
        while len(self._entries) > self.size:
            self._entries.popitem(last=False)

    def forget_task(self, task_id: str) -> int:
        """Drop every entry involving a task (it completed or expired).

        Joint-group entries mentioning the task go too: the group's
        membership changed, so its cached solution is stale by key
        anyway — this just reclaims the slots.  Returns entries dropped.
        """
        doomed = [
            key
            for key in self._entries
            if task_id in _key_task_ids(key[0])
        ]
        for key in doomed:
            del self._entries[key]
        return len(doomed)


class BudgetController:
    """Deterministic drift → iteration-budget map.

    A pure function of ``(drift, full budget, config)``: no clocks, no
    randomness, no host state — the determinism contract depends on it.
    """

    def __init__(self, config: SolveBudgetConfig):
        self.config = config

    def budget(self, drift: Optional[float], full: int) -> int:
        """The iteration budget for one solve.

        ``drift`` is the relative drift measured against the cached
        solution (``None`` = cold start, no cache to trust → full
        budget).  ``full`` is the optimizer's own fixed budget.
        """
        cfg = self.config
        ceiling = full if cfg.ceiling is None else min(cfg.ceiling, full)
        ceiling = max(ceiling, cfg.floor)
        if drift is None:
            return ceiling
        if drift <= cfg.drift_low:
            return cfg.floor
        if drift >= cfg.drift_high:
            return ceiling
        fraction = (drift - cfg.drift_low) / (cfg.drift_high - cfg.drift_low)
        return int(round(cfg.floor + fraction * (ceiling - cfg.floor)))


def relative_drift(new_score: float, cached_score: float) -> float:
    """Relative drift of a cached solution under a new objective."""
    scale = max(abs(cached_score), _DRIFT_SCALE_FLOOR)
    return abs(new_score - cached_score) / scale
