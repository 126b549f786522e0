"""Adaptive reoptimization coalescing: window sized by measured pressure.

The fixed ``coalesce_window_s`` the pipeline shipped with is a blunt
trade: on a burst it collapses N triggers into one joint solve (the
3.6x headline), but at sparse steady-state arrival rates every lone
request still pays the whole window as pure added latency — the
rate-sweep regression (speedups 0.95/0.93 at 2–5 Hz) in
``BENCH_pipeline.json`` was exactly that tax.

:class:`AdaptiveCoalescer` replaces the constant with a classic
batch-while-busy controller, driven only by sim-clock observations so
it stays deterministic:

* **Pressure** is the EWMA of inter-trigger gaps, and — crucially —
  while a window is open the *silence since the last trigger* counts
  against it: ``pressure_gap = max(gap_ewma, now - last_trigger_at)``.
  A window that is waiting for companions that never come collapses on
  its own.
* **Worth waiting?**  Coalescing pays when triggers arrive faster than
  the control plane can solve, i.e. when ``pressure_gap`` is below the
  (EWMA-smoothed) solve cost.  Then the window opens to about one
  solve's worth of time — the server would have been busy anyway, so
  the wait is free — clamped to ``[min_window_s, max_window_s]``.
* **Idle → zero.**  When the expected gap exceeds the solve cost the
  window is ``min_window_s`` (0 by default): a lone steady-state
  request is solved on the tick it is admitted, paying no window at
  all (the "incremental admission" half of the rate-sweep fix).

Solve costs are observed from *charged* sim time only (the pipeline
feeds measured wall time when ``charge_compute`` is on, and the load
harness feeds its deterministic modeled cost); without charging the
cost estimate stays at the configured prior, keeping byte-identical
same-seed runs byte-identical.

:class:`CoalescingCore` wraps the controller in the bookkeeping both
solve steps share — the request pipeline's real solve and the load
harness's modeled one: pending triggers, the inclusive window close, a
busy solver and the trigger/solve/window counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.errors import ServiceError

__all__ = [
    "AdaptiveCoalesceConfig",
    "AdaptiveCoalescer",
    "CoalescingCore",
    "WINDOW_CLOSE_EPS_S",
]

#: Tolerance for the window-close comparison.  Tick times accumulate
#: floating-point error (0.1 + 0.1 + ... drifts in the last ulps), and
#: a strict ``now - first_at >= window`` then closed windows one tick
#: late whenever the difference landed a few ulps short — visible as an
#: inflated coalesce_ratio at steady arrival rates.  Within this
#: epsilon the boundary counts as reached (inclusive close).
WINDOW_CLOSE_EPS_S = 1e-9


@dataclass(frozen=True)
class AdaptiveCoalesceConfig:
    """Tuning for one :class:`AdaptiveCoalescer`.

    Equal ``min_window_s`` and ``max_window_s`` fix the window: the
    request pipeline and the load harness spell a constant window ``W``
    as ``AdaptiveCoalesceConfig(min_window_s=W, max_window_s=W)``.

    Attributes:
        min_window_s: window when idle (0 = solve on the admitting
            tick).
        max_window_s: hard cap on how long triggers may coalesce.
        alpha: EWMA weight of the newest inter-trigger gap (and of the
            newest solve cost); higher reacts faster.
        busy_factor: the window opens when the pressure gap is at most
            ``busy_factor × solve-cost estimate``.
        initial_cost_s: solve-cost prior used until real charged costs
            are observed (and forever when compute is not charged to
            the sim clock — determinism over adaptivity).
    """

    min_window_s: float = 0.0
    max_window_s: float = 0.5
    alpha: float = 0.4
    busy_factor: float = 1.25
    initial_cost_s: float = 0.05

    def __post_init__(self) -> None:
        if self.min_window_s < 0:
            raise ServiceError("min_window_s must be non-negative")
        if self.max_window_s < self.min_window_s:
            raise ServiceError("max_window_s must be >= min_window_s")
        if not 0.0 < self.alpha <= 1.0:
            raise ServiceError("alpha must be in (0, 1]")
        if self.busy_factor <= 0:
            raise ServiceError("busy_factor must be positive")
        if self.initial_cost_s < 0:
            raise ServiceError("initial_cost_s must be non-negative")


class AdaptiveCoalescer:
    """Deterministic, sim-clock-driven coalescing-window controller."""

    __slots__ = ("config", "_gap_hat", "_last_trigger_at", "_cost_hat")

    def __init__(self, config: Optional[AdaptiveCoalesceConfig] = None):
        self.config = config or AdaptiveCoalesceConfig()
        self._gap_hat: Optional[float] = None
        self._last_trigger_at: Optional[float] = None
        self._cost_hat = self.config.initial_cost_s

    # -- observations ----------------------------------------------------

    def observe_trigger(self, at: float) -> None:
        """Fold one reoptimization trigger (sim time) into the pressure."""
        if self._last_trigger_at is not None:
            gap = max(0.0, at - self._last_trigger_at)
            if self._gap_hat is None:
                self._gap_hat = gap
            else:
                alpha = self.config.alpha
                self._gap_hat = alpha * gap + (1.0 - alpha) * self._gap_hat
        self._last_trigger_at = at

    def observe_solve_cost(self, cost_s: float) -> None:
        """Fold one charged solve cost (sim seconds) into the estimate."""
        if cost_s < 0:
            return
        alpha = self.config.alpha
        self._cost_hat = alpha * cost_s + (1.0 - alpha) * self._cost_hat

    # -- the window ------------------------------------------------------

    def pressure_gap_s(self, now: float) -> float:
        """Effective inter-trigger gap: EWMA, aged by current silence."""
        if self._last_trigger_at is None or self._gap_hat is None:
            return float("inf")
        return max(self._gap_hat, now - self._last_trigger_at)

    def window_s(self, now: float) -> float:
        """The coalescing window to apply at sim time ``now``.

        Monotonically non-increasing between triggers: with no new
        trigger the pressure gap only grows, so an open window never
        extends itself — it either holds or collapses to the minimum.
        """
        cfg = self.config
        gap = self.pressure_gap_s(now)
        if gap > cfg.busy_factor * self._cost_hat:
            return cfg.min_window_s
        return min(cfg.max_window_s, max(cfg.min_window_s, self._cost_hat))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        gap = "∅" if self._gap_hat is None else f"{self._gap_hat:.4f}s"
        return (
            f"AdaptiveCoalescer(gap_hat={gap}, "
            f"cost_hat={self._cost_hat:.4f}s)"
        )


class CoalescingCore:
    """Pending triggers → one coalesced solve, on the sim clock.

    Callers note triggers, take them with :meth:`close` once a solve is
    due, run their own solve step and report it with :meth:`solved`.
    A solve is due when the window of the earliest pending trigger has
    closed (inclusively, within :data:`WINDOW_CLOSE_EPS_S`) and the
    solver is free.  :meth:`close` consumes the triggers either way: a
    caller with no admitted work left simply drops them.
    """

    def __init__(self, config: Optional[AdaptiveCoalesceConfig] = None):
        self.coalescer = AdaptiveCoalescer(config)
        #: ``(sim_time, kind)`` triggers waiting for the next solve.
        self.pending: List[Tuple[float, str]] = []
        #: End of the last *charged* solve; uncharged solves take no
        #: sim time.
        self.busy_until = 0.0
        self.triggers = 0
        self.reoptimizations = 0
        #: Sum / max of the window at each solve — under adaptive
        #: coalescing these show what the controller chose.
        self.window_sum_s = 0.0
        self.window_max_s = 0.0
        #: Latest sim time a solve served its requests at.
        self.last_served_at = 0.0

    def note_trigger(self, at: float, kind: str = "") -> None:
        self.pending.append((at, kind))
        self.triggers += 1
        self.coalescer.observe_trigger(at)

    def window_s(self, now: float) -> float:
        return self.coalescer.window_s(now)

    def close(
        self, now: float
    ) -> Optional[Tuple[List[Tuple[float, str]], float]]:
        """``(triggers, window)`` when a solve is due at ``now``, else None."""
        if not self.pending or now < self.busy_until:
            return None
        window = self.coalescer.window_s(now)
        if now - self.pending[0][0] < window - WINDOW_CLOSE_EPS_S:
            return None
        triggers, self.pending = self.pending, []
        return triggers, window

    def solved(
        self,
        now: float,
        window: float,
        served_at: float,
        cost_s: Optional[float] = None,
    ) -> None:
        """Count one solve started at ``now``.

        ``cost_s`` is the *charged* sim cost: it holds the solver busy
        and feeds the controller's cost estimate.  ``None`` (compute not
        charged) leaves both alone — wall time would make window sizing
        nondeterministic.
        """
        self.reoptimizations += 1
        self.window_sum_s += window
        self.window_max_s = max(self.window_max_s, window)
        self.last_served_at = max(self.last_served_at, served_at)
        if cost_s is not None:
            self.busy_until = now + cost_s
            self.coalescer.observe_solve_cost(cost_s)

    def next_deadline(
        self, now: float, queued: bool = False
    ) -> Optional[float]:
        """Earliest sim time a solve step can make progress.

        With ``queued`` work, the moment the solver frees (admission is
        overdue); otherwise the first pending trigger's window close,
        held until the solver frees; ``None`` when fully idle.
        """
        if queued:
            return max(now, self.busy_until)
        if not self.pending:
            return None
        first_at = self.pending[0][0]
        return max(now, self.busy_until, first_at + self.window_s(now))

    @property
    def coalesce_ratio(self) -> float:
        """Triggers absorbed per solve (1.0 = no coalescing)."""
        if not self.reoptimizations:
            return 0.0
        return self.triggers / self.reoptimizations

    @property
    def mean_window_s(self) -> float:
        if not self.reoptimizations:
            return 0.0
        return self.window_sum_s / self.reoptimizations

    def summary(self) -> Dict[str, float]:
        return {
            "triggers": self.triggers,
            "reoptimizations": self.reoptimizations,
            "coalesce_ratio": round(self.coalesce_ratio, 3),
            "mean_window_s": round(self.mean_window_s, 6),
            "max_window_s": round(self.window_max_s, 6),
        }
