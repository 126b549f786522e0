"""The SurfOS runtime daemon: the §5 "OS versus libraries" argument.

A library configures surfaces once at "compile time"; a runtime watches
the environment and reconfigures.  The daemon subscribes to dynamics
events, samples coverage through the monitor, and re-optimizes the
active tasks when degradation crosses a threshold — recording reaction
latency (detection → configurations live) as ``daemon.reaction``
telemetry events the runtime benchmarks read their timings from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..channel import live_configs
from ..core.errors import ServiceError
from ..services.connectivity import snr_map_db
from ..services.monitoring import ChannelMonitor
from ..telemetry import Telemetry
from .clock import SimClock
from .dynamics import EnvironmentDynamics
from .events import (
    ChannelDegraded,
    EndpointMoved,
    Event,
    EventBus,
    HumanMoved,
    SurfaceDegraded,
)


@dataclass
class ReactionRecord:
    """One detection→reconfiguration cycle."""

    detected_at: float
    completed_at: float
    trigger: str
    median_snr_before_db: float
    median_snr_after_db: float
    #: Channel legs re-traced while reacting (the rest came from the
    #: simulator's incremental leg cache); -1 when no simulator stats
    #: were available.
    legs_retraced: int = -1
    #: Adaptive solve-budget accounting for this reaction, from the
    #: orchestrator's :class:`ReoptimizationResult` (all zero when
    #: adaptive budgets are disabled).
    solver_budgeted_iterations: int = 0
    solver_used_iterations: int = 0
    solver_warm_hits: int = 0
    solver_early_stops: int = 0
    #: Wall-clock seconds spent in the optimize phase (the ``wall_``
    #: prefix keeps it out of sim-only telemetry exports).
    wall_solve_s: float = 0.0

    @property
    def reaction_latency_s(self) -> float:
        """Detection to configurations-live latency."""
        return self.completed_at - self.detected_at


class SurfOSDaemon:
    """Monitors the environment and keeps active tasks served."""

    def __init__(
        self,
        orchestrator,
        dynamics: Optional[EnvironmentDynamics] = None,
        monitor: Optional[ChannelMonitor] = None,
        clock: Optional[SimClock] = None,
        degradation_threshold_db: float = 8.0,
        observe_room: Optional[str] = None,
        pipeline=None,
    ):
        self.orchestrator = orchestrator
        self.telemetry = getattr(orchestrator, "telemetry", None) or Telemetry()
        self.clock = clock or SimClock()
        #: Optional request pipeline; when set, triggers are coalesced
        #: through it instead of reoptimizing immediately.
        self.pipeline = pipeline
        self.bus = dynamics.bus if dynamics else EventBus()
        self.dynamics = dynamics
        self.monitor = monitor or ChannelMonitor(
            drop_threshold_db=degradation_threshold_db
        )
        self.reactions: List[ReactionRecord] = []
        self.reoptimize_failures = 0
        self._observe_room = observe_room
        self._observe_points: Optional[np.ndarray] = None
        self._dirty = False
        self._mobility_dirty = False
        self._fault_dirty = False
        self.bus.subscribe(HumanMoved, self._on_motion)
        self.bus.subscribe(EndpointMoved, self._on_endpoint_moved)
        self.bus.subscribe(SurfaceDegraded, self._on_surface_degraded)
        # Hardware health changes (quarantine, panel death, element
        # loss) surface as bus events so the daemon reacts to broken
        # hardware exactly like it reacts to motion.
        hardware = getattr(orchestrator, "hardware", None)
        if hardware is not None and getattr(hardware, "on_degraded", 1) is None:
            hardware.on_degraded = self._publish_degraded

    # ------------------------------------------------------------------

    def _points(self) -> np.ndarray:
        if self._observe_points is None:
            room = self._observe_room
            if room is None:
                contexts = self.orchestrator.active_contexts()
                if not contexts:
                    raise ServiceError("daemon has nothing to observe")
                self._observe_points = np.concatenate(
                    [c.points for c in contexts], axis=0
                )
            else:
                self._observe_points = self.orchestrator._room_points(room)
        return self._observe_points

    def _on_motion(self, event: Event) -> None:
        self._dirty = True

    def _on_endpoint_moved(self, event: EndpointMoved) -> None:
        """A client moved: re-point its tasks and force reoptimization."""
        affected = self.orchestrator.refresh_client_tasks(event.client_id)
        if affected:
            self._mobility_dirty = True

    def _publish_degraded(self, surface_id: str, reason: str) -> None:
        """Hardware-manager hook → :class:`SurfaceDegraded` bus event."""
        self.bus.publish(
            SurfaceDegraded(
                time=self.clock.now, surface_id=surface_id, reason=reason
            )
        )

    def _on_surface_degraded(self, event: SurfaceDegraded) -> None:
        self._fault_dirty = True

    def observe(self) -> np.ndarray:
        """Sample current coverage and feed the monitor."""
        with self.telemetry.span("daemon-observe"):
            panels = self.orchestrator.hardware.panels()
            model = self.orchestrator.simulator.build(
                self.orchestrator.ap.node(), self._points(), panels
            )
            snrs = snr_map_db(
                model, live_configs(panels), self.orchestrator.budget
            )
            anomalies = self.monitor.observe(self.clock.now, snrs)
        self.telemetry.counter("daemon.observations")
        if anomalies:
            self.telemetry.counter("daemon.anomalies", len(anomalies))
        for anomaly in anomalies:
            self.bus.publish(
                ChannelDegraded(
                    time=self.clock.now,
                    point_index=anomaly.point_index,
                    drop_db=anomaly.drop_db,
                )
            )
        return snrs

    def step(self, dt: float = 0.5) -> Optional[ReactionRecord]:
        """One daemon cycle: advance dynamics, observe, react if needed.

        With a request pipeline attached, triggers route through its
        coalescing window — several triggers landing within the window
        are absorbed by one joint reoptimization — and the returned
        reaction record (when the pipeline fired this cycle) measures
        detection at the *earliest* coalesced trigger.  Without a
        pipeline the daemon reoptimizes immediately, as before.

        Returns the reaction record when a re-optimization happened.
        """
        self.clock.advance(dt)
        if self.dynamics is not None:
            self.dynamics.step(dt)
        hardware = getattr(self.orchestrator, "hardware", None)
        if hardware is not None and hasattr(hardware, "tick_faults"):
            hardware.tick_faults(self.clock.now)
        snrs_before = self.observe()
        degraded = bool(
            self.monitor.anomalies
            and self.monitor.anomalies[-1].time == self.clock.now
        )
        if self._fault_dirty:
            trigger = "surface-degraded"
        elif self._mobility_dirty:
            trigger = "endpoint-moved"
        elif degraded and self._dirty:
            trigger = "channel-degraded"
        else:
            trigger = None
        if self.pipeline is not None:
            return self._step_pipelined(trigger, snrs_before)
        if trigger is None:
            return None
        detected_at = self.clock.now
        legs_before = self._legs_retraced_total()
        try:
            if trigger == "surface-degraded":
                with self.telemetry.span("degraded-recovery") as span:
                    result = self.orchestrator.reoptimize(now=self.clock.now)
                    span.set(trigger=trigger)
            else:
                result = self.orchestrator.reoptimize(now=self.clock.now)
        except ServiceError as exc:
            # Degraded-mode guarantee: a reoptimization that cannot be
            # satisfied (e.g. every panel dead) degrades service, it
            # does not crash the daemon.
            self.reoptimize_failures += 1
            self.telemetry.counter("daemon.reoptimize_failures")
            self.telemetry.event(
                "daemon.reoptimize_failed", trigger=trigger, error=str(exc)
            )
            self._dirty = False
            self._mobility_dirty = False
            self._fault_dirty = False
            return None
        self._dirty = False
        self._mobility_dirty = False
        self._fault_dirty = False
        snrs_after = self.observe()
        record = ReactionRecord(
            detected_at=detected_at,
            completed_at=self.orchestrator.clock_now,
            trigger=trigger,
            median_snr_before_db=float(np.median(snrs_before)),
            median_snr_after_db=float(np.median(snrs_after)),
            legs_retraced=self._legs_delta(legs_before),
            **self._solver_fields(result),
        )
        self.reactions.append(record)
        self.telemetry.counter("daemon.reactions")
        self.telemetry.event(
            "daemon.reaction",
            trigger=record.trigger,
            detected_at=record.detected_at,
            completed_at=record.completed_at,
            reaction_latency_s=record.reaction_latency_s,
            median_snr_before_db=record.median_snr_before_db,
            median_snr_after_db=record.median_snr_after_db,
            legs_retraced=record.legs_retraced,
            **self._solver_event_attrs(result, record),
        )
        return record

    @staticmethod
    def _solver_fields(result) -> Dict[str, float]:
        """Adaptive-solve record fields from a reoptimization result."""
        stats = dict(getattr(result, "solver", None) or {})
        timing = dict(getattr(result, "timing", None) or {})
        return {
            "solver_budgeted_iterations": int(
                stats.get("budgeted_iterations", 0)
            ),
            "solver_used_iterations": int(stats.get("used_iterations", 0)),
            "solver_warm_hits": int(stats.get("warm_hits", 0)),
            "solver_early_stops": int(stats.get("early_stops", 0)),
            "wall_solve_s": float(timing.get("optimize_s", 0.0)),
        }

    @staticmethod
    def _solver_event_attrs(result, record: ReactionRecord) -> Dict[str, int]:
        """``daemon.reaction`` attrs for adaptive solves.

        Empty when adaptive budgets are off, so the disabled path emits
        byte-identical telemetry to a daemon without the feature.
        """
        if not getattr(result, "solver", None):
            return {}
        return {
            "solver_budgeted_iterations": record.solver_budgeted_iterations,
            "solver_used_iterations": record.solver_used_iterations,
            "solver_warm_hits": record.solver_warm_hits,
            "solver_early_stops": record.solver_early_stops,
        }

    def _legs_retraced_total(self) -> int:
        """Legs traced so far by the orchestrator's channel simulator."""
        simulator = getattr(self.orchestrator, "simulator", None)
        if simulator is None or not hasattr(simulator, "leg_cache_stats"):
            return -1
        return int(simulator.leg_cache_stats[1])

    def _legs_delta(self, before: int) -> int:
        after = self._legs_retraced_total()
        if before < 0 or after < 0:
            return -1
        return after - before

    def _step_pipelined(
        self, trigger: Optional[str], snrs_before: np.ndarray
    ) -> Optional[ReactionRecord]:
        """Route this cycle's trigger through the request pipeline.

        The pipeline owns coalescing: the trigger is noted, the dirty
        flags clear immediately, and the single tick below may or may
        not fire a joint reoptimization depending on the window.
        """
        legs_before = self._legs_retraced_total()
        if trigger is not None:
            self.pipeline.note_trigger(trigger, now=self.clock.now)
            if trigger in ("surface-degraded", "channel-degraded"):
                self.orchestrator.mark_dirty()  # environment-wide
            self._dirty = False
            self._mobility_dirty = False
            self._fault_dirty = False
        tick = self.pipeline.tick(self.clock.now)
        if tick.failure_reason:
            self.reoptimize_failures += 1
            self.telemetry.counter("daemon.reoptimize_failures")
            self.telemetry.event(
                "daemon.reoptimize_failed",
                trigger=tick.primary_trigger or (trigger or "pipeline"),
                error=tick.failure_reason,
            )
            return None
        if not tick.reoptimized:
            return None
        snrs_after = self.observe()
        record = ReactionRecord(
            detected_at=(
                tick.first_trigger_at
                if tick.first_trigger_at is not None
                else self.clock.now
            ),
            completed_at=self.orchestrator.clock_now,
            trigger=tick.primary_trigger or (trigger or "pipeline"),
            median_snr_before_db=float(np.median(snrs_before)),
            median_snr_after_db=float(np.median(snrs_after)),
            legs_retraced=self._legs_delta(legs_before),
            **self._solver_fields(tick.result),
        )
        self.reactions.append(record)
        self.telemetry.counter("daemon.reactions")
        self.telemetry.event(
            "daemon.reaction",
            trigger=record.trigger,
            detected_at=record.detected_at,
            completed_at=record.completed_at,
            reaction_latency_s=record.reaction_latency_s,
            median_snr_before_db=record.median_snr_before_db,
            median_snr_after_db=record.median_snr_after_db,
            coalesced=len(tick.coalesced),
            **self._solver_event_attrs(tick.result, record),
        )
        return record

    def run(self, steps: int, dt: float = 0.5) -> List[ReactionRecord]:
        """Run several daemon cycles; returns reactions that fired."""
        fired = []
        for _ in range(steps):
            record = self.step(dt)
            if record is not None:
                fired.append(record)
        return fired
