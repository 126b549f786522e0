"""The SurfOS runtime daemon: the §5 "OS versus libraries" argument.

A library configures surfaces once at "compile time"; a runtime watches
the environment and reconfigures.  The daemon subscribes to dynamics
events, samples coverage through the monitor, and notes a trigger to
the request pipeline when motion, a fault or a coverage drop calls for
it; the pipeline's tick re-optimizes the active tasks.  Reaction
latency (detection → configurations live) is recorded as
``daemon.reaction`` telemetry events the runtime benchmarks read their
timings from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..channel import live_configs
from ..core.errors import ServiceError
from ..services.connectivity import snr_map_db
from ..services.monitoring import ChannelMonitor
from .dynamics import EnvironmentDynamics
from .events import (
    ChannelDegraded,
    EndpointMoved,
    Event,
    HumanMoved,
    SurfaceDegraded,
)

#: Adaptive solve-budget counters a ``daemon.reaction`` event carries,
#: from the orchestrator's :class:`ReoptimizationResult`.
_SOLVER_ATTRS = (
    "budgeted_iterations",
    "used_iterations",
    "warm_hits",
    "early_stops",
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
    #: simulator's incremental leg cache).
    legs_retraced: int
    #: Wall-clock seconds spent in the optimize phase (the ``wall_``
    #: prefix keeps it out of sim-only telemetry exports).
    wall_solve_s: float = 0.0

    @property
    def reaction_latency_s(self) -> float:
        """Detection to configurations-live latency."""
        return self.completed_at - self.detected_at


class SurfOSDaemon:
    """Monitors the environment and keeps active tasks served.

    Every reaction runs through the request ``pipeline``: a trigger is
    noted to it, and its tick decides whether (and which triggers) one
    joint reoptimization covers.  The daemon runs on the pipeline's
    clock.
    """

    def __init__(
        self,
        orchestrator,
        pipeline,
        dynamics: EnvironmentDynamics,
        degradation_threshold_db: float = 8.0,
        observe_room: Optional[str] = None,
    ):
        self.orchestrator = orchestrator
        self.telemetry = orchestrator.telemetry
        self.pipeline = pipeline
        self.clock = pipeline.clock
        self.bus = dynamics.bus
        self.dynamics = dynamics
        self.monitor = ChannelMonitor(drop_threshold_db=degradation_threshold_db)
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
        orchestrator.hardware.on_degraded = self._publish_degraded

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

        This cycle's trigger (if any) is noted to the pipeline, whose
        tick fires a joint reoptimization once the coalescing window of
        the earliest pending trigger closes — on this same tick under
        the zero window :meth:`~repro.core.kernel.SurfOS.boot` sets up.
        The returned record measures detection at the *earliest*
        coalesced trigger.

        Returns the reaction record when a re-optimization happened.
        """
        self.clock.advance(dt)
        self.dynamics.step(dt)
        self.orchestrator.hardware.tick_faults(self.clock.now)
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
        legs_before = self._legs_retraced_total()
        if trigger is not None:
            self.pipeline.note_trigger(trigger, now=self.clock.now)
            if trigger in ("surface-degraded", "channel-degraded"):
                self.orchestrator.mark_dirty()  # environment-wide
            self._dirty = False
            self._mobility_dirty = False
            self._fault_dirty = False
        if trigger == "surface-degraded":
            with self.telemetry.span("degraded-recovery") as span:
                tick = self.pipeline.tick(self.clock.now)
                span.set(trigger=trigger)
        else:
            tick = self.pipeline.tick(self.clock.now)
        if tick.failure_reason:
            # Degraded-mode guarantee: a reoptimization that cannot be
            # satisfied (e.g. every panel dead) degrades service, it
            # does not crash the daemon.
            self.reoptimize_failures += 1
            self.telemetry.counter("daemon.reoptimize_failures")
            self.telemetry.event(
                "daemon.reoptimize_failed",
                trigger=trigger or "pipeline",
                error=tick.failure_reason,
            )
            return None
        if not tick.reoptimized:
            return None
        snrs_after = self.observe()
        result = tick.result
        record = ReactionRecord(
            detected_at=tick.first_trigger_at,
            completed_at=self.orchestrator.clock_now,
            trigger=tick.primary_trigger,
            median_snr_before_db=float(np.median(snrs_before)),
            median_snr_after_db=float(np.median(snrs_after)),
            legs_retraced=self._legs_retraced_total() - legs_before,
            wall_solve_s=float(result.timing.get("optimize_s", 0.0)),
        )
        self.reactions.append(record)
        self.telemetry.counter("daemon.reactions")
        # Solver attrs appear only under adaptive budgets (empty
        # ``result.solver`` otherwise), so the fixed-budget path emits
        # the same telemetry as a daemon without the feature.
        solver = {
            f"solver_{key}": int(result.solver.get(key, 0))
            for key in _SOLVER_ATTRS
        } if result.solver else {}
        self.telemetry.event(
            "daemon.reaction",
            trigger=record.trigger,
            detected_at=record.detected_at,
            completed_at=record.completed_at,
            reaction_latency_s=record.reaction_latency_s,
            median_snr_before_db=record.median_snr_before_db,
            median_snr_after_db=record.median_snr_after_db,
            legs_retraced=record.legs_retraced,
            coalesced=len(tick.coalesced),
            **solver,
        )
        return record

    def _legs_retraced_total(self) -> int:
        """Legs traced so far by the orchestrator's channel simulator."""
        return int(self.orchestrator.simulator.leg_cache_stats[1])

    def run(self, steps: int, dt: float = 0.5) -> List[ReactionRecord]:
        """Run several daemon cycles; returns reactions that fired."""
        fired = []
        for _ in range(steps):
            record = self.step(dt)
            if record is not None:
                fired.append(record)
        return fired
