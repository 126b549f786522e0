"""The hardware manager layer: one registry, unified APIs (§3.1).

The manager owns every driver and non-surface device in the deployment
and is the *only* path upper layers use to touch hardware.  It exposes:

* registration/lookup for surfaces (via drivers), APs, clients, sensors
  — with symmetric ``register_*``/``unregister_*`` pairs;
* unified configuration writes that fan out through drivers, with the
  control delay accounted against a simulated clock; every write verb
  returns an :class:`~repro.core.operations.OperationResult`;
* health tracking per surface: transient push failures are retried
  with exponential backoff + deterministic jitter, repeat offenders are
  quarantined, and degradations are reported upward through
  :attr:`HardwareManager.on_degraded`;
* a specification table for the orchestrator's modeling;
* feedback routing from endpoints to the drivers' local selection.

Attach a :class:`~repro.faults.FaultInjector` to exercise the failure
paths; with none attached (the default) no fault code runs at all.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Mapping, Optional

from ..core.configuration import SurfaceConfiguration
from ..core.errors import TransientHardwareError, UnknownDeviceError
from ..core.operations import OperationResult, OperationStatus
from ..drivers.base import PassiveDriver, SurfaceDriver
from ..drivers.amplitude import AmplitudeDriver
from ..drivers.frequency import FrequencySelectiveDriver
from ..drivers.phase import PassivePhaseDriver, ProgrammablePhaseDriver
from ..drivers.polarization import PolarizationDriver
from ..surfaces.panel import SurfacePanel
from ..surfaces.specs import SignalProperty, SurfaceSpec
from ..telemetry import Telemetry
from .devices import AccessPoint, ClientDevice, Sensor
from .health import HealthStatus, RetryPolicy, SurfaceHealth


def driver_for_panel(panel: SurfacePanel) -> SurfaceDriver:
    """Instantiate the right driver class for a panel's capabilities.

    The dispatch order prefers phase control (the dominant modality in
    Table 1) and falls back through amplitude, polarization, frequency.
    """
    spec = panel.spec
    if spec.supports(SignalProperty.PHASE):
        if spec.is_passive:
            return PassivePhaseDriver(panel)
        return ProgrammablePhaseDriver(panel)
    if spec.supports(SignalProperty.AMPLITUDE):
        return AmplitudeDriver(panel)
    if spec.supports(SignalProperty.POLARIZATION):
        return PolarizationDriver(panel)
    if spec.supports(SignalProperty.FREQUENCY):
        return FrequencySelectiveDriver(panel, bands_hz=[spec.band_hz])
    raise UnknownDeviceError(
        f"no driver for {spec.design}: controls {sorted(p.value for p in spec.properties)}"
    )


class HardwareManager:
    """Registry + unified control for all hardware in one environment.

    Args:
        telemetry: where push/commit latency accounting goes; the
            kernel passes its shared instance so the whole stack
            reports into one place.
        fault_injector: optional :class:`~repro.faults.FaultInjector`
            exercising element/panel/link failures.
        retry_policy: backoff/quarantine tuning for transient push
            failures.
    """

    def __init__(
        self,
        telemetry: Optional[Telemetry] = None,
        fault_injector=None,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.telemetry = telemetry or Telemetry()
        self._drivers: Dict[str, SurfaceDriver] = {}
        self._aps: Dict[str, AccessPoint] = {}
        self._clients: Dict[str, ClientDevice] = {}
        self._sensors: Dict[str, Sensor] = {}
        self._health: Dict[str, SurfaceHealth] = {}
        self.retry_policy = retry_policy or RetryPolicy()
        self._retry_rng = self.retry_policy.make_rng()
        #: Hook called as ``on_degraded(surface_id, reason)`` whenever a
        #: surface is quarantined, dies, or loses elements.  The runtime
        #: daemon wires this to a :class:`SurfaceDegraded` bus event.
        self.on_degraded: Optional[Callable[[str, str], None]] = None
        self.faults = None
        if fault_injector is not None:
            self.attach_faults(fault_injector)

    def attach_faults(self, injector) -> None:
        """Attach a fault injector; its accounting joins this telemetry."""
        injector.telemetry = self.telemetry
        self.faults = injector

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------

    def register_surface(
        self,
        panel: SurfacePanel,
        driver: Optional[SurfaceDriver] = None,
    ) -> SurfaceDriver:
        """Register a panel, auto-selecting its driver unless given."""
        if panel.panel_id in self._drivers:
            raise UnknownDeviceError(
                f"surface {panel.panel_id!r} already registered"
            )
        driver = driver or driver_for_panel(panel)
        self._drivers[panel.panel_id] = driver
        self._health[panel.panel_id] = SurfaceHealth(panel.panel_id)
        return driver

    def unregister_surface(self, surface_id: str) -> None:
        """Remove a surface from management."""
        if surface_id not in self._drivers:
            raise UnknownDeviceError(f"unknown surface {surface_id!r}")
        del self._drivers[surface_id]
        self._health.pop(surface_id, None)

    def unregister_access_point(self, ap_id: str) -> None:
        """Remove an AP/base station from management."""
        if ap_id not in self._aps:
            raise UnknownDeviceError(f"unknown AP {ap_id!r}")
        del self._aps[ap_id]

    def unregister_client(self, client_id: str) -> None:
        """Remove an end-user device from management."""
        if client_id not in self._clients:
            raise UnknownDeviceError(f"unknown client {client_id!r}")
        del self._clients[client_id]

    def unregister_sensor(self, sensor_id: str) -> None:
        """Remove an external sensor from management."""
        if sensor_id not in self._sensors:
            raise UnknownDeviceError(f"unknown sensor {sensor_id!r}")
        del self._sensors[sensor_id]

    def register_access_point(self, ap: AccessPoint) -> AccessPoint:
        """Register an AP/base station."""
        if ap.ap_id in self._aps:
            raise UnknownDeviceError(f"AP {ap.ap_id!r} already registered")
        self._aps[ap.ap_id] = ap
        return ap

    def register_client(self, client: ClientDevice) -> ClientDevice:
        """Register an end-user device."""
        if client.client_id in self._clients:
            raise UnknownDeviceError(
                f"client {client.client_id!r} already registered"
            )
        self._clients[client.client_id] = client
        return client

    def register_sensor(self, sensor: Sensor) -> Sensor:
        """Register an external sensor."""
        if sensor.sensor_id in self._sensors:
            raise UnknownDeviceError(
                f"sensor {sensor.sensor_id!r} already registered"
            )
        self._sensors[sensor.sensor_id] = sensor
        return sensor

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------

    def driver(self, surface_id: str) -> SurfaceDriver:
        """The driver managing a surface."""
        try:
            return self._drivers[surface_id]
        except KeyError:
            known = ", ".join(sorted(self._drivers)) or "(none)"
            raise UnknownDeviceError(
                f"unknown surface {surface_id!r}; known: {known}"
            ) from None

    def panel(self, surface_id: str) -> SurfacePanel:
        """The panel behind a surface id."""
        return self.driver(surface_id).panel

    def panels(self) -> List[SurfacePanel]:
        """All registered panels, sorted by id."""
        return [self._drivers[sid].panel for sid in sorted(self._drivers)]

    def surface_ids(self) -> List[str]:
        """All surface ids, sorted."""
        return sorted(self._drivers)

    def access_point(self, ap_id: str) -> AccessPoint:
        """Look up an AP."""
        try:
            return self._aps[ap_id]
        except KeyError:
            raise UnknownDeviceError(f"unknown AP {ap_id!r}") from None

    def access_points(self) -> List[AccessPoint]:
        """All APs, sorted by id."""
        return [self._aps[k] for k in sorted(self._aps)]

    def client(self, client_id: str) -> ClientDevice:
        """Look up a client device."""
        try:
            return self._clients[client_id]
        except KeyError:
            raise UnknownDeviceError(f"unknown client {client_id!r}") from None

    def clients(self) -> List[ClientDevice]:
        """All clients, sorted by id."""
        return [self._clients[k] for k in sorted(self._clients)]

    def sensor(self, sensor_id: str) -> Sensor:
        """Look up a sensor."""
        try:
            return self._sensors[sensor_id]
        except KeyError:
            raise UnknownDeviceError(f"unknown sensor {sensor_id!r}") from None

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------

    def health(self, surface_id: str) -> SurfaceHealth:
        """One surface's health record."""
        self.driver(surface_id)  # raises UnknownDeviceError consistently
        return self._health[surface_id]

    def health_report(self) -> Dict[str, SurfaceHealth]:
        """Health records for every surface, keyed by id."""
        return {sid: self._health[sid] for sid in sorted(self._drivers)}

    def operational_panels(self) -> List[SurfacePanel]:
        """Panels still taking control-plane writes, sorted by id.

        Excludes quarantined and dead surfaces — the set the
        orchestrator may optimize and push to.  (Dead panels stay in
        :meth:`panels` because they remain physically mounted.)
        """
        return [
            self._drivers[sid].panel
            for sid in sorted(self._drivers)
            if self._health[sid].operational
        ]

    def quarantine(self, surface_id: str, reason: str = "operator") -> None:
        """Force a surface out of service."""
        health = self.health(surface_id)
        if health.status is not HealthStatus.QUARANTINED:
            health.status = HealthStatus.QUARANTINED
            self.telemetry.counter("hwmgr.quarantined")
            self._notify_degraded(surface_id, reason)

    def reinstate(self, surface_id: str) -> None:
        """Put a quarantined surface back in service."""
        self.health(surface_id).reinstate()

    def _notify_degraded(self, surface_id: str, reason: str) -> None:
        self.telemetry.event(
            "hwmgr.degraded", surface=surface_id, reason=reason
        )
        if self.on_degraded is not None:
            self.on_degraded(surface_id, reason)

    # ------------------------------------------------------------------
    # fault clock tick
    # ------------------------------------------------------------------

    def tick_faults(self, now: float) -> List[object]:
        """Advance the fault injector and apply data-plane corruption.

        Called from the runtime clock (the daemon's step).  Newly
        activated faults update health records and fire
        :attr:`on_degraded`; element-level impairments are re-applied
        to the afflicted panels' live configurations so the channel
        model sees the sick hardware.  No-op without an injector.
        """
        if self.faults is None:
            return []
        panels = {sid: d.panel for sid, d in self._drivers.items()}
        injected = self.faults.advance(now, panels)
        for fault in injected:
            health = self._health.get(fault.surface_id)
            if health is None:
                continue
            if fault.kind == "PanelDeath":
                health.mark_dead()
                self._notify_degraded(fault.surface_id, "panel-dead")
            elif fault.kind in ("ElementFailure", "PhaseDrift"):
                health.mark_degraded()
                self._notify_degraded(
                    fault.surface_id, fault.kind.lower()
                )
            # ControlLinkFault degrades nothing by itself; the retry
            # loop discovers it and quarantines repeat offenders.
        for sid in self.faults.impaired_surfaces():
            self._recorrupt(sid)
        return injected

    def _recorrupt(self, surface_id: str) -> None:
        """Re-apply element impairments on top of the intended config."""
        driver = self._drivers.get(surface_id)
        if driver is None:
            return
        intended = self._intended_configuration(driver)
        driver.panel.impair(
            self.faults.corrupt(surface_id, driver.panel.feasible(intended))
        )

    @staticmethod
    def _intended_configuration(driver: SurfaceDriver) -> SurfaceConfiguration:
        """The clean configuration the control plane believes is live."""
        name = driver.active_configuration_name
        if name is not None:
            return driver.get_configuration(name)
        return driver.panel.configuration

    # ------------------------------------------------------------------
    # unified operations
    # ------------------------------------------------------------------

    def specifications(self) -> Dict[str, SurfaceSpec]:
        """Spec table for all managed surfaces (orchestrator input)."""
        return {sid: d.spec for sid, d in self._drivers.items()}

    def push_configuration(
        self,
        surface_id: str,
        config: SurfaceConfiguration,
        now: float = 0.0,
        name: str = "live",
        activate: bool = True,
    ) -> OperationResult:
        """Queue a configuration write; returns an :class:`OperationResult`.

        Writes to quarantined/dead surfaces are refused (``REJECTED``).
        Transient control-link failures are retried up to
        ``retry_policy.max_attempts`` times with exponential backoff and
        deterministic jitter; exhausting the retries records a failure
        against the surface's health and may trip quarantine.
        """
        now = float(now)
        driver = self.driver(surface_id)
        health = self._health[surface_id]
        if not health.operational:
            return OperationResult(
                status=OperationStatus.REJECTED,
                operation="push",
                surface_id=surface_id,
                attempts=0,
                error=(
                    f"surface {surface_id!r} is {health.status.value}; "
                    "write refused"
                ),
            )
        attempt_at = now
        last_error: Optional[str] = None
        for attempt in range(1, self.retry_policy.max_attempts + 1):
            try:
                extra_delay_s = 0.0
                if self.faults is not None:
                    extra_delay_s = self.faults.link_attempt(
                        surface_id, attempt_at
                    )
                pushed = driver.push_configuration(
                    name,
                    config,
                    now=attempt_at + extra_delay_s,
                    activate=activate,
                )
            except TransientHardwareError as exc:
                last_error = str(exc)
                attempt_at += getattr(exc, "timeout_s", 0.0)
                if attempt < self.retry_policy.max_attempts:
                    health.retries += 1
                    self.telemetry.counter("hwmgr.retries")
                    backoff_s = self.retry_policy.backoff_s(
                        attempt, self._retry_rng
                    )
                    self.telemetry.event(
                        "hwmgr.retry",
                        surface=surface_id,
                        attempt=attempt,
                        backoff_s=backoff_s,
                        error=last_error,
                    )
                    attempt_at += backoff_s
                continue
            health.record_success()
            delay_s = pushed.ready_at - now
            self.telemetry.counter("hw.pushes")
            self.telemetry.counter("hw.push_delay_total_s", delay_s)
            self.telemetry.gauge("hw.last_push_delay_s", delay_s)
            return OperationResult(
                status=(
                    OperationStatus.OK
                    if attempt == 1
                    else OperationStatus.RETRIED
                ),
                operation="push",
                surface_id=surface_id,
                attempts=attempt,
                latency_s=delay_s,
                ready_at=pushed.ready_at,
            )
        tripped = health.record_failure(
            last_error or "push failed",
            attempt_at,
            self.retry_policy.quarantine_after,
        )
        self.telemetry.counter("hwmgr.push_failures")
        if tripped:
            self.telemetry.counter("hwmgr.quarantined")
            self._notify_degraded(surface_id, "quarantined")
        return OperationResult(
            status=OperationStatus.FAILED,
            operation="push",
            surface_id=surface_id,
            attempts=self.retry_policy.max_attempts,
            latency_s=attempt_at - now,
            error=last_error,
        )

    def fabricate(
        self, surface_id: str, config: SurfaceConfiguration
    ) -> OperationResult:
        """Permanently fix a passive surface's configuration.

        The unified path for one-time-programmable hardware; raises
        :class:`UnknownDeviceError` when the surface's driver is not
        passive.  The result's ``configuration`` holds the fabricated
        (feasibility-projected) state.
        """
        driver = self.driver(surface_id)
        if not isinstance(driver, PassiveDriver):
            raise UnknownDeviceError(
                f"surface {surface_id!r} is reconfigurable; "
                "use push_configuration() instead of fabricate()"
            )
        result = driver.fabricate(config)
        self.telemetry.counter("hw.fabrications")
        return result

    def commit_all(self, now: float) -> OperationResult:
        """Apply every in-flight write whose control delay elapsed.

        Returns an aggregate :class:`OperationResult` whose ``applied``
        counts activations across all drivers.
        """
        now = float(now)
        with self.telemetry.span("hw-commit") as span:
            applied = sum(
                int(d.commit(now).applied) for d in self._drivers.values()
            )
            span.set(applied=applied)
        if applied:
            self.telemetry.counter("hw.commits_applied", applied)
            if self.faults is not None:
                # A commit actuates the clean intent; sick hardware
                # immediately re-expresses its impairments.
                for sid in self.faults.impaired_surfaces():
                    self._recorrupt(sid)
        return OperationResult(
            status=OperationStatus.OK,
            operation="commit",
            surface_id="*",
            applied=applied,
        )

    def pending_total(self) -> int:
        """Writes still in flight across all drivers."""
        return sum(d.pending_count() for d in self._drivers.values())

    def snapshot(self) -> Dict[str, SurfaceConfiguration]:
        """Live configuration of every surface (data-plane state)."""
        return {
            sid: d.panel.configuration for sid, d in self._drivers.items()
        }

    def summary(self) -> str:
        """One-line deployment description."""
        return (
            f"HardwareManager({len(self._drivers)} surfaces, "
            f"{len(self._aps)} APs, {len(self._clients)} clients, "
            f"{len(self._sensors)} sensors)"
        )
