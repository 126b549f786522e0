"""The unified driver interface of the hardware manager (§3.1).

Drivers mask hardware heterogeneity behind primitives named after the
fundamental signal properties — ``set_phase_shifts``,
``set_amplitudes``, … — "analogous to the read() and write() primitives
for file systems".  Two further responsibilities come straight from the
paper:

* **Decoupling management from actuation.**  Control-plane writes are
  *asynchronous*: :meth:`SurfaceDriver.push_configuration` queues an
  update that becomes live only after the hardware's control delay;
  meanwhile the surface keeps serving from its locally stored codebook,
  reacting to endpoint feedback on its own (the data plane).
* **Exposing specifications.**  Every driver surfaces its
  :class:`~repro.surfaces.specs.SurfaceSpec` so the orchestrator can
  model the hardware honestly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.configuration import SurfaceConfiguration
from ..core.errors import CapabilityError, ConfigurationError, DriverError
from ..core.operations import OperationResult, OperationStatus
from ..surfaces.panel import SurfacePanel
from ..surfaces.specs import SignalProperty, SurfaceSpec


@dataclass(frozen=True)
class FeedbackReport:
    """Endpoint feedback used for local (data-plane) configuration choice.

    Attributes:
        client_id: which endpoint measured.
        metric_by_configuration: e.g. RSS or SNR in dB per stored
            configuration name, from a beam-sweep — the 802.11ad-style
            codebook feedback the paper cites.
        timestamp: measurement time (simulated seconds).
    """

    client_id: str
    metric_by_configuration: Dict[str, float]
    timestamp: float = 0.0


@dataclass
class _PendingUpdate:
    """A queued control-plane write, live at ``ready_at``."""

    name: str
    configuration: SurfaceConfiguration
    ready_at: float
    activate: bool


class SurfaceDriver:
    """Base driver: codebook storage, async updates, capability checks.

    Subclasses bind a signal property and may refine validation.
    """

    #: Signal property this driver controls (class-level dispatch key).
    controlled_property: SignalProperty = SignalProperty.PHASE

    def __init__(self, panel: SurfacePanel):
        self.panel = panel
        self._codebook: Dict[str, SurfaceConfiguration] = {}
        self._active_name: Optional[str] = None
        self._pending: List[_PendingUpdate] = []
        if not panel.spec.supports(self.controlled_property):
            raise CapabilityError(
                f"{panel.spec.design} does not control "
                f"{self.controlled_property.value}; driver {type(self).__name__} "
                "cannot manage it"
            )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def surface_id(self) -> str:
        """The managed panel's id."""
        return self.panel.panel_id

    @property
    def spec(self) -> SurfaceSpec:
        """The hardware datasheet, exposed to the upper layers."""
        return self.panel.spec

    @property
    def active_configuration_name(self) -> Optional[str]:
        """Name of the codebook entry currently actuating the panel."""
        return self._active_name

    def stored_configurations(self) -> List[str]:
        """Names of codebook entries, in insertion order."""
        return list(self._codebook)

    def get_configuration(self, name: str) -> SurfaceConfiguration:
        """Fetch a stored configuration by name."""
        try:
            return self._codebook[name]
        except KeyError:
            raise DriverError(
                f"{self.surface_id}: no stored configuration {name!r}"
            ) from None

    # ------------------------------------------------------------------
    # control plane: asynchronous reconfiguration
    # ------------------------------------------------------------------

    def _check_reconfigurable(self) -> None:
        if self.spec.is_passive:
            raise CapabilityError(
                f"{self.surface_id} ({self.spec.design}) is passive: "
                "configurations are fixed at fabrication"
            )

    def validate(self, config: SurfaceConfiguration) -> None:
        """Reject configurations this hardware cannot express.

        Subclasses add property-specific checks; the base validates
        shape only (granularity/quantization are *projected*, not
        rejected, because the hardware can always apply the nearest
        feasible configuration).
        """
        if config.shape != self.panel.shape:
            raise ConfigurationError(
                f"{self.surface_id}: configuration shape {config.shape} "
                f"!= panel shape {self.panel.shape}"
            )

    def push_configuration(
        self,
        name: str,
        config: SurfaceConfiguration,
        now: float = 0.0,
        activate: bool = True,
    ) -> OperationResult:
        """Queue a codebook write; returns its :class:`OperationResult`.

        The write lands after the hardware's control delay
        (``result.ready_at``).  When ``activate`` is false the entry is
        stored without switching the live configuration (pre-loading a
        beam codebook).
        """
        now = float(now)
        self._check_reconfigurable()
        self.validate(config)
        if (
            name not in self._codebook
            and len(self._codebook) >= self.spec.max_stored_configurations
        ):
            raise DriverError(
                f"{self.surface_id}: codebook full "
                f"({self.spec.max_stored_configurations} entries)"
            )
        ready_at = now + self.spec.control_delay_s
        self._pending.append(
            _PendingUpdate(
                name=name,
                configuration=config.copy(),
                ready_at=ready_at,
                activate=activate,
            )
        )
        return OperationResult(
            status=OperationStatus.OK,
            operation="push",
            surface_id=self.surface_id,
            latency_s=ready_at - now,
            ready_at=ready_at,
        )

    def commit(self, now: float) -> OperationResult:
        """Apply every queued write whose control delay has elapsed.

        ``result.applied`` counts the writes applied.  Called by the
        hardware manager's clock tick.
        """
        now = float(now)
        ready = [u for u in self._pending if u.ready_at <= now]
        self._pending = [u for u in self._pending if u.ready_at > now]
        for update in sorted(ready, key=lambda u: u.ready_at):
            self._codebook[update.name] = update.configuration
            if update.activate:
                self._activate(update.name)
        return OperationResult(
            status=OperationStatus.OK,
            operation="commit",
            surface_id=self.surface_id,
            applied=len(ready),
        )

    def pending_count(self) -> int:
        """Writes still in flight."""
        return len(self._pending)

    # ------------------------------------------------------------------
    # data plane: local selection
    # ------------------------------------------------------------------

    def _activate(self, name: str) -> None:
        config = self.get_configuration(name)
        self.panel.actuate(config)
        self._active_name = name

    def select_configuration(self, name: str) -> None:
        """Switch the live configuration to a stored entry (local, fast).

        Local selection is a data-plane action and does not pay the
        control delay — the paper's surfaces "react locally to choose
        the best configuration".
        """
        self._check_reconfigurable()
        self._activate(name)

    def apply_feedback(self, report: FeedbackReport) -> Optional[str]:
        """Pick the best stored configuration from endpoint feedback.

        Returns the selected name, or ``None`` when the report covers
        no stored entry.  Passive hardware ignores feedback.
        """
        if self.spec.is_passive:
            return None
        known = {
            name: metric
            for name, metric in report.metric_by_configuration.items()
            if name in self._codebook
        }
        if not known:
            return None
        best = max(known, key=lambda name: known[name])
        if best != self._active_name:
            # Route the stored entry back through validate() before it
            # actuates: a codebook entry may predate a spec change (or
            # have been injected around push), and silently activating
            # one the panel cannot express corrupts the data plane.
            self.validate(self.get_configuration(best))
            self._activate(best)
        return best


class PassiveDriver(SurfaceDriver):
    """Driver for passive (one-time programmable) hardware.

    The single configuration is chosen at fabrication; afterwards every
    write raises :class:`CapabilityError` — the paper's "ROM" analogy.
    """

    def __init__(self, panel: SurfacePanel):
        super().__init__(panel)
        self._fabricated = False

    @property
    def fabricated(self) -> bool:
        """Whether the one-time configuration has been committed."""
        return self._fabricated

    def fabricate(self, config: SurfaceConfiguration) -> OperationResult:
        """Fix the configuration permanently (fabrication time).

        ``result.configuration`` holds the projected configuration the
        hardware actually took.
        """
        if self._fabricated:
            raise CapabilityError(
                f"{self.surface_id}: already fabricated; passive surfaces "
                "are one-time programmable"
            )
        self.validate(config)
        applied = self.panel.actuate(config)
        self._codebook = {"fabricated": applied}
        self._active_name = "fabricated"
        self._fabricated = True
        return OperationResult(
            status=OperationStatus.OK,
            operation="fabricate",
            surface_id=self.surface_id,
            configuration=applied,
        )
