"""Application-level demands (§3.3).

The service broker exists because "existing systems optimize for
signal-level metrics like SNR or RSSI, [which] does not always align
with ... the application-level end user demands."  An
:class:`ApplicationDemand` expresses what the *application* needs —
throughput, latency, sensing, security, powering — and the translation
layer maps it down to service-level targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.errors import TranslationError


@dataclass(frozen=True)
class ApplicationDemand:
    """What one application needs from the radio environment.

    Attributes:
        app_name: application label ("vr_gaming", …).
        client_id: the device running the application.
        room_id: room the user occupies (for coverage/sensing scope).
        throughput_mbps: sustained goodput the app needs.
        latency_ms: latency bound (drives priority, not PHY targets).
        needs_sensing: motion tracking / presence required.
        needs_security: physical-layer protection required.
        charging_w: wireless charging draw, 0 for none.
        priority: user-assigned importance (higher = more).
    """

    app_name: str
    client_id: str
    room_id: str
    throughput_mbps: float = 0.0
    latency_ms: Optional[float] = None
    needs_sensing: bool = False
    needs_security: bool = False
    charging_w: float = 0.0
    priority: int = 5

    def __post_init__(self) -> None:
        if self.throughput_mbps < 0:
            raise TranslationError("throughput must be non-negative")
        if self.latency_ms is not None and self.latency_ms <= 0:
            raise TranslationError("latency bound must be positive")
        if self.charging_w < 0:
            raise TranslationError("charging draw must be non-negative")
        if self.priority < 0:
            raise TranslationError("priority must be non-negative")
        if (
            self.throughput_mbps == 0
            and not self.needs_sensing
            and not self.needs_security
            and self.charging_w == 0
        ):
            raise TranslationError(
                f"{self.app_name}: demand requests nothing from the network"
            )

    @property
    def latency_sensitive(self) -> bool:
        """Sub-20 ms bounds mark hard-interactive applications."""
        return self.latency_ms is not None and self.latency_ms <= 20.0
