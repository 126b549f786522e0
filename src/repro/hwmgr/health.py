"""Per-surface health tracking and the manager's retry policy.

Cheap metasurface panels stick, drift, and drop their control links;
the hardware manager therefore treats every surface as a device that
*will* fail and tracks where each one sits on the
healthy → degraded → quarantined/dead ladder.  Quarantined surfaces
stop receiving control-plane writes and are masked out of the
orchestrator's optimization until reinstated; dead surfaces stay in the
channel model (they are still mounted) but scatter nothing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np


class HealthStatus(enum.Enum):
    """Where a surface sits on the degradation ladder."""

    HEALTHY = "healthy"          #: serving normally
    DEGRADED = "degraded"        #: impaired (failed elements, drift) but serving
    QUARANTINED = "quarantined"  #: repeated control failures; writes refused
    DEAD = "dead"                #: whole panel dark


@dataclass
class SurfaceHealth:
    """Mutable health record the manager keeps per surface.

    Attributes:
        surface_id: the tracked surface.
        status: current :class:`HealthStatus`.
        consecutive_failures: failed operations since the last success
            (quarantine trips on this).
        total_failures: failed operations over the surface's lifetime.
        retries: transient-failure retries spent on this surface.
        last_error: stringified most recent terminal error.
        quarantined_at: simulated time quarantine tripped, if ever.
    """

    surface_id: str
    status: HealthStatus = HealthStatus.HEALTHY
    consecutive_failures: int = 0
    total_failures: int = 0
    retries: int = 0
    last_error: Optional[str] = None
    quarantined_at: Optional[float] = None

    @property
    def operational(self) -> bool:
        """Whether the surface still takes control-plane writes."""
        return self.status in (HealthStatus.HEALTHY, HealthStatus.DEGRADED)

    def record_success(self) -> None:
        """A control operation landed; clear the failure streak."""
        self.consecutive_failures = 0

    def record_failure(
        self, error: str, now: float, quarantine_after: int
    ) -> bool:
        """A control operation exhausted its retries.

        Returns ``True`` when this failure trips quarantine.
        """
        self.consecutive_failures += 1
        self.total_failures += 1
        self.last_error = error
        if (
            self.operational
            and self.consecutive_failures >= quarantine_after
        ):
            self.status = HealthStatus.QUARANTINED
            self.quarantined_at = now
            return True
        return False

    def mark_degraded(self) -> None:
        """Element-level impairment: degraded, but still serving."""
        if self.status is HealthStatus.HEALTHY:
            self.status = HealthStatus.DEGRADED

    def mark_dead(self) -> None:
        """The whole panel died."""
        self.status = HealthStatus.DEAD

    def reinstate(self) -> None:
        """Operator override: put a quarantined surface back in service."""
        if self.status is HealthStatus.QUARANTINED:
            self.status = HealthStatus.HEALTHY
            self.consecutive_failures = 0
            self.quarantined_at = None


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter for transient errors.

    Attributes:
        max_attempts: total tries per operation (first attempt included).
        base_backoff_s: backoff before the first retry.
        backoff_factor: multiplier per further retry.
        jitter_fraction: uniform jitter added on top, as a fraction of
            the exponential backoff (decorrelates synchronized retries
            across panels; drawn from the manager's seeded stream so
            the schedule is reproducible).
        quarantine_after: consecutive failed *operations* (not attempts)
            before a surface is quarantined.
        seed: seed for the jitter stream.
    """

    max_attempts: int = 4
    base_backoff_s: float = 0.02
    backoff_factor: float = 2.0
    jitter_fraction: float = 0.25
    quarantine_after: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_backoff_s < 0.0 or self.backoff_factor < 1.0:
            raise ValueError("backoff must be non-negative and non-shrinking")
        if self.jitter_fraction < 0.0:
            raise ValueError("jitter_fraction must be non-negative")
        if self.quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")

    def make_rng(self) -> np.random.Generator:
        """The seeded jitter stream (one per manager)."""
        return np.random.default_rng(self.seed)

    def backoff_s(self, attempt: int, rng: np.random.Generator) -> float:
        """Backoff before retrying after failed attempt ``attempt``."""
        base = self.base_backoff_s * self.backoff_factor ** (attempt - 1)
        return base * (1.0 + self.jitter_fraction * float(rng.random()))
