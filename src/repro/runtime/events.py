"""Runtime events: what makes radio environments need an OS (§5).

"Events such as furniture movement and people walking can require
dynamic reconfiguration of surface states."  These event types flow
over a simple synchronous bus from the dynamics engine (and device
layer) to the SurfOS daemon, which decides when to re-optimize.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Type


@dataclass(frozen=True)
class Event:
    """Base event: everything carries a timestamp."""

    time: float


@dataclass(frozen=True)
class HumanMoved(Event):
    """A person moved to a new position."""

    key: str = ""
    position: tuple = (0.0, 0.0, 0.0)


@dataclass(frozen=True)
class EndpointMoved(Event):
    """A client device changed position."""

    client_id: str = ""
    position: tuple = (0.0, 0.0, 0.0)


@dataclass(frozen=True)
class ChannelDegraded(Event):
    """The monitor detected a coverage anomaly."""

    point_index: int = -1
    drop_db: float = 0.0


@dataclass(frozen=True)
class SurfaceDegraded(Event):
    """Hardware health changed: a surface died, lost elements, or was
    quarantined after repeated control failures.

    Published by the daemon from the hardware manager's
    ``on_degraded`` hook; the daemon itself reacts by re-optimizing
    around the degraded surface.
    """

    surface_id: str = ""
    reason: str = ""


class EventBus:
    """Synchronous publish/subscribe by event type (subclass-aware)."""

    def __init__(self) -> None:
        self._subscribers: Dict[Type[Event], List[Callable[[Event], None]]] = {}
        self._log: List[Event] = []

    def subscribe(
        self, event_type: Type[Event], handler: Callable[[Event], None]
    ) -> None:
        """Register a handler for an event type (and its subclasses)."""
        self._subscribers.setdefault(event_type, []).append(handler)

    def publish(self, event: Event) -> int:
        """Deliver an event; returns the number of handlers invoked."""
        self._log.append(event)
        invoked = 0
        for event_type, handlers in self._subscribers.items():
            if isinstance(event, event_type):
                for handler in handlers:
                    handler(event)
                    invoked += 1
        return invoked

    @property
    def log(self) -> List[Event]:
        """Every event ever published, in order."""
        return list(self._log)

    def events_of(self, event_type: Type[Event]) -> List[Event]:
        """Published events of one type (including subclasses)."""
        return [e for e in self._log if isinstance(e, event_type)]
