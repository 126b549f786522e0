"""Runtime layer: clock, events, environment dynamics, daemon."""

from .clock import SimClock
from .daemon import ReactionRecord, SurfOSDaemon
from .dynamics import HUMAN_SIZE, EnvironmentDynamics, Walker
from .events import (
    ChannelDegraded,
    EndpointMoved,
    Event,
    EventBus,
    HumanMoved,
    SurfaceDegraded,
)

__all__ = [
    "ChannelDegraded",
    "EndpointMoved",
    "Event",
    "EventBus",
    "EnvironmentDynamics",
    "HUMAN_SIZE",
    "HumanMoved",
    "ReactionRecord",
    "SimClock",
    "SurfOSDaemon",
    "SurfaceDegraded",
    "Walker",
]
