"""Environment dynamics: scripted people and mobile clients.

The runtime's job is reacting to a physical world it cannot control.
This engine drives :class:`~repro.mobility.MobilityModel` instances —
human-sized obstacles walking waypoint loops, mobile client endpoints,
replayed traces — mutating the :class:`Environment` (which bumps its
version, invalidating channel caches) and publishing events on the bus.

Mutation attribution matters here: obstacle motion goes through
``Environment.add_dynamic_box``, which records the *union* of the old
and new AABBs as the dirty region, so the channel leg cache purges only
legs whose ray corridors cross the motion — never the whole cache.
Mobile client endpoints are not geometry; their moves publish
:class:`EndpointMoved` (re-pointing the client's tasks) without any
environment mutation at all.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..geometry.environment import Environment
from ..geometry.materials import HUMAN
from ..geometry.shapes import Box
from ..geometry.vec import as_vec3
from ..mobility import MobilityModelBase
from .events import EndpointMoved, EventBus, HumanMoved

#: Footprint and height of the walker obstacle (meters).
HUMAN_SIZE = (0.5, 0.5, 1.8)


class Walker:
    """A person-sized obstacle carried by a mobility model.

    Attributes:
        key: dynamic-obstacle key in the environment.
        model: the mobility model that moves it (e.g. a
            :class:`~repro.mobility.WaypointWalker` loop).
    """

    def __init__(self, key: str, model: MobilityModelBase):
        self.key = key
        self.model = model

    def position(self) -> np.ndarray:
        """Current feet position (xy at floor level)."""
        return self.model.position()

    def step(self, dt: float) -> np.ndarray:
        """Advance the model; returns the new position."""
        return self.model.step(dt)

    def peek(self, dt: float) -> np.ndarray:
        """Predict the next position without advancing (bit-exact)."""
        return self.model.peek(dt)

    def box(self) -> Box:
        """The obstacle box at the current position.

        The position's z is the floor the walker stands on (0 for 2-D
        waypoints), so upper-storey walkers block upper-storey rays.
        """
        pos = self.position()
        w, d, h = HUMAN_SIZE
        lo = np.array([pos[0] - w / 2, pos[1] - d / 2, pos[2]])
        hi = np.array([pos[0] + w / 2, pos[1] + d / 2, pos[2] + h])
        return Box(lo, hi, HUMAN, name=self.key)


class _MobileClient:
    """A client endpoint carried by a mobility model."""

    __slots__ = ("client", "model")

    def __init__(self, client, model: MobilityModelBase):
        self.client = client
        self.model = model


class EnvironmentDynamics:
    """Drives walkers, mobile clients, and one-shot moves."""

    def __init__(self, env: Environment, bus: Optional[EventBus] = None):
        self.env = env
        self.bus = bus or EventBus()
        self._walkers: List[Walker] = []
        self._last_pos: Dict[str, np.ndarray] = {}
        self._clients: Dict[str, _MobileClient] = {}
        self._time = 0.0

    @property
    def time(self) -> float:
        """Simulated dynamics time."""
        return self._time

    @property
    def walkers(self) -> List[Walker]:
        """Registered obstacle walkers."""
        return list(self._walkers)

    def add_walker(self, walker: Walker) -> Walker:
        """Register a walker and place its obstacle."""
        self._walkers.append(walker)
        self.env.add_dynamic_box(walker.key, walker.box())
        self._last_pos[walker.key] = walker.position()
        return walker

    def attach_client(self, client, model: MobilityModelBase):
        """Carry a client endpoint along a mobility model.

        The client snaps to the model's current position (quietly — no
        event; the first ``step`` publishes normally).  Endpoints are
        not obstacles: their motion never mutates the environment.
        """
        client.move_to(model.position())
        self._clients[client.client_id] = _MobileClient(client, model)
        return model

    def detach_client(self, client_id: str) -> bool:
        """Stop carrying a client (e.g. on churn departure)."""
        return self._clients.pop(client_id, None) is not None

    def step(self, dt: float) -> int:
        """Advance all walkers and mobile clients; returns events published.

        A walker whose position did not change (mid-pause) neither
        touches the environment nor publishes — dwelling is free.
        """
        if dt <= 0:
            raise ValueError("dt must be positive")
        self._time += dt
        published = 0
        for walker in self._walkers:
            pos = walker.step(dt)
            if np.array_equal(pos, self._last_pos.get(walker.key)):
                continue
            self._last_pos[walker.key] = pos
            self.env.add_dynamic_box(walker.key, walker.box())
            self.bus.publish(
                HumanMoved(
                    time=self._time,
                    key=walker.key,
                    position=tuple(map(float, pos)),
                )
            )
            published += 1
        for mobile in self._clients.values():
            pos = mobile.model.step(dt)
            if np.array_equal(pos, mobile.client.position):
                continue
            self.move_endpoint(mobile.client, pos)
            published += 1
        return published

    def peek_clients(self, dt: float) -> Dict[str, np.ndarray]:
        """Predicted client positions one ``step(dt)`` ahead.

        Runs each model's ``peek`` — the exact arithmetic of the real
        next step on a copy — so predictions are bit-identical to where
        the endpoints will actually be.  This is what the speculative
        leg prefetcher feeds into the channel cache.
        """
        return {
            cid: mc.model.peek(dt) for cid, mc in self._clients.items()
        }

    def move_endpoint(self, client, position: Sequence[float]) -> None:
        """Relocate a client device and publish the event."""
        client.move_to(position)
        self.bus.publish(
            EndpointMoved(
                time=self._time,
                client_id=client.client_id,
                position=tuple(map(float, as_vec3(position))),
            )
        )
