"""Non-surface hardware SurfOS manages or interacts with (§3.1).

Access points and base stations provide channel feedback and carry the
link budget; client devices are the endpoints services target; sensors
report external measurements (power detectors, lidar, radar) that guide
reconfiguration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ..channel.nodes import RadioNode, single_antenna_node, ula_node
from ..em.antenna import ISOTROPIC, PATCH, AntennaPattern
from ..em.noise import LinkBudget
from ..geometry.vec import as_vec3


@dataclass
class AccessPoint:
    """An AP (or base station) with an antenna array and link budget.

    Attributes:
        ap_id: stable identifier.
        position: array center.
        num_antennas: ULA size.
        frequency_hz: carrier the AP serves.
        boresight: array facing direction.
        budget: transmit power / bandwidth / noise figure.
    """

    ap_id: str
    position: np.ndarray
    num_antennas: int
    frequency_hz: float
    boresight: Sequence[float] = (1.0, 0.0, 0.0)
    axis: Sequence[float] = (0.0, 0.0, 1.0)
    budget: LinkBudget = field(default_factory=LinkBudget)
    pattern: AntennaPattern = PATCH
    _node: Optional[Tuple[tuple, RadioNode]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.position = as_vec3(self.position)
        if self.num_antennas < 1:
            raise ValueError("AP needs at least one antenna")
        if self.frequency_hz <= 0:
            raise ValueError("AP carrier must be positive")

    def node(self) -> RadioNode:
        """The channel simulator's view of this AP.

        Every channel build asks for it, several times a cycle, so the
        node is kept and rebuilt only when a field it is made of changes.
        """
        key = (
            self.ap_id,
            np.asarray(self.position, dtype=float).tobytes(),
            self.num_antennas,
            self.frequency_hz,
            tuple(self.axis),
            tuple(self.boresight),
            self.pattern,
        )
        if self._node is None or self._node[0] != key:
            self._node = (key, ula_node(
                self.ap_id,
                self.position,
                self.num_antennas,
                self.frequency_hz,
                axis=self.axis,
                boresight=self.boresight,
                pattern=self.pattern,
            ))
        return self._node[1]


@dataclass
class ClientDevice:
    """A mobile endpoint (phone, headset, laptop, IoT node)."""

    client_id: str
    position: np.ndarray
    pattern: AntennaPattern = ISOTROPIC

    def __post_init__(self) -> None:
        self.position = as_vec3(self.position)

    def node(self) -> RadioNode:
        """The channel simulator's view of this client."""
        return single_antenna_node(self.client_id, self.position, self.pattern)

    def move_to(self, position: Sequence[float]) -> None:
        """Relocate the device (endpoint mobility)."""
        self.position = as_vec3(position)


@dataclass
class Sensor:
    """An external sensor reporting scalar measurements to SurfOS.

    ``read`` takes one measurement.  It is injected so tests and
    experiments can model power
    detectors (LAVA), lidar occupancy (AutoMS), or radar-derived
    presence without new classes.
    """

    sensor_id: str
    position: np.ndarray
    kind: str
    read: Callable[[], float]

    def __post_init__(self) -> None:
        self.position = as_vec3(self.position)
