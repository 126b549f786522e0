"""Building materials with frequency-dependent radio properties.

Penetration loss grows with carrier frequency: drywall is nearly
transparent at 2.4 GHz but lossy at 60 GHz, while concrete blocks
mmWave almost completely.  We model each material with a penetration
loss that interpolates log-linearly in frequency between anchor points
taken from published measurement surveys (ITU-R P.2040-style values),
plus a reflection coefficient used by the first-order specular bounce
paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import math


@dataclass(frozen=True)
class Material:
    """A wall/obstacle material.

    Attributes:
        name: human-readable identifier.
        loss_anchors: ``(frequency_hz, penetration_loss_db)`` pairs,
            sorted by frequency, that define the loss curve.
        reflectivity: amplitude reflection coefficient magnitude in
            [0, 1] used for specular bounce paths.
    """

    name: str
    loss_anchors: Tuple[Tuple[float, float], ...]
    reflectivity: float = 0.4

    def __post_init__(self) -> None:
        if not self.loss_anchors:
            raise ValueError(f"material {self.name!r} needs >=1 loss anchor")
        freqs = [f for f, _ in self.loss_anchors]
        if freqs != sorted(freqs):
            raise ValueError(f"material {self.name!r} anchors must be freq-sorted")
        if not 0.0 <= self.reflectivity <= 1.0:
            raise ValueError("reflectivity must lie in [0, 1]")

    def penetration_loss_db(self, frequency_hz: float) -> float:
        """One-way penetration loss (dB) at a carrier frequency.

        Interpolates linearly in log-frequency between anchors and
        clamps flat outside the anchored range.
        """
        if frequency_hz <= 0:
            raise ValueError("frequency must be positive")
        anchors = self.loss_anchors
        if frequency_hz <= anchors[0][0]:
            return anchors[0][1]
        if frequency_hz >= anchors[-1][0]:
            return anchors[-1][1]
        for (f_lo, l_lo), (f_hi, l_hi) in zip(anchors, anchors[1:]):
            if f_lo <= frequency_hz <= f_hi:
                t = (math.log10(frequency_hz) - math.log10(f_lo)) / (
                    math.log10(f_hi) - math.log10(f_lo)
                )
                return l_lo + t * (l_hi - l_lo)
        raise AssertionError("unreachable: anchors cover the range")

    def penetration_amplitude(self, frequency_hz: float) -> float:
        """Linear amplitude transmission factor through the material."""
        return 10.0 ** (-self.penetration_loss_db(frequency_hz) / 20.0)


def _g(value_ghz: float) -> float:
    return value_ghz * 1e9


#: Interior partition wall: almost transparent at sub-6, lossy at mmWave.
DRYWALL = Material(
    name="drywall",
    loss_anchors=((_g(2.4), 3.0), (_g(5.0), 4.0), (_g(28.0), 8.0), (_g(60.0), 12.0)),
    reflectivity=0.35,
)

#: Load-bearing wall: effectively opaque at mmWave.
CONCRETE = Material(
    name="concrete",
    loss_anchors=((_g(2.4), 12.0), (_g(5.0), 16.0), (_g(28.0), 45.0), (_g(60.0), 70.0)),
    reflectivity=0.55,
)

#: Brick exterior wall.
BRICK = Material(
    name="brick",
    loss_anchors=((_g(2.4), 8.0), (_g(5.0), 10.0), (_g(28.0), 28.0), (_g(60.0), 40.0)),
    reflectivity=0.45,
)

#: Single-pane glass (windows): low loss, decent reflector at mmWave.
GLASS = Material(
    name="glass",
    loss_anchors=((_g(2.4), 2.0), (_g(5.0), 2.5), (_g(28.0), 4.0), (_g(60.0), 6.0)),
    reflectivity=0.5,
)

#: Wooden furniture / doors.
WOOD = Material(
    name="wood",
    loss_anchors=((_g(2.4), 3.0), (_g(5.0), 4.0), (_g(28.0), 7.0), (_g(60.0), 10.0)),
    reflectivity=0.25,
)

#: Human body (for dynamic blockage events): severe at mmWave.
HUMAN = Material(
    name="human",
    loss_anchors=((_g(2.4), 4.0), (_g(5.0), 6.0), (_g(28.0), 20.0), (_g(60.0), 30.0)),
    reflectivity=0.2,
)

#: Metal: opaque at all bands, strong reflector.
METAL = Material(
    name="metal",
    loss_anchors=((_g(2.4), 40.0), (_g(60.0), 80.0)),
    reflectivity=0.95,
)

MATERIALS: Dict[str, Material] = {
    m.name: m for m in (DRYWALL, CONCRETE, BRICK, GLASS, WOOD, HUMAN, METAL)
}


def get_material(name: str) -> Material:
    """Look up a built-in material by name."""
    try:
        return MATERIALS[name]
    except KeyError:
        known = ", ".join(sorted(MATERIALS))
        raise KeyError(f"unknown material {name!r}; known: {known}") from None
