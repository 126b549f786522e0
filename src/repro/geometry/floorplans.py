"""Ready-made floor plans used by the paper's exploratory studies.

The central scenario (paper Figs. 2, 4, 5) is a furnished two-room
apartment: an access point in the living room, a concrete partition
blocking mmWave into the adjacent bedroom except through a doorway, and
surfaces mounted at pre-determined locations relaying signal around the
partition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .environment import Environment
from .materials import BRICK, CONCRETE, WOOD
from .shapes import Box, Room
from .vec import vec3


@dataclass(frozen=True)
class ApartmentLayout:
    """Dimension knobs for :func:`two_room_apartment`.

    The defaults put the partition doorway near the top wall, matching
    the paper's Fig. 4a sketch where the relayed beam turns the corner
    through the opening.
    """

    living_width: float = 5.0
    bedroom_width: float = 3.5
    depth: float = 4.0
    ceiling: float = 3.0
    door_lo: float = 3.0
    door_hi: float = 3.9
    furnished: bool = True

    def __post_init__(self) -> None:
        if not (0.0 < self.door_lo < self.door_hi < self.depth):
            raise ValueError("doorway must lie strictly inside the partition")

    @property
    def total_width(self) -> float:
        """Full apartment width (m)."""
        return self.living_width + self.bedroom_width


def two_room_apartment(layout: ApartmentLayout = ApartmentLayout()) -> Environment:
    """Build the two-room apartment environment.

    Coordinates: x grows from the living room (left) into the bedroom
    (right); y spans the apartment depth; z is height.  The concrete
    partition sits at ``x = layout.living_width`` with a doorway gap
    between ``door_lo`` and ``door_hi``.
    """
    env = Environment(name="two-room-apartment", ceiling_height=layout.ceiling)
    w, bw, d = layout.living_width, layout.bedroom_width, layout.depth
    total = layout.total_width

    # Exterior shell (brick).
    env.add_wall_2d((0, 0), (total, 0), BRICK, name="south-exterior")
    env.add_wall_2d((total, 0), (total, d), BRICK, name="east-exterior")
    env.add_wall_2d((total, d), (0, d), BRICK, name="north-exterior")
    env.add_wall_2d((0, d), (0, 0), BRICK, name="west-exterior")

    # Interior concrete partition with a doorway gap.
    env.add_wall_2d((w, 0), (w, layout.door_lo), CONCRETE, name="partition-south")
    env.add_wall_2d((w, layout.door_hi), (w, d), CONCRETE, name="partition-north")

    env.add_room(Room("living", 0.0, w, 0.0, d))
    env.add_room(Room("bedroom", w, total, 0.0, d))

    if layout.furnished:
        # A sofa and a bookshelf in the living room, a bed and a
        # wardrobe in the bedroom; heights below typical device height
        # except the wardrobe, so some grid points see extra blockage.
        env.add_box(
            Box(vec3(1.2, 0.2, 0.0), vec3(3.2, 1.0, 0.8), WOOD, name="sofa")
        )
        env.add_box(
            Box(vec3(0.1, 2.6, 0.0), vec3(0.5, 3.8, 1.9), WOOD, name="bookshelf")
        )
        env.add_box(
            Box(
                vec3(w + 0.8, 0.3, 0.0),
                vec3(w + 2.4, 1.7, 0.6),
                WOOD,
                name="bed",
            )
        )
        env.add_box(
            Box(
                vec3(total - 0.6, 0.2, 0.0),
                vec3(total - 0.1, 1.4, 2.0),
                WOOD,
                name="wardrobe",
            )
        )

    return env


@dataclass(frozen=True)
class ApartmentSites:
    """Canonical device/surface mounting sites for the apartment.

    All positions are 3-D points; surface normals point into the room
    the surface serves.  These mirror the paper's "suitable
    pre-determined deployment locations".
    """

    ap_position: np.ndarray
    passive_center: np.ndarray
    passive_normal: np.ndarray
    programmable_center: np.ndarray
    programmable_normal: np.ndarray
    single_surface_center: np.ndarray
    single_surface_normal: np.ndarray


def apartment_sites(layout: ApartmentLayout = ApartmentLayout()) -> ApartmentSites:
    """Deployment sites used by the Fig. 2/4/5 experiments.

    * AP: on the west living-room wall, facing east.
    * Passive surface: on the north living-room wall, well away from
      the doorway.  Its through-door view of the bedroom is a *narrow
      wedge* — useless for flooding the room statically, but exactly
      enough to relay a focused backhaul beam onto the programmable
      panel (the Fig. 4a story).
    * Programmable surface: on the east bedroom wall inside that wedge,
      re-steering the relayed beam across the bedroom.
    * Single-surface site (Figs. 2/5, programmable-only baseline): the
      north bedroom wall just past the doorway, seeing both the AP
      (obliquely, through the door) and the whole bedroom.
    """
    w, d = layout.living_width, layout.depth
    total = layout.total_width
    return ApartmentSites(
        ap_position=vec3(0.3, 1.2, 2.0),
        passive_center=vec3(1.8, d - 0.02, 1.8),
        passive_normal=vec3(0.0, -1.0, 0.0),
        programmable_center=vec3(total - 0.02, 2.6, 1.8),
        programmable_normal=vec3(-1.0, 0.0, 0.0),
        single_surface_center=vec3(w + 1.6, d - 0.02, 1.8),
        single_surface_normal=vec3(0.0, -1.0, 0.0),
    )
