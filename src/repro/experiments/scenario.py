"""The canonical §4 evaluation scenario: the two-room apartment.

Every experiment shares this deployment: an AP on the living-room wall,
the concrete partition with a doorway, and the three pre-determined
surface sites (passive backhaul, programmable steering, single-surface
relay).  Centralizing it keeps the per-figure modules about the
*experiment*, not the setup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..channel.nodes import RadioNode
from ..channel.simulator import ChannelSimulator
from ..core.units import ghz
from ..em.noise import LinkBudget
from ..geometry.environment import Environment
from ..geometry.floorplans import ApartmentSites, apartment_sites, two_room_apartment
from ..hwmgr.devices import AccessPoint
from ..surfaces.catalog import GENERIC_PASSIVE_28, GENERIC_PROGRAMMABLE_28
from ..surfaces.panel import SurfacePanel
from ..surfaces.specs import SurfaceSpec

#: Carrier used throughout §4: mmWave coverage extension at 28 GHz.
CARRIER_HZ = ghz(28.0)

#: AP antennas in the evaluation deployment.
AP_ANTENNAS = 4


@dataclass
class ApartmentScenario:
    """One ready-to-use apartment deployment.

    Attributes:
        env: the two-room environment.
        sites: canonical mounting sites.
        ap: the access point (array + budget).
        simulator: channel simulator bound to the environment.
        grid_spacing_m: evaluation-grid pitch in the target room.
    """

    env: Environment
    sites: ApartmentSites
    ap: AccessPoint
    simulator: ChannelSimulator
    grid_spacing_m: float = 0.7

    @property
    def budget(self) -> LinkBudget:
        """The AP's link budget."""
        return self.ap.budget

    def ap_node(self) -> RadioNode:
        """The AP as the channel simulator sees it."""
        return self.ap.node()

    def bedroom_grid(self, z: float = 1.0) -> np.ndarray:
        """Evaluation points across the target room."""
        return self.env.room("bedroom").grid(self.grid_spacing_m, z=z)

    # ------------------------------------------------------------------
    # panel factories at the canonical sites
    # ------------------------------------------------------------------

    def passive_panel(
        self, rows: int, cols: Optional[int] = None, panel_id: str = "passive"
    ) -> SurfacePanel:
        """A passive sheet at the living-room backhaul site."""
        return SurfacePanel(
            panel_id,
            GENERIC_PASSIVE_28,
            rows,
            cols if cols is not None else rows,
            self.sites.passive_center,
            self.sites.passive_normal,
        )

    def programmable_panel(
        self, rows: int, cols: Optional[int] = None, panel_id: str = "prog"
    ) -> SurfacePanel:
        """A programmable panel at the bedroom steering site."""
        return SurfacePanel(
            panel_id,
            GENERIC_PROGRAMMABLE_28,
            rows,
            cols if cols is not None else rows,
            self.sites.programmable_center,
            self.sites.programmable_normal,
        )

    def relay_panel(
        self,
        rows: int,
        cols: Optional[int] = None,
        spec: SurfaceSpec = GENERIC_PROGRAMMABLE_28,
        panel_id: str = "relay",
    ) -> SurfacePanel:
        """A panel at the single-surface relay site (Figs. 2 and 5)."""
        return SurfacePanel(
            panel_id,
            spec,
            rows,
            cols if cols is not None else rows,
            self.sites.single_surface_center,
            self.sites.single_surface_normal,
        )


def build_scenario(
    grid_spacing_m: float = 0.7,
    tx_power_dbm: float = 20.0,
    bandwidth_hz: float = 400e6,
) -> ApartmentScenario:
    """Construct the canonical evaluation scenario."""
    env = two_room_apartment()
    sites = apartment_sites()
    ap = AccessPoint(
        "ap",
        sites.ap_position,
        AP_ANTENNAS,
        CARRIER_HZ,
        boresight=(1.0, 0.3, 0.0),
        budget=LinkBudget(
            tx_power_dbm=tx_power_dbm, bandwidth_hz=bandwidth_hz
        ),
    )
    simulator = ChannelSimulator(env, CARRIER_HZ)
    return ApartmentScenario(
        env=env,
        sites=sites,
        ap=ap,
        simulator=simulator,
        grid_spacing_m=grid_spacing_m,
    )
