"""Cross-network coexistence auditing (§2.1's unintended blocking).

"Surfaces designed for 2.4 GHz may block 3 GHz cellular and 5 GHz Wi-Fi
signals, causing connectivity issues for other networks."  A deployed
panel is a physical obstacle to every network that is not its own: in
band, transmissive hardware passes signal, but reflective or
out-of-band panels present their through-loss.

The audit quantifies the hazard: for a victim network (its AP, carrier,
and coverage points), compare SNR with the deployed panels modeled as
obstacles versus without, and attribute blame to the panels whose
through-loss at the victim's carrier is significant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..channel.nodes import RadioNode
from ..channel.simulator import ChannelSimulator
from ..em.noise import LinkBudget
from ..geometry.environment import Environment
from ..surfaces.panel import SurfacePanel
from .connectivity import snr_map_db

#: Through-loss above which a panel is flagged as a blocking hazard.
HAZARD_THRESHOLD_DB = 3.0


@dataclass(frozen=True)
class VictimNetwork:
    """A network that might suffer from deployed surfaces.

    Attributes:
        name: label, e.g. ``"5GHz-WiFi"``.
        ap: the victim's access point node.
        budget: the victim's link budget.
        frequency_hz: the victim's carrier.
        points: coverage evaluation points ``(K, 3)``.
    """

    name: str
    ap: RadioNode
    budget: LinkBudget
    frequency_hz: float
    points: np.ndarray


@dataclass(frozen=True)
class CoexistenceReport:
    """Impact of deployed panels on one victim network."""

    network: str
    median_snr_without_db: float
    median_snr_with_db: float
    worst_point_drop_db: float
    hazard_panels: Tuple[str, ...]

    @property
    def median_drop_db(self) -> float:
        """Median-SNR degradation caused by the deployment."""
        return self.median_snr_without_db - self.median_snr_with_db

    def describe(self) -> str:
        """One-line audit summary."""
        blame = ", ".join(self.hazard_panels) or "none"
        return (
            f"{self.network}: median {self.median_snr_without_db:.1f} → "
            f"{self.median_snr_with_db:.1f} dB "
            f"(drop {self.median_drop_db:.1f} dB, worst point "
            f"{self.worst_point_drop_db:.1f} dB); hazard panels: {blame}"
        )


def audit_network(
    env: Environment,
    panels: Sequence[SurfacePanel],
    victim: VictimNetwork,
) -> CoexistenceReport:
    """Quantify a deployment's impact on one victim network.

    The victim's channel is simulated twice — panels as obstacles
    versus ignored — on the victim's own carrier.  Surfaces never
    *serve* the victim here (worst case: foreign hardware).
    """
    with_blockage = ChannelSimulator(
        env, victim.frequency_hz, include_panel_blockage=True
    )
    without_blockage = ChannelSimulator(
        env, victim.frequency_hz, include_panel_blockage=False
    )
    # Foreign panels contribute no intentional redirection on the
    # victim's band (their efficiency there is ~0); model them purely
    # as obstacles by evaluating with zero coefficients.
    zero = {p.panel_id: np.zeros(p.num_elements) for p in panels}
    snr_with = snr_map_db(
        with_blockage.build(victim.ap, victim.points, list(panels)),
        zero,
        victim.budget,
    )
    snr_without = snr_map_db(
        without_blockage.build(victim.ap, victim.points, list(panels)),
        zero,
        victim.budget,
    )
    drops = snr_without - snr_with
    hazards = tuple(
        p.panel_id
        for p in panels
        if p.spec.through_loss_db(victim.frequency_hz) >= HAZARD_THRESHOLD_DB
    )
    return CoexistenceReport(
        network=victim.name,
        median_snr_without_db=float(np.median(snr_without)),
        median_snr_with_db=float(np.median(snr_with)),
        worst_point_drop_db=float(drops.max()),
        hazard_panels=hazards,
    )


def audit_networks(
    env: Environment,
    panels: Sequence[SurfacePanel],
    victims: Sequence[VictimNetwork],
) -> List[CoexistenceReport]:
    """Audit every victim network against a deployment."""
    return [audit_network(env, panels, victim) for victim in victims]
