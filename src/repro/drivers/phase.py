"""Phase-control drivers — the workhorse of the exploratory studies.

The paper's early-stage implementation (§4) is exactly this pair: "a
passive surface takes a single set of per-element phase shift values,
while each programmable surface takes multiple sets of element-wise
states.  The best set for a programmable surface is chosen based on
endpoint feedback."
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from ..core.configuration import SurfaceConfiguration
from ..em.steering import focus_configuration
from ..surfaces.panel import SurfacePanel
from ..surfaces.specs import SignalProperty
from ..core.operations import OperationResult
from .base import PassiveDriver, SurfaceDriver


class ProgrammablePhaseDriver(SurfaceDriver):
    """Driver for reconfigurable phase-shifting surfaces."""

    controlled_property = SignalProperty.PHASE

    def set_phase_shifts(
        self,
        config: SurfaceConfiguration,
        now: float = 0.0,
        name: str = "live",
    ) -> OperationResult:
        """The paper's ``shift_phase()`` primitive: queue a phase write."""
        return self.push_configuration(name, config, now=now, activate=True)

    def load_beam_codebook(
        self,
        source: Sequence[float],
        targets: Iterable[np.ndarray],
        frequency_hz: float,
        now: float = 0.0,
        prefix: str = "beam",
    ) -> List[str]:
        """Pre-load focus configurations for a set of target points.

        Returns the stored entry names; the first entry is activated.
        This is the 802.11ad-codebook-style deployment the paper
        describes for data-plane beam switching.
        """
        names: List[str] = []
        for i, target in enumerate(targets):
            name = f"{prefix}{i}"
            cfg = focus_configuration(
                self.panel.element_positions(),
                self.panel.shape,
                source,
                target,
                frequency_hz,
                name=name,
            )
            self.push_configuration(name, cfg, now=now, activate=(i == 0))
            names.append(name)
        return names


class PassivePhaseDriver(PassiveDriver):
    """Driver for passive phase surfaces (fixed at fabrication)."""

    controlled_property = SignalProperty.PHASE
