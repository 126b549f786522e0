"""Polarization-control driver (LLAMA style).

Elements rotate the polarization of passing waves.  A configuration's
*phases* array is reinterpreted as per-element polarization rotation
angles; the effective coupling toward a receiver with a given
polarization offset is the cosine of the residual mismatch (Malus-law
amplitude), which the channel model consumes as an amplitude mask.
"""

from __future__ import annotations

import numpy as np

from ..core.configuration import SurfaceConfiguration
from ..surfaces.specs import SignalProperty
from ..core.operations import OperationResult
from .base import SurfaceDriver


class PolarizationDriver(SurfaceDriver):
    """Driver for programmable polarization-rotation surfaces."""

    controlled_property = SignalProperty.POLARIZATION

    def set_polarizations(
        self,
        rotation_angles: np.ndarray,
        now: float = 0.0,
        name: str = "polarization",
    ) -> OperationResult:
        """Queue per-element polarization rotation angles (radians)."""
        angles = np.asarray(rotation_angles, dtype=float).reshape(
            self.panel.shape
        )
        config = SurfaceConfiguration(phases=angles, name=name)
        return self.push_configuration(name, config, now=now, activate=True)

    def effective_amplitudes(
        self, receiver_polarization_rad: float
    ) -> np.ndarray:
        """Amplitude coupling toward a receiver polarization.

        ``|cos(rotation - receiver_polarization)|`` per element: aligned
        rotation couples fully, crossed polarization nulls the element.
        """
        rotations = self.panel.configuration.phases
        return np.abs(np.cos(rotations - receiver_polarization_rad))

    def effective_configuration(
        self, receiver_polarization_rad: float
    ) -> SurfaceConfiguration:
        """The channel-model view: amplitudes from polarization match."""
        return SurfaceConfiguration(
            phases=np.zeros(self.panel.shape),
            amplitudes=self.effective_amplitudes(receiver_polarization_rad),
            name=f"pol-effective@{receiver_polarization_rad:.3f}",
        )
