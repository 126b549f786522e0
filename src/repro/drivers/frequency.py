"""Frequency-selective driver (Scrolls style).

Scrolls tunes *rows* of a wideband surface to distinct resonant bands:
a row reflects strongly at its tuned band and weakly elsewhere.  A
configuration assigns each row a band index; the effective view for a
given carrier is an amplitude mask selecting the rows tuned to it.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from ..core.configuration import SurfaceConfiguration
from ..core.errors import ConfigurationError
from ..surfaces.specs import SignalProperty
from .base import SurfaceDriver

#: Reflection amplitude of a row tuned away from the carrier.
OFF_RESONANCE_AMPLITUDE = 0.15


class FrequencySelectiveDriver(SurfaceDriver):
    """Driver for row-wise frequency-selective surfaces."""

    controlled_property = SignalProperty.FREQUENCY

    def __init__(self, panel, bands_hz: Sequence[Tuple[float, float]]):
        super().__init__(panel)
        if not bands_hz:
            raise ConfigurationError("need at least one tunable band")
        for lo, hi in bands_hz:
            if not (0 < lo <= hi):
                raise ConfigurationError(f"invalid band ({lo}, {hi})")
        self.bands_hz = tuple((float(lo), float(hi)) for lo, hi in bands_hz)
        self._row_bands = np.zeros(panel.rows, dtype=int)

    def set_row_bands(self, band_indices: Sequence[int]) -> None:
        """Tune each row to a band index (local, row-wise actuation)."""
        self._check_reconfigurable()
        indices = np.asarray(band_indices, dtype=int)
        if indices.shape != (self.panel.rows,):
            raise ConfigurationError(
                f"{self.surface_id}: need one band per row "
                f"({self.panel.rows}), got shape {indices.shape}"
            )
        if np.any(indices < 0) or np.any(indices >= len(self.bands_hz)):
            raise ConfigurationError(
                f"{self.surface_id}: band index out of range "
                f"[0, {len(self.bands_hz)})"
            )
        self._row_bands = indices.copy()
        self.panel.actuate(self.effective_configuration_for_band_state())

    def rows_tuned_to(self, frequency_hz: float) -> np.ndarray:
        """Boolean mask of rows resonant at a carrier."""
        tuned = np.zeros(self.panel.rows, dtype=bool)
        for row, band_idx in enumerate(self._row_bands):
            lo, hi = self.bands_hz[band_idx]
            tuned[row] = lo <= frequency_hz <= hi
        return tuned

    def effective_amplitudes(self, frequency_hz: float) -> np.ndarray:
        """Per-element reflection amplitude at a carrier."""
        tuned = self.rows_tuned_to(frequency_hz)
        row_amp = np.where(tuned, 1.0, OFF_RESONANCE_AMPLITUDE)
        return np.repeat(row_amp[:, None], self.panel.cols, axis=1)

    def effective_configuration(self, frequency_hz: float) -> SurfaceConfiguration:
        """The channel-model view at one carrier."""
        return SurfaceConfiguration(
            phases=np.zeros(self.panel.shape),
            amplitudes=self.effective_amplitudes(frequency_hz),
            name=f"freq-effective@{frequency_hz / 1e9:.2f}GHz",
        )

    def effective_configuration_for_band_state(self) -> SurfaceConfiguration:
        """Live view at the spec's center frequency (for panel state)."""
        return self.effective_configuration(self.spec.center_frequency_hz)

    def allocate_rows(
        self, demands: Dict[int, float]
    ) -> Dict[int, int]:
        """Split rows across bands proportionally to demand weights.

        Returns rows-per-band; assigns contiguous row groups (matching
        the hardware's rolled-sheet construction) via ``set_row_bands``.
        """
        if not demands:
            raise ConfigurationError("no band demands given")
        for band_idx in demands:
            if not 0 <= band_idx < len(self.bands_hz):
                raise ConfigurationError(f"band index {band_idx} out of range")
        total = sum(demands.values())
        if total <= 0:
            raise ConfigurationError("demand weights must sum to > 0")
        rows = self.panel.rows
        allocation: Dict[int, int] = {}
        remaining = rows
        items = sorted(demands.items())
        for i, (band_idx, weight) in enumerate(items):
            if i == len(items) - 1:
                allocation[band_idx] = remaining
            else:
                share = int(round(rows * weight / total))
                share = min(share, remaining)
                allocation[band_idx] = share
                remaining -= share
        assignment = []
        for band_idx, count in allocation.items():
            assignment.extend([band_idx] * count)
        self.set_row_bands(np.asarray(assignment[:rows]))
        return allocation
