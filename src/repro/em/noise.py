"""Noise floors, SNR, and link-capacity math."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..core.units import dbm_to_watts, thermal_noise_dbm, watts_to_dbm


#: Linear SNR floor of :meth:`LinkBudget.snr_db` (-40 dB).
_SNR_FLOOR = 1e-4


@dataclass(frozen=True)
class LinkBudget:
    """Transmit-side and receiver-noise parameters of a link.

    Attributes:
        tx_power_dbm: transmit power.
        bandwidth_hz: channel bandwidth for noise and capacity.
        noise_figure_db: receiver noise figure.
    """

    tx_power_dbm: float = 20.0
    bandwidth_hz: float = 400e6
    noise_figure_db: float = 7.0

    # The derived powers are computed once per budget: ``cached_property``
    # stores them in the instance ``__dict__``, past the frozen
    # ``__setattr__``, and leaves equality and hashing to the fields.

    @cached_property
    def noise_floor_dbm(self) -> float:
        """Receiver noise floor in dBm."""
        return thermal_noise_dbm(self.bandwidth_hz, self.noise_figure_db)

    @cached_property
    def tx_power_watts(self) -> float:
        """Transmit power in watts."""
        return dbm_to_watts(self.tx_power_dbm)

    @cached_property
    def noise_watts(self) -> float:
        """Noise power in watts."""
        return dbm_to_watts(self.noise_floor_dbm)

    def rss_dbm(self, channel_power_gain: float) -> float:
        """Received signal strength for a linear channel power gain."""
        return watts_to_dbm(self.tx_power_watts * max(channel_power_gain, 0.0))

    def snr_db(self, channel_power_gain: float) -> float:
        """SNR in dB for a linear channel power gain (floored at -40 dB)."""
        snr_linear = self.tx_power_watts * max(channel_power_gain, 0.0) / self.noise_watts
        return 10.0 * math.log10(max(snr_linear, _SNR_FLOOR))

    def snr_db_many(self, gains: np.ndarray) -> np.ndarray:
        """:meth:`snr_db` of each gain in a 1-D array, bit for bit.

        The products and floors run as array ops; each point still takes
        ``math.log10``, which ``np.log10`` differs from in the last bit
        on some inputs.
        """
        snr = self.tx_power_watts * np.maximum(gains, 0.0) / self.noise_watts
        return np.array(
            [10.0 * math.log10(v) for v in np.maximum(snr, _SNR_FLOOR).tolist()]
        )


def snr_db_from_channel(h: np.ndarray, budget: LinkBudget) -> float:
    """SNR with transmit MRT across the AP array.

    ``h`` is the per-AP-antenna complex amplitude channel; maximum-ratio
    transmission delivers power ``P_tx * ||h||^2``.
    """
    gain = float(np.sum(np.abs(np.asarray(h)) ** 2))
    return budget.snr_db(gain)


def shannon_required_snr_db(throughput_bps: float, bandwidth_hz: float) -> float:
    """Minimum SNR (dB) for a throughput over a bandwidth (Shannon inverse)."""
    if throughput_bps <= 0:
        raise ValueError("throughput must be positive")
    if bandwidth_hz <= 0:
        raise ValueError("bandwidth must be positive")
    snr_linear = 2.0 ** (throughput_bps / bandwidth_hz) - 1.0
    return 10.0 * math.log10(max(snr_linear, 1e-12))
