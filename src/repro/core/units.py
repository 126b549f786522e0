"""Unit conversions and physical constants used across SurfOS.

Radio engineering mixes logarithmic (dB, dBm) and linear (mW, W)
quantities freely; every conversion in the codebase goes through this
module so that the sign conventions live in exactly one place.
"""

from __future__ import annotations

import math

#: Speed of light in vacuum (m/s).
SPEED_OF_LIGHT = 299_792_458.0

#: Boltzmann constant (J/K).
BOLTZMANN = 1.380649e-23

#: Reference noise temperature (K) used for thermal-noise floors.
ROOM_TEMPERATURE_K = 290.0

_MIN_LINEAR = 1e-30


def db_to_linear(db: float) -> float:
    """Convert a power ratio from decibels to linear scale."""
    return 10.0 ** (db / 10.0)


def linear_to_db(ratio: float) -> float:
    """Convert a linear power ratio to decibels.

    Ratios at or below zero are clamped to a -300 dB floor rather than
    raising, because they routinely appear as "no signal" placeholders
    in coverage maps.
    """
    return 10.0 * math.log10(max(ratio, _MIN_LINEAR))


def dbm_to_watts(dbm: float) -> float:
    """Convert power from dBm to watts."""
    return 10.0 ** (dbm / 10.0) / 1000.0


def watts_to_dbm(watts: float) -> float:
    """Convert power from watts to dBm (clamped at -270 dBm)."""
    return 10.0 * math.log10(max(watts, _MIN_LINEAR) * 1000.0)


def dbm_to_milliwatts(dbm: float) -> float:
    """Convert power from dBm to milliwatts."""
    return 10.0 ** (dbm / 10.0)


def wavelength(frequency_hz: float) -> float:
    """Free-space wavelength (m) for a carrier frequency (Hz)."""
    if frequency_hz <= 0:
        raise ValueError(f"frequency must be positive, got {frequency_hz}")
    return SPEED_OF_LIGHT / frequency_hz


def ghz(value: float) -> float:
    """Express a frequency given in GHz as Hz."""
    return value * 1e9


def mhz(value: float) -> float:
    """Express a frequency given in MHz as Hz."""
    return value * 1e6


def thermal_noise_dbm(bandwidth_hz: float, noise_figure_db: float = 0.0) -> float:
    """Thermal noise floor in dBm for a bandwidth, plus receiver noise figure."""
    if bandwidth_hz <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_hz}")
    noise_watts = BOLTZMANN * ROOM_TEMPERATURE_K * bandwidth_hz
    return watts_to_dbm(noise_watts) + noise_figure_db
