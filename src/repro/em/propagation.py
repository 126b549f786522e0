"""Free-space propagation primitives.

The channel simulator composes paths out of straight legs; each leg's
complex amplitude gain is the Friis amplitude (``λ / 4πd`` scaled by
the endpoint antenna gains) times a phase rotation from the electrical
path length.  The convention throughout the codebase: a channel ``h``
is an *amplitude* gain, i.e. received power is ``P_tx * |h|^2``.
"""

from __future__ import annotations

import math

from ..core.units import wavelength


def friis_amplitude(
    distance_m: float,
    frequency_hz: float,
    gain_tx_linear: float = 1.0,
    gain_rx_linear: float = 1.0,
) -> float:
    """Linear amplitude gain of a free-space leg.

    ``|h| = (λ / 4πd) * sqrt(G_tx * G_rx)`` so that
    ``P_rx = P_tx |h|^2`` reproduces the Friis equation.
    """
    if distance_m <= 0:
        raise ValueError("distance must be positive")
    lam = wavelength(frequency_hz)
    return (lam / (4.0 * math.pi * distance_m)) * math.sqrt(
        gain_tx_linear * gain_rx_linear
    )


def path_phase(distance_m: float, frequency_hz: float) -> float:
    """Phase rotation (radians) accumulated over a path length.

    Negative sign convention: ``h ∝ exp(-j * 2π d / λ)``.
    """
    lam = wavelength(frequency_hz)
    return -2.0 * math.pi * distance_m / lam


def complex_leg_gain(
    distance_m: float,
    frequency_hz: float,
    gain_tx_linear: float = 1.0,
    gain_rx_linear: float = 1.0,
    extra_amplitude: float = 1.0,
) -> complex:
    """Full complex gain of one leg: Friis amplitude × path phase.

    ``extra_amplitude`` carries penetration/reflection factors collected
    along the leg.
    """
    amp = friis_amplitude(distance_m, frequency_hz, gain_tx_linear, gain_rx_linear)
    phase = path_phase(distance_m, frequency_hz)
    return amp * extra_amplitude * complex(math.cos(phase), math.sin(phase))
