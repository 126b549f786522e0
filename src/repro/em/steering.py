"""Array steering vectors and beam codebooks.

Steering math appears in three places: the AP's antenna array, the
surface's element array (phase profiles that form beams toward points
or angles), and the AoA estimator's candidate predictions.  All of it
lives here.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from ..core.configuration import SurfaceConfiguration, wrap_phase
from ..core.units import wavelength
from ..geometry.vec import as_vec3


def ula_positions(
    num_antennas: int,
    frequency_hz: float,
    center: Sequence[float],
    axis: Sequence[float],
    spacing_wavelengths: float = 0.5,
) -> np.ndarray:
    """3-D positions of a uniform linear array centered on ``center``.

    Returns an ``(num_antennas, 3)`` array with elements spread along
    ``axis`` at ``spacing_wavelengths`` of the carrier wavelength.
    """
    if num_antennas < 1:
        raise ValueError("array needs at least one antenna")
    lam = wavelength(frequency_hz)
    axis_v = as_vec3(axis)
    norm = np.linalg.norm(axis_v)
    if norm == 0.0:
        raise ValueError("array axis must be non-zero")
    axis_v = axis_v / norm
    spacing = spacing_wavelengths * lam
    offsets = (np.arange(num_antennas) - (num_antennas - 1) / 2.0) * spacing
    return as_vec3(center)[None, :] + offsets[:, None] * axis_v[None, :]


def steering_phases_toward_point(
    element_positions: np.ndarray,
    source: Sequence[float],
    target: Sequence[float],
    frequency_hz: float,
) -> np.ndarray:
    """Per-element phase shifts focusing a source onto a target point.

    Classic RIS focusing: each element cancels the phase accumulated on
    its source→element and element→target legs, so contributions add
    coherently at the target.  Returns phases in [0, 2π), one per row of
    ``element_positions``.
    """
    lam = wavelength(frequency_hz)
    src = as_vec3(source)
    tgt = as_vec3(target)
    d1 = np.linalg.norm(element_positions - src[None, :], axis=1)
    d2 = np.linalg.norm(element_positions - tgt[None, :], axis=1)
    total = d1 + d2
    return wrap_phase(2.0 * math.pi * total / lam)


def focus_configuration(
    element_positions: np.ndarray,
    shape: Sequence[int],
    source: Sequence[float],
    target: Sequence[float],
    frequency_hz: float,
    name: str = "",
) -> SurfaceConfiguration:
    """A :class:`SurfaceConfiguration` focusing ``source`` onto ``target``."""
    phases = steering_phases_toward_point(
        element_positions, source, target, frequency_hz
    )
    rows, cols = int(shape[0]), int(shape[1])
    return SurfaceConfiguration(
        phases=phases.reshape(rows, cols),
        name=name or "focus",
        frequency_hz=frequency_hz,
    )


def beam_codebook_targets(
    region_center: Sequence[float],
    region_span: Sequence[float],
    beams_x: int,
    beams_y: int,
    z: float = 1.0,
) -> List[np.ndarray]:
    """Grid of focal targets covering a rectangular region.

    A programmable surface stores one focus configuration per target —
    the paper's "multiple sets of phase shift values, each for a
    distinct beam direction".
    """
    if beams_x < 1 or beams_y < 1:
        raise ValueError("need at least one beam per axis")
    center = as_vec3(region_center)
    span = as_vec3(region_span)
    xs = center[0] + (np.linspace(-0.5, 0.5, beams_x) * span[0] if beams_x > 1 else [0.0])
    ys = center[1] + (np.linspace(-0.5, 0.5, beams_y) * span[1] if beams_y > 1 else [0.0])
    targets = []
    for y in np.atleast_1d(ys):
        for x in np.atleast_1d(xs):
            targets.append(np.array([x, y, z], dtype=float))
    return targets
