"""Gain-matrix builders for every kind of leg in the cascade model.

The channel between an AP and a client through surfaces decomposes into
legs: node→node (direct, with first-order wall bounces), node→surface
elements, surface elements→points, and surface→surface element pairs.
Each builder returns complex amplitude gains with the convention
``P_rx = P_tx |h|^2``.

Modeling notes (documented substitutions vs. a full EM solver):

* Per-element penetration loss is exact for node↔element legs; the
  surface↔surface leg uses the panels' center-to-center penetration for
  all element pairs (panels are small relative to obstacles).
* First-order specular wall reflections enrich only node→node legs;
  surface legs are dominated by their geometric ray.
* A surface's redirection efficiency (wideband frequency response) is
  applied once per interaction, on the *incoming* leg.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..core.units import wavelength
from ..geometry.environment import Environment
from ..surfaces.panel import SurfacePanel
from .geomkernels import PanelStack, compiled_geometry
from .nodes import RadioNode
from .tracer import PanelObstacle, segment_amplitude

_TINY = 1e-12


def _pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances between two point sets, shape ``(len(a), len(b))``."""
    diff = a[:, None, :] - b[None, :, :]
    return np.linalg.norm(diff, axis=2)


def _pattern_amplitudes(
    sources: np.ndarray,
    boresight: np.ndarray,
    pattern,
    targets: np.ndarray,
) -> np.ndarray:
    """Amplitude pattern gains from each source toward each target.

    ``targets`` is ``(T, 3)``, shared by every source, or ``(…, S, T,
    3)``, a distinct aim point per source/target pair (reflection
    bounce points); returns ``(S, T)`` or ``(…, S, T)``.  Sources share
    one boresight.
    """
    diff = targets - sources[:, None, :]
    dist = np.linalg.norm(diff, axis=-1)
    safe = np.maximum(dist, _TINY)
    cos_theta = np.einsum("...k,k->...", diff, boresight) / safe
    peak = pattern.peak_gain_linear
    if pattern.cos_exponent == 0.0:
        gains = np.full_like(cos_theta, peak)
    else:
        gains = peak * np.clip(np.abs(cos_theta), 0.0, 1.0) ** pattern.cos_exponent
    if pattern.front_only:
        gains = np.where(cos_theta > 0.0, gains, 0.0)
    return np.sqrt(gains)


def _pairwise_penetration(
    env: Environment,
    a: np.ndarray,
    b: np.ndarray,
    frequency_hz: float,
    panel_obstacles: Sequence[PanelObstacle],
) -> np.ndarray:
    """Penetration amplitude for all pairs, shape ``(len(a), len(b))``."""
    n, m = a.shape[0], b.shape[0]
    a_flat = np.repeat(a, m, axis=0)
    b_flat = np.tile(b, (n, 1))
    amp = segment_amplitude(env, a_flat, b_flat, frequency_hz, panel_obstacles)
    return amp.reshape(n, m)


def node_to_points(
    env: Environment,
    node: RadioNode,
    points: np.ndarray,
    frequency_hz: float,
    panel_obstacles: Sequence[PanelObstacle] = (),
    include_reflections: bool = True,
    point_pattern=None,
) -> np.ndarray:
    """Direct channel from a node's antennas to receive points.

    Returns ``(K, M)`` complex gains (K points, M antennas) including
    penetration losses and, optionally, first-order wall bounces.
    ``point_pattern`` defaults to isotropic receivers.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    lam = wavelength(frequency_hz)
    k_wave = 2.0 * math.pi / lam
    ant = node.positions
    dist = _pairwise_distances(ant, points)  # (M, K)
    safe = np.maximum(dist, _TINY)
    tx_amp = _pattern_amplitudes(ant, node.boresight, node.pattern, points)
    if point_pattern is not None and point_pattern.cos_exponent != 0.0:
        raise NotImplementedError("directional receive points not supported")
    rx_gain = 1.0 if point_pattern is None else point_pattern.peak_gain_linear
    panels = PanelStack(panel_obstacles) if panel_obstacles else None
    # One penetration pass prices the direct rays and, batched over
    # every reflective wall (image method), both legs of each bounce.
    pen, bounces = compiled_geometry(env).trace_pairs(
        ant, points, frequency_hz, panels, include_reflections
    )
    h = (
        (lam / (4.0 * math.pi * safe))
        * tx_amp
        * math.sqrt(rx_gain)
        * pen
        * np.exp(-1j * k_wave * dist)
    )
    if bounces.valid.any():
        safe_len = np.where(bounces.valid, bounces.length, 1.0)
        pattern_amp = _pattern_amplitudes(
            ant, node.boresight, node.pattern, bounces.bounce
        )
        amp = (
            (lam / (4.0 * math.pi * safe_len))
            * bounces.amplitude  # zero wherever the bounce is invalid
            * pattern_amp
            * math.sqrt(rx_gain)
        )
        paths = amp * np.exp(-1j * k_wave * bounces.length)
        for valid, path in zip(bounces.valid, paths):
            if valid.any():
                h += path
    return h.T  # (K, M)


def node_to_elements(
    env: Environment,
    node: RadioNode,
    panel: SurfacePanel,
    frequency_hz: float,
    panel_obstacles: Sequence[PanelObstacle] = (),
    apply_efficiency: bool = True,
) -> np.ndarray:
    """Incoming leg: node antennas → surface elements, shape ``(M, E)``.

    Carries the panel's redirection efficiency (incoming-leg
    convention) so each cascade applies it exactly once.
    """
    lam = wavelength(frequency_hz)
    k_wave = 2.0 * math.pi / lam
    ant = node.positions
    elems = panel.element_positions()
    dist = _pairwise_distances(ant, elems)
    safe = np.maximum(dist, _TINY)
    tx_amp = _pattern_amplitudes(ant, node.boresight, node.pattern, elems)
    elem_amp = _pattern_amplitudes(
        elems, panel.normal, panel.element_pattern(), ant
    ).T  # (M, E)
    pen = _pairwise_penetration(env, ant, elems, frequency_hz, panel_obstacles)
    eff = panel.spec.efficiency(frequency_hz) if apply_efficiency else 1.0
    return (
        (lam / (4.0 * math.pi * safe))
        * tx_amp
        * elem_amp
        * pen
        * eff
        * np.exp(-1j * k_wave * dist)
    )


def elements_to_points(
    env: Environment,
    panel: SurfacePanel,
    points: np.ndarray,
    frequency_hz: float,
    panel_obstacles: Sequence[PanelObstacle] = (),
) -> np.ndarray:
    """Outgoing leg: surface elements → receive points, shape ``(K, E)``."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    lam = wavelength(frequency_hz)
    k_wave = 2.0 * math.pi / lam
    elems = panel.element_positions()
    dist = _pairwise_distances(elems, points)  # (E, K)
    safe = np.maximum(dist, _TINY)
    elem_amp = _pattern_amplitudes(
        elems, panel.normal, panel.element_pattern(), points
    )
    pen = _pairwise_penetration(env, elems, points, frequency_hz, panel_obstacles)
    h = (
        (lam / (4.0 * math.pi * safe))
        * elem_amp
        * pen
        * np.exp(-1j * k_wave * dist)
    )
    return h.T  # (K, E)


def elements_to_elements(
    env: Environment,
    source: SurfacePanel,
    target: SurfacePanel,
    frequency_hz: float,
    panel_obstacles: Sequence[PanelObstacle] = (),
) -> np.ndarray:
    """Inter-surface leg: source elements → target elements.

    Shape ``(E_source, E_target)``.  Carries the *target* panel's
    efficiency (incoming-leg convention).  Penetration loss uses the
    panels' center-to-center segment for all pairs.
    """
    lam = wavelength(frequency_hz)
    k_wave = 2.0 * math.pi / lam
    src = source.element_positions()
    tgt = target.element_positions()
    dist = _pairwise_distances(src, tgt)
    safe = np.maximum(dist, _TINY)
    out_amp = _pattern_amplitudes(
        src, source.normal, source.element_pattern(), tgt
    )
    in_amp = _pattern_amplitudes(
        tgt, target.normal, target.element_pattern(), src
    ).T
    pen = float(
        segment_amplitude(
            env,
            source.center[None, :],
            target.center[None, :],
            frequency_hz,
            panel_obstacles,
        )[0]
    )
    eff = target.spec.efficiency(frequency_hz)
    return (
        (lam / (4.0 * math.pi * safe))
        * out_amp
        * in_amp
        * pen
        * eff
        * np.exp(-1j * k_wave * dist)
    )
