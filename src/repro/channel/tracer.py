"""Vectorized ray-model primitives.

Everything the channel builder needs reduces to two queries over many
point pairs at once:

* the *penetration amplitude* of every straight segment between two
  point sets (walls and boxes crossed), and
* first-order *specular reflection* paths between two points via the
  environment's reflective walls (image method).

Both run on the precompiled broadcast kernels in
:mod:`~repro.channel.geomkernels`: the environment's walls and boxes
are stacked into contiguous arrays once per
:attr:`Environment.version`, so a query over ``n`` segments is a single
``(n × n_obstacles)`` pass instead of a per-obstacle Python loop — a
single channel build evaluates hundreds of thousands of segments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..geometry.environment import Environment
from ..geometry.shapes import Wall
from ..geometry.vec import as_vec3
from ..surfaces.panel import SurfacePanel
from .geomkernels import PanelStack, compiled_geometry

_EPS = 1e-9


@dataclass(frozen=True)
class PanelObstacle:
    """A surface panel acting as a (thin rectangular) obstacle.

    Panels block signals that try to pass *through* them with the
    spec's through-loss — the §2.1 "unintended blocking" hazard.  Used
    for all legs that do not terminate on the panel itself.
    """

    panel: SurfacePanel

    def crossing_mask(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Which segments ``a[i]→b[i]`` cross the panel rectangle."""
        n = self.panel.normal
        c = self.panel.center
        u, v = self.panel.plane_axes()
        half_w = self.panel.width_m / 2.0
        half_h = self.panel.height_m / 2.0
        da = (a - c[None, :]) @ n
        db = (b - c[None, :]) @ n
        crosses_plane = (da * db) < -_EPS
        denom = np.where(np.abs(da - db) < _EPS, 1.0, da - db)
        t = da / denom
        hit = a + t[:, None] * (b - a)
        rel = hit - c[None, :]
        return (
            crosses_plane
            & (np.abs(rel @ u) <= half_w + _EPS)
            & (np.abs(rel @ v) <= half_h + _EPS)
        )

    def loss_db(self, frequency_hz: float) -> float:
        """Through-panel loss at a carrier."""
        return self.panel.spec.through_loss_db(frequency_hz)


def segment_loss_db(
    env: Environment,
    a: np.ndarray,
    b: np.ndarray,
    frequency_hz: float,
    panel_obstacles: Sequence[PanelObstacle] = (),
    exclude_walls: Sequence[Wall] = (),
) -> np.ndarray:
    """Total penetration loss (dB) for matched segment arrays.

    ``a`` and ``b`` are ``(n, 3)``; returns ``(n,)`` losses summing
    every wall, box, and panel obstacle each segment crosses.
    ``exclude_walls`` removes walls (e.g. the reflector of an image
    path) from consideration.
    """
    compiled = compiled_geometry(env)
    exclude = None
    if exclude_walls:
        # The same excluded walls for every segment: ``(n, k)``.
        indices = compiled.wall_indices(exclude_walls)
        exclude = np.broadcast_to(indices, (len(np.atleast_2d(a)), indices.size))
    panels = PanelStack(panel_obstacles) if panel_obstacles else None
    return compiled.segment_loss_db(a, b, frequency_hz, panels, exclude)


def segment_amplitude(
    env: Environment,
    a: np.ndarray,
    b: np.ndarray,
    frequency_hz: float,
    panel_obstacles: Sequence[PanelObstacle] = (),
    exclude_walls: Sequence[Wall] = (),
) -> np.ndarray:
    """Linear amplitude factor for matched segment arrays."""
    loss = segment_loss_db(
        env, a, b, frequency_hz, panel_obstacles, exclude_walls
    )
    return 10.0 ** (-loss / 20.0)


@dataclass(frozen=True)
class ReflectionPath:
    """One first-order specular bounce between two points.

    Attributes:
        wall: the reflecting wall.
        bounce_point: where the path hits the wall.
        total_length: geometric length of both legs (m).
        amplitude_factor: reflectivity × penetration of everything else
            crossed along both legs (linear amplitude).
    """

    wall: Wall
    bounce_point: np.ndarray
    total_length: float
    amplitude_factor: float


def reflection_paths(
    env: Environment,
    a: Sequence[float],
    b: Sequence[float],
    frequency_hz: float,
    panel_obstacles: Sequence[PanelObstacle] = (),
) -> List[ReflectionPath]:
    """All single-bounce wall reflections between two points.

    Image method: mirror ``a`` across each reflective wall, intersect
    the mirror→``b`` segment with the wall, and require the bounce
    point to lie on the wall rectangle.  The reflecting wall itself is
    excluded from the legs' penetration loss.
    """
    a3, b3 = as_vec3(a)[None, :], as_vec3(b)[None, :]
    compiled = compiled_geometry(env)
    panels = PanelStack(panel_obstacles) if panel_obstacles else None
    _, bounces = compiled.trace_pairs(a3, b3, frequency_hz, panels)
    return [
        ReflectionPath(
            wall=compiled.walls[index],
            bounce_point=bounces.bounce[w, 0, 0],
            total_length=float(bounces.length[w, 0, 0]),
            amplitude_factor=float(bounces.amplitude[w, 0, 0]),
        )
        for w, index in enumerate(bounces.walls)
        if bounces.valid[w, 0, 0]
    ]
