"""Geometric primitives for the indoor environment model.

Walls are vertical rectangles standing on a 2-D footprint segment (the
usual representation for floor plans); obstacles (furniture, humans) are
axis-aligned boxes.  Both support segment-intersection tests, which is
all the ray model needs: a radio path is a polyline of straight
segments, and each segment collects the penetration losses of whatever
it crosses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .materials import Material
from .vec import as_vec3, vec3

_EPS = 1e-9


@dataclass(frozen=True)
class Wall:
    """A vertical rectangular wall over a 2-D footprint segment.

    Attributes:
        start: one footprint endpoint ``(x, y)`` (z ignored).
        end: the other footprint endpoint.
        material: radio material of the wall.
        z_min: bottom height of the wall (m).
        z_max: top height of the wall (m).
        name: optional label for diagnostics.
    """

    start: np.ndarray
    end: np.ndarray
    material: Material
    z_min: float = 0.0
    z_max: float = 3.0
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", as_vec3(self.start))
        object.__setattr__(self, "end", as_vec3(self.end))
        if self.z_max <= self.z_min:
            raise ValueError("wall z_max must exceed z_min")
        if np.allclose(self.start[:2], self.end[:2]):
            raise ValueError("wall footprint endpoints coincide")

    @property
    def length(self) -> float:
        """Footprint length (m)."""
        return float(np.linalg.norm(self.end[:2] - self.start[:2]))

    def normal2d(self) -> np.ndarray:
        """A unit normal of the footprint line, in the xy-plane."""
        d = self.end[:2] - self.start[:2]
        n = np.array([-d[1], d[0], 0.0])
        return n / np.linalg.norm(n)

    def intersect_segment(
        self, a: np.ndarray, b: np.ndarray
    ) -> Optional[np.ndarray]:
        """Crossing point of segment ``a→b`` with this wall, if any.

        Returns the 3-D intersection point, or ``None`` when the
        segment misses the wall rectangle.  Grazing contacts at the
        very endpoints of the segment are ignored so that a device
        mounted *on* a wall is not considered blocked by it.
        """
        a, b = as_vec3(a), as_vec3(b)
        p, q = self.start[:2], self.end[:2]
        r = b[:2] - a[:2]
        s = q - p
        denom = r[0] * s[1] - r[1] * s[0]
        if abs(denom) < _EPS:
            return None  # parallel in plan view
        ap = p - a[:2]
        t = (ap[0] * s[1] - ap[1] * s[0]) / denom
        u = (ap[0] * r[1] - ap[1] * r[0]) / denom
        if not (_EPS < t < 1.0 - _EPS):
            return None
        if not (-_EPS <= u <= 1.0 + _EPS):
            return None
        z = a[2] + t * (b[2] - a[2])
        if not (self.z_min - _EPS <= z <= self.z_max + _EPS):
            return None
        xy = a[:2] + t * r
        return vec3(xy[0], xy[1], z)

    def mirror_point(self, point: np.ndarray) -> np.ndarray:
        """Mirror a point across the wall's vertical plane.

        Used by the image method for first-order specular reflections:
        the reflected path Tx→wall→Rx has the same length as the
        straight line from the mirrored Tx to Rx.
        """
        point = as_vec3(point)
        p = self.start[:2]
        n = self.normal2d()[:2]
        dist = float(np.dot(point[:2] - p, n))
        mirrored_xy = point[:2] - 2.0 * dist * n
        return vec3(mirrored_xy[0], mirrored_xy[1], point[2])

    def contains_footprint_point(self, point: np.ndarray) -> bool:
        """Whether a point's xy lies on the footprint segment (with z in range)."""
        point = as_vec3(point)
        p, q = self.start[:2], self.end[:2]
        d = q - p
        length2 = float(np.dot(d, d))
        t = float(np.dot(point[:2] - p, d)) / length2
        if not (-_EPS <= t <= 1.0 + _EPS):
            return False
        closest = p + t * d
        if np.linalg.norm(point[:2] - closest) > 1e-6:
            return False
        return self.z_min - _EPS <= point[2] <= self.z_max + _EPS


@dataclass(frozen=True)
class Box:
    """An axis-aligned box obstacle (furniture, appliance, human).

    Attributes:
        lo: minimum corner ``(x, y, z)``.
        hi: maximum corner ``(x, y, z)``.
        material: radio material of the obstacle.
        name: optional label for diagnostics.
    """

    lo: np.ndarray
    hi: np.ndarray
    material: Material
    name: str = ""

    def __post_init__(self) -> None:
        lo, hi = as_vec3(self.lo), as_vec3(self.hi)
        if np.any(hi <= lo):
            raise ValueError("box hi corner must strictly exceed lo corner")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def center(self) -> np.ndarray:
        """Geometric center of the box."""
        return (self.lo + self.hi) / 2.0

    def translated(self, offset: np.ndarray) -> "Box":
        """A copy moved by ``offset`` (used by dynamics events)."""
        off = as_vec3(offset)
        return Box(self.lo + off, self.hi + off, self.material, self.name)

    def contains(self, point: np.ndarray) -> bool:
        """Whether the point lies inside (or on) the box."""
        p = as_vec3(point)
        return bool(np.all(p >= self.lo - _EPS) and np.all(p <= self.hi + _EPS))

    def intersects_segment(self, a: np.ndarray, b: np.ndarray) -> bool:
        """Slab test: does segment ``a→b`` pass through the box?

        Endpoint grazing is ignored, matching :meth:`Wall.intersect_segment`.
        """
        a, b = as_vec3(a), as_vec3(b)
        d = b - a
        t_enter, t_exit = 0.0, 1.0
        for axis in range(3):
            if abs(d[axis]) < _EPS:
                if a[axis] < self.lo[axis] - _EPS or a[axis] > self.hi[axis] + _EPS:
                    return False
                continue
            t1 = (self.lo[axis] - a[axis]) / d[axis]
            t2 = (self.hi[axis] - a[axis]) / d[axis]
            if t1 > t2:
                t1, t2 = t2, t1
            t_enter = max(t_enter, t1)
            t_exit = min(t_exit, t2)
            if t_enter - t_exit > -_EPS:
                return False
        return _EPS < t_exit and t_enter < 1.0 - _EPS


@dataclass(frozen=True)
class Room:
    """A named rectangular region of the floor plan (for queries/grids).

    Attributes:
        name: room label, e.g. ``"bedroom"``.
        x_min, x_max, y_min, y_max: footprint bounds (m).
        z_floor: floor elevation (m) — 0 for ground-floor rooms;
            upper storeys of a multi-floor scene set it so grids and
            heights resolve relative to *their* floor.
    """

    name: str
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    z_floor: float = 0.0

    def __post_init__(self) -> None:
        if self.x_max <= self.x_min or self.y_max <= self.y_min:
            raise ValueError(f"room {self.name!r} has empty extent")

    @property
    def area(self) -> float:
        """Footprint area (m^2)."""
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)

    @property
    def center(self) -> np.ndarray:
        """Footprint center at z=0."""
        return vec3(
            (self.x_min + self.x_max) / 2.0, (self.y_min + self.y_max) / 2.0
        )

    def contains(self, point: np.ndarray, margin: float = 0.0) -> bool:
        """Whether a point's xy lies inside the room, shrunk by ``margin``."""
        p = as_vec3(point)
        return (
            self.x_min + margin <= p[0] <= self.x_max - margin
            and self.y_min + margin <= p[1] <= self.y_max - margin
        )

    def grid(self, spacing: float, z: float = 1.0, margin: float = 0.3) -> np.ndarray:
        """Regular grid of sample points inside the room at height ``z``.

        Returns an ``(n, 3)`` array.  ``margin`` keeps points off the
        walls, where the field model is least meaningful.  ``z`` is
        measured above the room's own floor (``z_floor``), so callers
        asking for "device height" get it on every storey.
        """
        if spacing <= 0:
            raise ValueError("grid spacing must be positive")
        xs = np.arange(self.x_min + margin, self.x_max - margin + _EPS, spacing)
        ys = np.arange(self.y_min + margin, self.y_max - margin + _EPS, spacing)
        if xs.size == 0 or ys.size == 0:
            raise ValueError(f"room {self.name!r} too small for margin {margin}")
        gx, gy = np.meshgrid(xs, ys)
        height = self.z_floor + float(z)
        pts = np.stack([gx.ravel(), gy.ravel(), np.full(gx.size, height)], axis=1)
        return pts
