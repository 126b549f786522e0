"""Small 3-D vector helpers.

Points and directions are plain ``numpy`` arrays of shape ``(3,)``;
these helpers keep construction and the handful of common operations
explicit and validated rather than scattering ad-hoc array math around
the codebase.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, Union

import numpy as np

Vec3Like = Union[Sequence[float], np.ndarray]


def vec3(x: float, y: float, z: float = 0.0) -> np.ndarray:
    """Build a 3-D point/direction as a float ndarray."""
    return np.array([x, y, z], dtype=float)


def as_vec3(value: Vec3Like) -> np.ndarray:
    """Coerce a 2- or 3-sequence to a 3-D ndarray (z defaults to 0)."""
    arr = np.asarray(value, dtype=float).reshape(-1)
    if arr.size == 2:
        return np.array([arr[0], arr[1], 0.0])
    if arr.size == 3:
        return arr.copy()
    raise ValueError(f"expected 2 or 3 components, got {arr.size}")


def norm(v: Vec3Like) -> float:
    """Euclidean length of a vector."""
    return float(np.linalg.norm(as_vec3(v)))


def normalize(v: Vec3Like) -> np.ndarray:
    """Unit vector in the direction of ``v``."""
    arr = as_vec3(v)
    length = np.linalg.norm(arr)
    if length == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return arr / length


def dot(a: Vec3Like, b: Vec3Like) -> float:
    """Dot product."""
    return float(np.dot(as_vec3(a), as_vec3(b)))


def cross(a: Vec3Like, b: Vec3Like) -> np.ndarray:
    """Cross product."""
    return np.cross(as_vec3(a), as_vec3(b))


def centroid(points: Iterable[Vec3Like]) -> np.ndarray:
    """Mean point of a non-empty collection."""
    pts = [as_vec3(p) for p in points]
    if not pts:
        raise ValueError("centroid of empty point set")
    return np.mean(np.stack(pts), axis=0)
