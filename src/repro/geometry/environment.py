"""The 3-D environment model consumed by the channel simulator.

An :class:`Environment` is a set of walls, box obstacles, and named
rooms.  It answers the only questions the ray model asks:

* what penetration loss does a straight segment accumulate,
* is there line of sight between two points,
* which walls can host a first-order specular reflection.

Obstacles split into *static* (furniture that is part of the floor
plan) and *dynamic* (humans, movable furniture) so the runtime layer
can mutate the latter; every mutation bumps :attr:`Environment.version`
so channel caches know to invalidate.

Mutations additionally record *which region of space changed* (an
axis-aligned bounding box) in a bounded dirty log, so incremental
consumers — the channel simulator's per-leg cache — can purge only the
cached results whose ray corridors intersect a changed region instead
of re-tracing the world.  :meth:`Environment.dirty_regions` replays the
log between two versions; it returns ``None`` whenever the log cannot
prove the change set (rotated-out entries, or a mutation recorded
without a region), which consumers must treat as "everything changed".
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .materials import Material
from .shapes import Box, Room, Wall
from .vec import as_vec3

#: AABB of one mutated region: ``(lo, hi)`` corners.
DirtyRegion = Tuple[np.ndarray, np.ndarray]

#: Bound on the dirty log; older mutations rotate out and force a full
#: purge in consumers that fell that far behind.
_DIRTY_LOG_LEN = 256


def _wall_aabb(wall: Wall) -> DirtyRegion:
    footprint = np.stack([wall.start, wall.end])
    lo = footprint.min(axis=0)
    hi = footprint.max(axis=0)
    lo[2] = wall.z_min
    hi[2] = wall.z_max
    return lo, hi


def _box_aabb(box: Box) -> DirtyRegion:
    return np.array(box.lo, dtype=float), np.array(box.hi, dtype=float)


def _union_aabb(a: DirtyRegion, b: DirtyRegion) -> DirtyRegion:
    return np.minimum(a[0], b[0]), np.maximum(a[1], b[1])


class Environment:
    """Walls + obstacles + rooms making up one radio environment.

    Attributes:
        name: label for diagnostics.
        ceiling_height: default wall height used by convenience adders.
    """

    def __init__(self, name: str = "environment", ceiling_height: float = 3.0):
        self.name = name
        self.ceiling_height = ceiling_height
        self._walls: List[Wall] = []
        self._static_boxes: List[Box] = []
        self._dynamic_boxes: Dict[str, Box] = {}
        self._rooms: Dict[str, Room] = {}
        self._version = 0
        self._dirty_log: Deque[Tuple[int, Optional[DirtyRegion]]] = deque(
            maxlen=_DIRTY_LOG_LEN
        )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic counter bumped on every geometry mutation."""
        return self._version

    def record_mutation(self, region: Optional[DirtyRegion] = None) -> int:
        """Bump :attr:`version`, attributing the change to ``region``.

        Every built-in mutator calls this with the AABB it touched;
        external code that mutates geometry it handed to the
        environment (e.g. editing a wall in place) must call it too —
        without a region, which makes incremental caches fall back to
        a full purge.  Returns the new version.
        """
        self._version += 1
        self._dirty_log.append((self._version, region))
        return self._version

    def dirty_regions(self, since_version: int) -> Optional[List[DirtyRegion]]:
        """The regions mutated after ``since_version``, if provable.

        Returns a (possibly empty) list of AABBs covering every
        mutation in ``(since_version, version]``, or ``None`` when the
        log cannot account for all of them — entries rotated out of the
        bounded log, ``since_version`` from the future, or any mutation
        recorded without a region.  ``None`` means "assume everything
        changed".
        """
        if since_version == self._version:
            return []
        if since_version > self._version:
            return None
        covered = [v for v, _ in self._dirty_log if v > since_version]
        if len(covered) != self._version - since_version:
            return None  # log rotation left a gap
        regions: List[DirtyRegion] = []
        for v, region in self._dirty_log:
            if v <= since_version:
                continue
            if region is None:
                return None  # unattributed mutation
            regions.append(region)
        return regions

    def add_wall(self, wall: Wall) -> Wall:
        """Add a wall and return it."""
        self._walls.append(wall)
        self.record_mutation(_wall_aabb(wall))
        return wall

    def add_wall_2d(
        self,
        start: Sequence[float],
        end: Sequence[float],
        material: Material,
        name: str = "",
        z_min: float = 0.0,
        z_max: Optional[float] = None,
    ) -> Wall:
        """Convenience: add a floor-to-ceiling wall from 2-D endpoints."""
        wall = Wall(
            start=as_vec3(start),
            end=as_vec3(end),
            material=material,
            z_min=z_min,
            z_max=self.ceiling_height if z_max is None else z_max,
            name=name,
        )
        return self.add_wall(wall)

    def add_box(self, box: Box) -> Box:
        """Add a static obstacle."""
        self._static_boxes.append(box)
        self.record_mutation(_box_aabb(box))
        return box

    def add_dynamic_box(self, key: str, box: Box) -> Box:
        """Add or replace a movable obstacle under a stable key."""
        region = _box_aabb(box)
        old = self._dynamic_boxes.get(key)
        if old is not None:
            region = _union_aabb(region, _box_aabb(old))
        self._dynamic_boxes[key] = box
        self.record_mutation(region)
        return box

    def move_dynamic_box(self, key: str, offset: Sequence[float]) -> Box:
        """Translate a movable obstacle; returns the new box."""
        if key not in self._dynamic_boxes:
            raise KeyError(f"no dynamic obstacle named {key!r}")
        old = self._dynamic_boxes[key]
        moved = old.translated(as_vec3(offset))
        self._dynamic_boxes[key] = moved
        self.record_mutation(_union_aabb(_box_aabb(old), _box_aabb(moved)))
        return moved

    def remove_dynamic_box(self, key: str) -> None:
        """Remove a movable obstacle."""
        if key not in self._dynamic_boxes:
            raise KeyError(f"no dynamic obstacle named {key!r}")
        old = self._dynamic_boxes.pop(key)
        self.record_mutation(_box_aabb(old))

    def add_room(self, room: Room) -> Room:
        """Register a named room region."""
        if room.name in self._rooms:
            raise ValueError(f"room {room.name!r} already defined")
        self._rooms[room.name] = room
        return room

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def walls(self) -> Tuple[Wall, ...]:
        """All walls."""
        return tuple(self._walls)

    @property
    def boxes(self) -> Tuple[Box, ...]:
        """All obstacles, static then dynamic."""
        return tuple(self._static_boxes) + tuple(self._dynamic_boxes.values())

    @property
    def rooms(self) -> Dict[str, Room]:
        """Registered rooms by name."""
        return dict(self._rooms)

    def room(self, name: str) -> Room:
        """Look up a room by name."""
        try:
            return self._rooms[name]
        except KeyError:
            known = ", ".join(sorted(self._rooms)) or "(none)"
            raise KeyError(f"unknown room {name!r}; known: {known}") from None

    def obstructions_on_segment(
        self, a: Sequence[float], b: Sequence[float]
    ) -> List[Material]:
        """Materials of every wall/box the open segment ``a→b`` crosses."""
        a3, b3 = as_vec3(a), as_vec3(b)
        hit: List[Material] = []
        for wall in self._walls:
            if wall.intersect_segment(a3, b3) is not None:
                hit.append(wall.material)
        for box in self.boxes:
            if box.intersects_segment(a3, b3):
                hit.append(box.material)
        return hit

    def penetration_loss_db(
        self, a: Sequence[float], b: Sequence[float], frequency_hz: float
    ) -> float:
        """Total one-way penetration loss (dB) along segment ``a→b``."""
        return sum(
            m.penetration_loss_db(frequency_hz)
            for m in self.obstructions_on_segment(a, b)
        )

    def penetration_amplitude(
        self, a: Sequence[float], b: Sequence[float], frequency_hz: float
    ) -> float:
        """Linear amplitude factor for all obstructions along ``a→b``."""
        return 10.0 ** (-self.penetration_loss_db(a, b, frequency_hz) / 20.0)

    def is_line_of_sight(self, a: Sequence[float], b: Sequence[float]) -> bool:
        """True when no wall or obstacle crosses the open segment."""
        return not self.obstructions_on_segment(a, b)

    def reflective_walls(self, min_reflectivity: float = 0.05) -> List[Wall]:
        """Walls worth considering for specular bounce paths."""
        return [w for w in self._walls if w.material.reflectivity >= min_reflectivity]

    def bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """Axis-aligned bounds covering every wall footprint."""
        if not self._walls:
            raise ValueError("environment has no walls")
        pts = np.concatenate(
            [np.stack([w.start, w.end]) for w in self._walls], axis=0
        )
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        hi[2] = max(hi[2], self.ceiling_height)
        return lo, hi

    def summary(self) -> str:
        """One-line human-readable description."""
        return (
            f"Environment({self.name!r}: {len(self._walls)} walls, "
            f"{len(self._static_boxes)} static + {len(self._dynamic_boxes)} "
            f"dynamic obstacles, rooms: {sorted(self._rooms) or '-'})"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.summary()


def describe_obstructions(
    env: Environment, a: Sequence[float], b: Sequence[float]
) -> str:
    """Human-readable obstruction list for diagnostics tooling."""
    mats = env.obstructions_on_segment(a, b)
    if not mats:
        return "line of sight"
    names = ", ".join(m.name for m in mats)
    return f"blocked by: {names}"
