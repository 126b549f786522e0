"""Resource slices: the minimal scheduling unit (§3.2).

"The minimal resource scheduling unit assigned to a task would be a
slice of time, frequency, and space."  A :class:`ResourceSlice` is
exactly that triple on one surface: an element mask (space), a band
(frequency), and a time fraction (time).  Slices marked with a
``shared_group`` overlap deliberately — that is the paper's
configuration multiplexing, where one jointly-optimized configuration
serves several tasks at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..core.errors import AdmissionError, SchedulingError


@dataclass(frozen=True)
class ResourceSlice:
    """A (space, frequency, time) slice of one surface.

    Attributes:
        surface_id: which surface.
        element_mask: boolean mask over flat element indices (space).
        band_hz: ``(low, high)`` frequency interval.
        time_fraction: share of time the slice occupies, in (0, 1].
        shared_group: non-empty for configuration-multiplexed slices;
            slices in the same group may overlap freely because one
            joint configuration serves them all.
    """

    surface_id: str
    element_mask: np.ndarray
    band_hz: Tuple[float, float]
    time_fraction: float = 1.0
    shared_group: str = ""

    def __post_init__(self) -> None:
        mask = np.asarray(self.element_mask, dtype=bool).reshape(-1)
        object.__setattr__(self, "element_mask", mask)
        if not mask.any():
            raise SchedulingError("slice must cover at least one element")
        lo, hi = self.band_hz
        if not (0 < lo <= hi):
            raise SchedulingError(f"invalid band {self.band_hz}")
        if not (0.0 < self.time_fraction <= 1.0):
            raise SchedulingError("time_fraction must lie in (0, 1]")

    @property
    def num_elements(self) -> int:
        """Elements covered by this slice."""
        return int(self.element_mask.sum())

    def bands_overlap(self, other: "ResourceSlice") -> bool:
        """Whether the frequency intervals intersect."""
        lo1, hi1 = self.band_hz
        lo2, hi2 = other.band_hz
        return lo1 < hi2 and lo2 < hi1

    def space_overlaps(self, other: "ResourceSlice") -> bool:
        """Whether the element masks intersect."""
        if self.element_mask.size != other.element_mask.size:
            return False
        return bool(np.any(self.element_mask & other.element_mask))

    def conflicts_with(self, other: "ResourceSlice") -> bool:
        """Hard conflict test between two slices on the same surface.

        Slices conflict when they collide on all three axes — same
        surface, overlapping band, overlapping elements, and combined
        time shares exceeding unity — unless they belong to the same
        shared (configuration-multiplexed) group.
        """
        if self.surface_id != other.surface_id:
            return False
        if self.shared_group and self.shared_group == other.shared_group:
            return False
        if not self.bands_overlap(other):
            return False
        if not self.space_overlaps(other):
            return False
        return self.time_fraction + other.time_fraction > 1.0 + 1e-9


class SliceAllocator:
    """Tracks slice allocations per surface and admits/releases them."""

    def __init__(self) -> None:
        self._held: Dict[str, List[Tuple[str, ResourceSlice]]] = {}

    def held_slices(self, surface_id: str) -> List[ResourceSlice]:
        """Slices currently held on a surface."""
        return [s for _, s in self._held.get(surface_id, [])]

    def _overcommitted(
        self, requested: ResourceSlice
    ) -> List[Tuple[str, ResourceSlice]]:
        """Held slices that, together with the request, overcommit time.

        The time axis is a shared budget, not a pairwise property:
        three 0.5-time slices on the same elements/band overcommit even
        though each pair fits.  Accumulate the time fractions of every
        held slice colliding with the request in band and space (shared
        configuration-multiplexing groups are exempt); if the total
        with the request exceeds unity, all contributors block it.
        """
        contributors = []
        total = requested.time_fraction
        for task_id, held in self._held.get(requested.surface_id, []):
            if (
                requested.shared_group
                and requested.shared_group == held.shared_group
            ):
                continue
            if requested.bands_overlap(held) and requested.space_overlaps(
                held
            ):
                total += held.time_fraction
                contributors.append((task_id, held))
        if total > 1.0 + 1e-9:
            return contributors
        return []

    def can_allocate(self, requested: ResourceSlice) -> bool:
        """Whether a slice fits within the remaining capacity."""
        return not self._overcommitted(requested)

    def conflicting_tasks(self, requested: ResourceSlice) -> List[str]:
        """Task ids whose slices block a request (for preemption)."""
        return sorted({t for t, _ in self._overcommitted(requested)})

    def allocate(self, task_id: str, slices: List[ResourceSlice]) -> None:
        """Atomically allocate a slice set or raise :class:`AdmissionError`."""
        for requested in slices:
            if not self.can_allocate(requested):
                blockers = ", ".join(self.conflicting_tasks(requested))
                raise AdmissionError(
                    f"slice on {requested.surface_id} conflicts with "
                    f"tasks: {blockers}"
                )
        # Also check the requested slices against each other.
        for i, a in enumerate(slices):
            for b in slices[i + 1 :]:
                if a.conflicts_with(b):
                    raise AdmissionError(
                        "requested slices conflict with each other"
                    )
        for s in slices:
            self._held.setdefault(s.surface_id, []).append((task_id, s))

    def release(self, task_id: str) -> int:
        """Free every slice a task holds; returns the count."""
        released = 0
        for surface_id in list(self._held):
            before = len(self._held[surface_id])
            self._held[surface_id] = [
                (t, s) for t, s in self._held[surface_id] if t != task_id
            ]
            released += before - len(self._held[surface_id])
            if not self._held[surface_id]:
                del self._held[surface_id]
        return released

    def utilization(self, surface_id: str, num_elements: int) -> float:
        """Fraction of (element × time) capacity in use on a surface."""
        if num_elements <= 0:
            raise SchedulingError("num_elements must be positive")
        used = 0.0
        for s in self.held_slices(surface_id):
            used += s.num_elements * s.time_fraction
        return min(1.0, used / num_elements)
