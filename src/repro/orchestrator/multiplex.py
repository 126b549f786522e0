"""Multiplexing strategies: how tasks share surfaces (§3.2).

Four dimensions, straight from the paper:

* **Time division** — surfaces switch between per-task configurations;
  each task gets a fraction of time on the full surface.
* **Frequency division** — tasks operate on distinct bands
  simultaneously (surfaces are frequency-selective).
* **Space division** — a large surface is spatially partitioned;
  element groups are assigned by proximity/channel strength.
* **Configuration multiplexing (joint)** — the new dimension the paper
  highlights: multiple tasks share the *same* full-surface slice, and a
  single jointly-optimized configuration serves all of them.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import SchedulingError
from ..surfaces.panel import SurfacePanel
from .slices import ResourceSlice
from .tasks import ServiceTask


class MultiplexStrategy(enum.Enum):
    """How a task's slices are carved out of the surfaces."""

    TIME = "time"
    FREQUENCY = "frequency"
    SPACE = "space"
    JOINT = "joint"


def _full_mask(panel: SurfacePanel) -> np.ndarray:
    return np.ones(panel.num_elements, dtype=bool)


def time_division_slices(
    task: ServiceTask,
    panels: Sequence[SurfacePanel],
    time_fraction: float,
) -> List[ResourceSlice]:
    """Full surface and band, a fraction of time."""
    if not panels:
        raise SchedulingError("no panels to slice")
    return [
        ResourceSlice(
            surface_id=p.panel_id,
            element_mask=_full_mask(p),
            band_hz=p.spec.band_hz,
            time_fraction=time_fraction,
        )
        for p in panels
    ]


def frequency_division_slices(
    task: ServiceTask,
    panels: Sequence[SurfacePanel],
    band_hz: Tuple[float, float],
) -> List[ResourceSlice]:
    """Full surface and time, a sub-band of the hardware's band."""
    out = []
    for p in panels:
        lo, hi = band_hz
        hw_lo, hw_hi = p.spec.band_hz
        if lo < hw_lo or hi > hw_hi:
            raise SchedulingError(
                f"band {band_hz} exceeds {p.panel_id}'s hardware band "
                f"{p.spec.band_hz}"
            )
        out.append(
            ResourceSlice(
                surface_id=p.panel_id,
                element_mask=_full_mask(p),
                band_hz=band_hz,
                time_fraction=1.0,
            )
        )
    return out


def space_division_slices(
    task: ServiceTask,
    panels: Sequence[SurfacePanel],
    target_points: np.ndarray,
    fraction: float = 0.5,
) -> List[ResourceSlice]:
    """A spatially contiguous element group per surface.

    Elements are ranked by proximity to the task's target points (the
    paper: "spatially grouped by tasks, according to proximity to ...
    targeted devices") and the nearest ``fraction`` are taken.
    """
    if not (0.0 < fraction <= 1.0):
        raise SchedulingError("fraction must lie in (0, 1]")
    targets = np.atleast_2d(np.asarray(target_points, dtype=float))
    out = []
    for p in panels:
        elems = p.element_positions()
        dists = np.min(
            np.linalg.norm(elems[:, None, :] - targets[None, :, :], axis=2),
            axis=1,
        )
        keep = max(1, int(round(fraction * elems.shape[0])))
        threshold = np.partition(dists, keep - 1)[keep - 1]
        mask = dists <= threshold
        out.append(
            ResourceSlice(
                surface_id=p.panel_id,
                element_mask=mask,
                band_hz=p.spec.band_hz,
                time_fraction=1.0,
            )
        )
    return out


def joint_slices(
    task: ServiceTask,
    panels: Sequence[SurfacePanel],
    group: str,
    time_fraction: float = 1.0,
) -> List[ResourceSlice]:
    """Full-surface shared slices for configuration multiplexing.

    Every task in ``group`` holds an identical overlapping slice; the
    orchestrator optimizes one configuration for their joint objective.
    ``time_fraction < 1`` leaves time-axis headroom so the joint group
    can coexist with time-division tasks.
    """
    if not group:
        raise SchedulingError("joint multiplexing needs a group name")
    return [
        ResourceSlice(
            surface_id=p.panel_id,
            element_mask=_full_mask(p),
            band_hz=p.spec.band_hz,
            time_fraction=time_fraction,
            shared_group=group,
        )
        for p in panels
    ]


def propose_slices(
    task: ServiceTask,
    panels: Sequence[SurfacePanel],
    strategy: MultiplexStrategy,
    *,
    time_fraction: Optional[float] = None,
    band_hz: Optional[Tuple[float, float]] = None,
    target_points: Optional[np.ndarray] = None,
    space_fraction: float = 0.5,
    shared_group: str = "",
) -> List[ResourceSlice]:
    """Dispatch to the right strategy with validated arguments.

    ``time_fraction`` defaults per strategy: 0.5 for time division
    (two-way sharing), 1.0 for the other strategies.
    """
    if strategy is MultiplexStrategy.TIME:
        return time_division_slices(
            task, panels, time_fraction if time_fraction is not None else 0.5
        )
    if strategy is MultiplexStrategy.FREQUENCY:
        if band_hz is None:
            raise SchedulingError("frequency multiplexing needs band_hz")
        return frequency_division_slices(task, panels, band_hz)
    if strategy is MultiplexStrategy.SPACE:
        if target_points is None:
            raise SchedulingError("space multiplexing needs target_points")
        return space_division_slices(
            task, panels, target_points, fraction=space_fraction
        )
    if strategy is MultiplexStrategy.JOINT:
        return joint_slices(
            task,
            panels,
            shared_group or task.service.value,
            time_fraction=time_fraction if time_fraction is not None else 1.0,
        )
    raise SchedulingError(f"unknown strategy {strategy}")
