"""Pluggable, seeded mobility models.

Extracted from ``runtime.dynamics.Walker`` so every moving thing in a
scenario — obstacle humans, client endpoints, replayed measurement
campaigns — shares one tiny API:

* ``position()`` — current position (3-vector, never mutates state).
* ``step(dt)`` — advance the model ``dt`` seconds, return the new
  position.
* ``peek(dt)`` — what ``step(dt)`` *would* return, without advancing.

``peek`` is the speculation primitive behind leg prefetching: it runs
the identical deterministic arithmetic as the real next ``step`` on a
deep copy of the model (including any RNG state), so the predicted
position is **bit-identical** to the position the walker will actually
occupy.  The channel leg cache keys legs on a digest of the exact float
bytes of the point set — an approximate extrapolation would never hit;
a ``peek``-predicted one always can.

Models:

* :class:`WaypointWalker` — closed-loop (or one-way) waypoint walking
  with per-segment speeds and per-waypoint dwell pauses (doorway
  transitions are just waypoints placed in the doorway).
* :class:`RandomWalk` — seeded heading-jitter walk reflected inside an
  axis-aligned box.
* :class:`TraceReplay` — replays ``{"t": …, "pos": [x, y, z]}`` JSONL
  samples (the ``repro.load`` trace conventions, plus a position),
  piecewise-linearly interpolated.
"""

from __future__ import annotations

import copy
import json
import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.traces import iter_trace
from ..geometry.vec import as_vec3

__all__ = [
    "MobilityModel",
    "MobilityModelBase",
    "WaypointWalker",
    "RandomWalk",
    "TraceReplay",
    "read_mobility_trace",
    "write_mobility_trace",
]

try:  # pragma: no cover - Protocol is importable on 3.8+
    from typing import Protocol, runtime_checkable

    @runtime_checkable
    class MobilityModel(Protocol):
        """Anything that can walk: the pluggable mobility API."""

        def position(self) -> np.ndarray:  # pragma: no cover - protocol
            """Current position (3-vector); must not mutate state."""
            ...

        def step(self, dt: float) -> np.ndarray:  # pragma: no cover
            """Advance ``dt`` seconds and return the new position."""
            ...

        def peek(self, dt: float) -> np.ndarray:  # pragma: no cover
            """Predict ``step(dt)`` without advancing (bit-exact)."""
            ...

except ImportError:  # pragma: no cover - very old typing fallback
    MobilityModel = object  # type: ignore[assignment,misc]


class MobilityModelBase:
    """Shared ``peek`` implementation for concrete models.

    ``peek`` deep-copies the model (state *and* RNG) and steps the
    copy, so the prediction runs the exact float arithmetic the real
    step will — the prefetch determinism contract.
    """

    def position(self) -> np.ndarray:
        raise NotImplementedError

    def step(self, dt: float) -> np.ndarray:
        raise NotImplementedError

    def peek(self, dt: float) -> np.ndarray:
        ghost = copy.deepcopy(self)
        return ghost.step(dt)


def _check_dt(dt: float) -> float:
    if dt <= 0:
        raise ValueError("dt must be positive")
    return float(dt)


class WaypointWalker(MobilityModelBase):
    """Waypoint walking with per-segment speeds and dwell pauses.

    Args:
        waypoints: path vertices (2-D points get z=0; pass 3-D points
            for endpoints carried at device height).
        speed_mps: uniform speed used when ``speeds`` is omitted.
        speeds: optional per-segment speeds; one entry per leg
            (``len(waypoints)`` legs on a loop, one fewer one-way).
        pauses: optional dwell seconds applied on *arrival* at each
            waypoint (scalar broadcasts; per-waypoint sequence aligns
            with ``waypoints``).
        loop: walk the closed loop forever (default) or stop at the
            final waypoint.
    """

    def __init__(
        self,
        waypoints: Sequence[Sequence[float]],
        speed_mps: float = 1.2,
        speeds: Optional[Sequence[float]] = None,
        pauses: object = None,
        loop: bool = True,
    ):
        if len(waypoints) < 2:
            raise ValueError("walker needs at least two waypoints")
        self._points: List[np.ndarray] = [as_vec3(w) for w in waypoints]
        n = len(self._points)
        legs = n if loop else n - 1
        if speeds is None:
            if speed_mps <= 0:
                raise ValueError("walker speed must be positive")
            self._speeds = [float(speed_mps)] * legs
        else:
            if len(speeds) != legs:
                raise ValueError(
                    f"need {legs} per-segment speeds, got {len(speeds)}"
                )
            self._speeds = [float(s) for s in speeds]
            if any(s <= 0 for s in self._speeds):
                raise ValueError("walker speed must be positive")
        if pauses is None:
            self._pauses = [0.0] * n
        elif np.isscalar(pauses):
            if float(pauses) < 0:  # type: ignore[arg-type]
                raise ValueError("pause must be non-negative")
            self._pauses = [float(pauses)] * n  # type: ignore[arg-type]
        else:
            if len(pauses) != n:  # type: ignore[arg-type]
                raise ValueError(
                    f"need {n} per-waypoint pauses, got {len(pauses)}"  # type: ignore[arg-type]
                )
            self._pauses = [float(p) for p in pauses]  # type: ignore[union-attr]
            if any(p < 0 for p in self._pauses):
                raise ValueError("pause must be non-negative")
        self.loop = bool(loop)
        self._leg = 0
        self._progress = 0.0
        self._pause_left = 0.0
        self._done = False

    def _leg_len(self, leg: int) -> float:
        a = self._points[leg]
        b = self._points[(leg + 1) % len(self._points)]
        return float(np.linalg.norm(b - a))

    def position(self) -> np.ndarray:
        if self._done:
            return self._points[-1].copy()
        a = self._points[self._leg]
        b = self._points[(self._leg + 1) % len(self._points)]
        leg_len = self._leg_len(self._leg)
        t = min(self._progress / leg_len, 1.0) if leg_len > 0 else 1.0
        return a + (b - a) * t

    def step(self, dt: float) -> np.ndarray:
        t_left = _check_dt(dt)
        # A lap of zero-length legs with zero pauses consumes no time;
        # bail rather than spin (matches "standing still").
        spins = 0
        limit = 4 * len(self._points) + 8
        while t_left > 0 and not self._done:
            if self._pause_left > 0:
                used = min(self._pause_left, t_left)
                self._pause_left -= used
                t_left -= used
                continue
            leg_len = self._leg_len(self._leg)
            speed = self._speeds[self._leg]
            left_on_leg = leg_len - self._progress
            need = left_on_leg / speed
            if t_left < need:
                self._progress += speed * t_left
                t_left = 0.0
            else:
                t_left -= need
                arrived = (self._leg + 1) % len(self._points)
                self._pause_left = self._pauses[arrived]
                if not self.loop and arrived == len(self._points) - 1:
                    self._done = True
                    break
                self._leg = arrived
                self._progress = 0.0
                spins += 1
                if spins > limit and self._pause_left == 0.0:
                    break
        return self.position()


class RandomWalk(MobilityModelBase):
    """Seeded heading-jitter walk reflected inside a box.

    Each step perturbs the heading by a Gaussian draw scaled by
    ``sqrt(dt)`` and advances at constant speed; positions leaving the
    ``[lo, hi]`` xy box are mirrored back inside.  Height stays fixed
    at the start point's z.  Same seed + same step sequence → the
    identical path, and ``peek`` copies the Generator, so predictions
    match the actual next draw bit for bit.
    """

    def __init__(
        self,
        start: Sequence[float],
        lo: Sequence[float],
        hi: Sequence[float],
        speed_mps: float = 1.0,
        turn_std_rad: float = 0.8,
        seed: int = 0,
    ):
        if speed_mps <= 0:
            raise ValueError("walker speed must be positive")
        self._pos = as_vec3(start).astype(float)
        self._lo = as_vec3(lo).astype(float)
        self._hi = as_vec3(hi).astype(float)
        if np.any(self._hi[:2] <= self._lo[:2]):
            raise ValueError("random-walk bounds must have positive extent")
        self.speed_mps = float(speed_mps)
        self.turn_std_rad = float(turn_std_rad)
        self._rng = np.random.default_rng(seed)
        self._heading = float(self._rng.uniform(0.0, 2.0 * math.pi))

    def position(self) -> np.ndarray:
        return self._pos.copy()

    def step(self, dt: float) -> np.ndarray:
        dt = _check_dt(dt)
        self._heading += float(
            self._rng.normal(0.0, self.turn_std_rad) * math.sqrt(dt)
        )
        nxt = self._pos.copy()
        nxt[0] += math.cos(self._heading) * self.speed_mps * dt
        nxt[1] += math.sin(self._heading) * self.speed_mps * dt
        for axis in (0, 1):
            lo, hi = self._lo[axis], self._hi[axis]
            if nxt[axis] < lo:
                nxt[axis] = min(2.0 * lo - nxt[axis], hi)
                self._heading = (
                    math.pi - self._heading if axis == 0 else -self._heading
                )
            elif nxt[axis] > hi:
                nxt[axis] = max(2.0 * hi - nxt[axis], lo)
                self._heading = (
                    math.pi - self._heading if axis == 0 else -self._heading
                )
        self._pos = nxt
        return self._pos.copy()


class TraceReplay(MobilityModelBase):
    """Replays a recorded position trace (JSONL, load-style).

    Each line is ``{"t": <seconds>, "pos": [x, y, z]}`` with
    non-decreasing timestamps — the same file shape as
    ``repro.load``'s arrival traces, extended with a position.  The
    replayed position is the piecewise-linear interpolation at the
    model's local time; before the first sample it holds the first
    position, after the last it holds the last.
    """

    def __init__(self, path: str):
        samples = read_mobility_trace(path)
        self.path = path
        self._times = np.asarray([t for t, _ in samples], dtype=float)
        self._positions = np.vstack([pos for _, pos in samples])
        self._time = 0.0

    def position(self) -> np.ndarray:
        t = self._time
        times, pos = self._times, self._positions
        if t <= times[0]:
            return pos[0].copy()
        if t >= times[-1]:
            return pos[-1].copy()
        i = int(np.searchsorted(times, t, side="right")) - 1
        t0, t1 = times[i], times[i + 1]
        if t1 == t0:
            return pos[i + 1].copy()
        frac = (t - t0) / (t1 - t0)
        return pos[i] + (pos[i + 1] - pos[i]) * frac

    def step(self, dt: float) -> np.ndarray:
        self._time += _check_dt(dt)
        return self.position()


def write_mobility_trace(
    path: str, samples: Sequence[Tuple[float, Sequence[float]]]
) -> int:
    """Record ``(t, position)`` samples as a JSONL trace.

    Values are rounded to nanometer/nanosecond precision so the file
    round-trips bit-stably through JSON across platforms.
    """
    count = 0
    with open(path, "w") as fh:
        for t, pos in samples:
            record = {
                "t": round(float(t), 9),
                "pos": [round(float(v), 9) for v in as_vec3(pos)],
            }
            fh.write(json.dumps(record) + "\n")
            count += 1
    return count


def read_mobility_trace(path: str) -> List[Tuple[float, np.ndarray]]:
    """All ``(t, position)`` samples from a mobility trace (eager)."""
    return list(iter_trace(path, lambda record: as_vec3(record["pos"])))
