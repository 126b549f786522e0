"""Simulated wall clock for the SurfOS runtime."""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Tuple


class SimClock:
    """A monotonic simulated clock with scheduled callbacks."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._queue: List[Tuple[float, int, Callable[[], None]]] = []
        self._counter = itertools.count()

    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self._now

    def schedule(self, at: float, callback: Callable[[], None]) -> None:
        """Run a callback when the clock reaches ``at``."""
        if at < self._now:
            raise ValueError(f"cannot schedule in the past ({at} < {self._now})")
        heapq.heappush(self._queue, (at, next(self._counter), callback))

    def advance(self, dt: float) -> int:
        """Move time forward, firing due callbacks in order.

        Returns the number of callbacks fired.
        """
        if dt < 0:
            raise ValueError("time cannot move backwards")
        deadline = self._now + dt
        fired = 0
        while self._queue and self._queue[0][0] <= deadline:
            at, _, callback = heapq.heappop(self._queue)
            self._now = at
            callback()
            fired += 1
        self._now = deadline
        return fired

    def next_event_at(self):
        """Sim time of the earliest scheduled callback (None when idle).

        Event-driven drivers (``RequestPipeline.pump``, the load
        harness) advance straight to this instant instead of crawling a
        fixed tick grid — submissions and window deadlines then happen
        at their exact simulated times.
        """
        return self._queue[0][0] if self._queue else None

    def pending(self) -> int:
        """Callbacks still scheduled."""
        return len(self._queue)
