"""Pluggable arrival models for the trace-driven load harness.

Every model is a seeded, lazily-evaluated generator of simulated
arrival timestamps: ``times()`` yields monotonically non-decreasing
floats, one per request, drawing randomness in fixed-size chunks from a
``numpy`` Generator so that a 10⁶-request stream neither materializes
an array per request nor the whole trace up front.  Two models built
with the same parameters and seed yield bit-identical streams — the
determinism tests and the byte-identical JSONL exports depend on it.

Models:

* :class:`PoissonArrivals` — homogeneous Poisson process (exponential
  gaps) at a constant rate.
* :class:`DiurnalArrivals` — inhomogeneous Poisson with a sinusoidal
  rate profile (the "day/night" load shape), generated by
  Lewis-Shedler thinning against the peak rate.
* :class:`FlashCrowdArrivals` — baseline Poisson with a multiplicative
  rate spike over a window (the flash crowd), also by thinning.
* :class:`TraceReplay` — replays timestamps recorded in a JSONL trace
  file (see :func:`write_trace`).
* :class:`BurstArrivals` — every request at t=0 (the coalescing
  stress case).

:func:`build_model` maps CLI-ish names + knobs onto instances.
"""

from __future__ import annotations

import itertools
import json
import math
from abc import ABC, abstractmethod
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import ServiceError
from ..core.traces import iter_trace

__all__ = [
    "ArrivalModel",
    "PoissonArrivals",
    "DiurnalArrivals",
    "FlashCrowdArrivals",
    "TraceReplay",
    "BurstArrivals",
    "build_model",
    "write_trace",
    "MODEL_NAMES",
]

#: Random draws per chunk — large enough to amortize numpy call
#: overhead at 10⁶ requests, small enough to stay cache-friendly.
CHUNK = 4096


class ArrivalModel(ABC):
    """A seeded generator of simulated arrival timestamps."""

    #: CLI name of the model (set per subclass).
    name: str = "base"

    def __init__(self, requests: int, seed: int = 0):
        if requests < 1:
            raise ServiceError("need at least one request")
        self.requests = int(requests)
        self.seed = int(seed)

    @abstractmethod
    def times(self) -> Iterator[float]:
        """Yield ``requests`` non-decreasing arrival times (seconds).

        Each call restarts the stream from the seed: calling twice
        yields the identical sequence.
        """

    def describe(self) -> Dict[str, object]:
        """Flat dict of the model's identity and knobs (JSON artifacts)."""
        return {"model": self.name, "requests": self.requests, "seed": self.seed}

    def __iter__(self) -> Iterator[float]:
        return self.times()


class PoissonArrivals(ArrivalModel):
    """Homogeneous Poisson process at ``rate_hz`` (first arrival at 0)."""

    name = "poisson"

    def __init__(self, requests: int, rate_hz: float, seed: int = 0):
        super().__init__(requests, seed)
        if rate_hz <= 0:
            raise ServiceError("rate_hz must be positive")
        self.rate_hz = float(rate_hz)

    def times(self) -> Iterator[float]:
        rng = np.random.default_rng(self.seed)
        now = 0.0
        emitted = 0
        first = True
        while emitted < self.requests:
            gaps = rng.exponential(1.0 / self.rate_hz, size=CHUNK)
            for gap in gaps:
                if first:
                    # Anchor the stream at t=0 (matches the pipeline
                    # benchmark's convention for comparable spans).
                    first = False
                else:
                    now += float(gap)
                yield now
                emitted += 1
                if emitted >= self.requests:
                    return

    def describe(self) -> Dict[str, object]:
        out = super().describe()
        out["rate_hz"] = self.rate_hz
        return out


class _ThinnedArrivals(ArrivalModel):
    """Inhomogeneous Poisson base via Lewis-Shedler thinning.

    Subclasses define ``peak_rate_hz`` and ``rate_at(t)``; candidates
    are drawn from a homogeneous process at the peak rate and kept with
    probability ``rate_at(t) / peak_rate_hz``.  Both the candidate gaps
    and the acceptance draws come from the one seeded generator, so the
    stream is reproducible bit for bit.
    """

    peak_rate_hz: float = 1.0

    def rate_at(self, t: float) -> float:  # pragma: no cover - abstract-ish
        raise NotImplementedError

    def times(self) -> Iterator[float]:
        rng = np.random.default_rng(self.seed)
        now = 0.0
        emitted = 0
        while emitted < self.requests:
            gaps = rng.exponential(1.0 / self.peak_rate_hz, size=CHUNK)
            accepts = rng.random(size=CHUNK)
            for gap, accept in zip(gaps, accepts):
                now += float(gap)
                if accept * self.peak_rate_hz <= self.rate_at(now):
                    yield now
                    emitted += 1
                    if emitted >= self.requests:
                        return


class DiurnalArrivals(_ThinnedArrivals):
    """Sinusoidally rate-modulated arrivals (the diurnal load shape).

    ``rate(t) = base_rate_hz * (1 + depth * sin(2πt / period_s))``,
    clipped at zero.  ``depth=1`` swings between 0 and twice the base
    rate over one period.
    """

    name = "diurnal"

    def __init__(
        self,
        requests: int,
        rate_hz: float,
        seed: int = 0,
        period_s: float = 120.0,
        depth: float = 0.8,
    ):
        super().__init__(requests, seed)
        if rate_hz <= 0:
            raise ServiceError("rate_hz must be positive")
        if not 0.0 <= depth <= 1.0:
            raise ServiceError("depth must be in [0, 1]")
        if period_s <= 0:
            raise ServiceError("period_s must be positive")
        self.rate_hz = float(rate_hz)
        self.period_s = float(period_s)
        self.depth = float(depth)
        self.peak_rate_hz = self.rate_hz * (1.0 + self.depth)

    def rate_at(self, t: float) -> float:
        phase = 2.0 * math.pi * t / self.period_s
        return max(0.0, self.rate_hz * (1.0 + self.depth * math.sin(phase)))

    def describe(self) -> Dict[str, object]:
        out = super().describe()
        out.update(
            rate_hz=self.rate_hz, period_s=self.period_s, depth=self.depth
        )
        return out


class FlashCrowdArrivals(_ThinnedArrivals):
    """Baseline Poisson with a multiplicative spike over one window.

    Outside ``[flash_at_s, flash_at_s + flash_duration_s)`` the rate is
    ``rate_hz``; inside it is ``rate_hz * multiplier`` — the flash
    crowd the adaptive coalescer must absorb without tanking the
    steady-state latency before and after.
    """

    name = "flash-crowd"

    def __init__(
        self,
        requests: int,
        rate_hz: float,
        seed: int = 0,
        flash_at_s: float = 10.0,
        flash_duration_s: float = 5.0,
        multiplier: float = 10.0,
    ):
        super().__init__(requests, seed)
        if rate_hz <= 0:
            raise ServiceError("rate_hz must be positive")
        if multiplier < 1.0:
            raise ServiceError("multiplier must be at least 1")
        if flash_at_s < 0 or flash_duration_s <= 0:
            raise ServiceError("flash window must be non-negative/positive")
        self.rate_hz = float(rate_hz)
        self.flash_at_s = float(flash_at_s)
        self.flash_duration_s = float(flash_duration_s)
        self.multiplier = float(multiplier)
        self.peak_rate_hz = self.rate_hz * self.multiplier

    def rate_at(self, t: float) -> float:
        end = self.flash_at_s + self.flash_duration_s
        if self.flash_at_s <= t < end:
            return self.peak_rate_hz
        return self.rate_hz

    def describe(self) -> Dict[str, object]:
        out = super().describe()
        out.update(
            rate_hz=self.rate_hz,
            flash_at_s=self.flash_at_s,
            flash_duration_s=self.flash_duration_s,
            multiplier=self.multiplier,
        )
        return out


class BurstArrivals(ArrivalModel):
    """Every request at t=0 — the maximal-coalescing stress case."""

    name = "burst"

    def times(self) -> Iterator[float]:
        for _ in range(self.requests):
            yield 0.0


class TraceReplay(ArrivalModel):
    """Replays arrival timestamps recorded in a JSONL trace file.

    Each line is ``{"t": <seconds>}``; extra keys are ignored.  The
    file is re-read on every ``times()`` call, streaming line by line —
    a million-line trace is never held in memory.
    """

    name = "trace"

    def __init__(self, path: str, requests: Optional[int] = None):
        total = sum(1 for _ in self._records(path))
        if requests is not None and requests > total:
            raise ServiceError(
                f"trace {path} has {total} arrivals, {requests} requested"
            )
        super().__init__(requests if requests is not None else total, seed=0)
        self.path = path

    @staticmethod
    def _records(path: str) -> Iterator[Tuple[float, None]]:
        return iter_trace(path, lambda record: None, what="arrival")

    def times(self) -> Iterator[float]:
        for t, _ in itertools.islice(self._records(self.path), self.requests):
            yield t

    def describe(self) -> Dict[str, object]:
        out = super().describe()
        out["path"] = self.path
        return out


def write_trace(path: str, times: Sequence[float]) -> int:
    """Record arrival times as a JSONL trace; returns the line count.

    Timestamps are rounded to nanoseconds so the file round-trips
    bit-stably through JSON across platforms.
    """
    count = 0
    with open(path, "w") as fh:
        for t in times:
            fh.write(json.dumps({"t": round(float(t), 9)}) + "\n")
            count += 1
    return count


#: CLI model names → constructor logic in :func:`build_model`.
MODEL_NAMES = ("poisson", "diurnal", "flash-crowd", "burst", "trace")


def build_model(
    name: str,
    requests: int,
    rate_hz: float = 2.0,
    seed: int = 0,
    trace: Optional[str] = None,
    **knobs,
) -> ArrivalModel:
    """Build an arrival model from CLI-ish knobs.

    ``knobs`` passes model-specific parameters through (``period_s``,
    ``depth``, ``flash_at_s``, ``flash_duration_s``, ``multiplier``).
    ``None`` values and knobs the chosen model does not take are
    dropped, so CLI callers can forward every flag unconditionally.
    """
    knobs = {k: v for k, v in knobs.items() if v is not None}

    def _pick(*names: str) -> Dict[str, float]:
        return {k: knobs[k] for k in names if k in knobs}

    if name == "poisson":
        return PoissonArrivals(requests, rate_hz=rate_hz, seed=seed)
    if name == "diurnal":
        return DiurnalArrivals(
            requests,
            rate_hz=rate_hz,
            seed=seed,
            **_pick("period_s", "depth"),
        )
    if name == "flash-crowd":
        return FlashCrowdArrivals(
            requests,
            rate_hz=rate_hz,
            seed=seed,
            **_pick("flash_at_s", "flash_duration_s", "multiplier"),
        )
    if name == "burst":
        return BurstArrivals(requests, seed=seed)
    if name == "trace":
        if not trace:
            raise ServiceError("trace model needs a trace file (--trace)")
        return TraceReplay(trace, requests=requests)
    raise ServiceError(
        f"unknown arrival model {name!r} (choose from {MODEL_NAMES})"
    )
