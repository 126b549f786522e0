"""Streaming metric collectors for the load harness.

A 10⁶-request run cannot keep per-request records; every collector here
is O(1) per observation and O(buckets) in memory, built on
:class:`~repro.telemetry.StreamingHistogram` (fixed-bucket quantile
sketches: percentile error is bounded by one bucket width).

Collectors:

* :class:`LatencyCollector` — submit→served latency, overall and per
  :class:`~repro.pipeline.PriorityClass`.
* :class:`SatisfactionCollector` — served / rejected / unserved counts
  per class; ``rate`` is the fraction of submitted requests that were
  actually served.
* :class:`QueueDepthCollector` — queue depth sampled at every arrival.

:class:`CollectorSet` bundles the three and fans events out.  Solve
count, absorbed triggers and chosen coalescing windows are the counters
of the harness's :class:`~repro.pipeline.coalesce.CoalescingCore`,
which the set reports beside the summed modeled solve cost.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..pipeline.coalesce import CoalescingCore
from ..pipeline.queue import PriorityClass
from ..telemetry import Telemetry
from ..telemetry.histogram import StreamingHistogram

__all__ = [
    "LatencyCollector",
    "SatisfactionCollector",
    "QueueDepthCollector",
    "CollectorSet",
]

#: Latency histogram grid: 1 ms buckets to ~8 s, overflow beyond.
LATENCY_BUCKET_S = 0.001
LATENCY_BUCKETS = 8192


def _class_label(pclass: PriorityClass) -> str:
    return pclass.name.lower()


class LatencyCollector:
    """Submit→served latency percentiles, overall and per class."""

    def __init__(
        self,
        bucket_width: float = LATENCY_BUCKET_S,
        buckets: int = LATENCY_BUCKETS,
    ):
        self.overall = StreamingHistogram(bucket_width, buckets)
        self.by_class: Dict[PriorityClass, StreamingHistogram] = {
            pclass: StreamingHistogram(bucket_width, buckets)
            for pclass in PriorityClass
        }

    def observe(self, pclass: PriorityClass, latency_s: float) -> None:
        self.overall.observe(latency_s)
        self.by_class[pclass].observe(latency_s)

    def p99(self, pclass: Optional[PriorityClass] = None) -> float:
        hist = self.overall if pclass is None else self.by_class[pclass]
        return hist.percentile(99.0)

    def summary(self) -> Dict[str, object]:
        out: Dict[str, object] = dict(self.overall.as_dict("latency_s."))
        for pclass, hist in self.by_class.items():
            if hist.count:
                prefix = f"latency_s.{_class_label(pclass)}."
                out.update(hist.as_dict(prefix))
        return out


class SatisfactionCollector:
    """How many submitted requests actually got served.

    ``rate`` counts a request as satisfied only when it was admitted
    and served within the run horizon — rejections (backpressure) and
    requests still in flight at the end both count against it.
    """

    def __init__(self):
        self.submitted = 0
        self.rejected = 0
        self.served: Dict[PriorityClass, int] = {
            pclass: 0 for pclass in PriorityClass
        }

    def observe_submitted(self) -> None:
        self.submitted += 1

    def observe_rejected(self) -> None:
        self.rejected += 1

    def observe_served(self, pclass: PriorityClass) -> None:
        self.served[pclass] += 1

    @property
    def total_served(self) -> int:
        return sum(self.served.values())

    @property
    def rate(self) -> float:
        if not self.submitted:
            return 0.0
        return self.total_served / self.submitted

    def summary(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "submitted": self.submitted,
            "rejected": self.rejected,
            "served": self.total_served,
            "satisfaction": round(self.rate, 6),
        }
        for pclass, count in self.served.items():
            if count:
                out[f"served.{_class_label(pclass)}"] = count
        return out


class QueueDepthCollector:
    """Queue depth sampled at every arrival (integer-bucket histogram)."""

    def __init__(self, max_depth: int = 4096):
        self.hist = StreamingHistogram(bucket_width=1.0, buckets=max_depth)

    def observe(self, depth: int) -> None:
        self.hist.observe(float(depth))

    def summary(self) -> Dict[str, object]:
        return dict(self.hist.as_dict("queue_depth."))


class CollectorSet:
    """The harness-facing bundle: one call site per event kind.

    When bound to a :class:`~repro.telemetry.Telemetry`, the headline
    events are mirrored as ``load.*`` counters/histograms so sim-only
    JSONL exports carry them (deterministically — only sim-clock values
    are recorded).
    """

    def __init__(
        self,
        telemetry: Optional[Telemetry] = None,
        core: Optional[CoalescingCore] = None,
    ):
        self.latency = LatencyCollector()
        self.satisfaction = SatisfactionCollector()
        self.queue_depth = QueueDepthCollector()
        #: The coalescing core the harness drives; its trigger, solve
        #: and window counters are reported here.
        self.core = core or CoalescingCore()
        #: Modeled solve cost summed over solves (sim seconds).
        self.solve_cost_s = 0.0
        self.telemetry = telemetry or Telemetry(enabled=False)

    def on_submitted(self, queue_depth: int) -> None:
        self.satisfaction.observe_submitted()
        self.queue_depth.observe(queue_depth)
        self.telemetry.counter("load.submitted")

    def on_rejected(self) -> None:
        self.satisfaction.observe_rejected()
        self.telemetry.counter("load.rejected")

    def on_trigger(self) -> None:
        self.telemetry.counter("load.triggers")

    def on_solve(self, cost_s: float) -> None:
        self.solve_cost_s += cost_s
        self.telemetry.counter("load.reoptimizations")

    def on_served(self, pclass: PriorityClass, latency_s: float) -> None:
        self.satisfaction.observe_served(pclass)
        self.latency.observe(pclass, latency_s)
        self.telemetry.observe("load.latency_s", latency_s)

    def summary(self) -> Dict[str, object]:
        """All collectors' numbers as one flat dict."""
        out: Dict[str, object] = {}
        out.update(self.satisfaction.summary())
        out.update(self.latency.summary())
        out.update(self.queue_depth.summary())
        out.update(self.core.summary())
        out["solve_cost_s"] = round(self.solve_cost_s, 6)
        return out
