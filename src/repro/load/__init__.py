"""repro.load — trace-driven load harness with SLO gating.

The workload/measurement layer of the control plane: pluggable seeded
:class:`ArrivalModel` streams (Poisson, diurnal, flash-crowd, trace
replay, burst), O(1)-per-event streaming :mod:`collectors
<repro.load.collectors>`, :class:`SLOPolicy` gates, and the
:class:`LoadHarness` that replays 10⁵–10⁶ requests through a modeled
control plane sharing the real pipeline's coalescing and priority
machinery.  :func:`run_sweep` ladders the offered rate to locate the
latency-vs-rate saturation knee (observational, never gated).  See
DESIGN.md §"Workloads, collectors, and SLO gates".
"""

from .collectors import (
    CollectorSet,
    LatencyCollector,
    QueueDepthCollector,
    SatisfactionCollector,
)
from .harness import DEFAULT_CLASS_MIX, LoadConfig, LoadHarness, LoadResult
from .models import (
    MODEL_NAMES,
    ArrivalModel,
    BurstArrivals,
    DiurnalArrivals,
    FlashCrowdArrivals,
    PoissonArrivals,
    TraceReplay,
    build_model,
    write_trace,
)
from .slo import SLOPolicy, SLOReport
from .sweep import DEFAULT_SWEEP_RATES, SweepPoint, SweepResult, run_sweep

__all__ = [
    "ArrivalModel",
    "BurstArrivals",
    "CollectorSet",
    "DEFAULT_CLASS_MIX",
    "DEFAULT_SWEEP_RATES",
    "DiurnalArrivals",
    "FlashCrowdArrivals",
    "LatencyCollector",
    "LoadConfig",
    "LoadHarness",
    "LoadResult",
    "MODEL_NAMES",
    "PoissonArrivals",
    "QueueDepthCollector",
    "SatisfactionCollector",
    "SLOPolicy",
    "SLOReport",
    "SweepPoint",
    "SweepResult",
    "TraceReplay",
    "build_model",
    "write_trace",
]
