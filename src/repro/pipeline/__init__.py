"""Concurrent request pipeline: queued admission, coalesced solves.

See :class:`RequestPipeline` for the architecture.  A booted kernel
always has one (zero window); replace it with a configured one via
:meth:`repro.core.kernel.SurfOS.attach_pipeline`.
"""

from .coalesce import AdaptiveCoalesceConfig, AdaptiveCoalescer
from .config import PipelineConfig
from .pipeline import (
    WINDOW_CLOSE_EPS_S,
    PipelineStats,
    RequestPipeline,
    TickResult,
)
from .queue import PriorityClass, QueuedRequest, RequestQueue
from .workers import BatchEvaluator

__all__ = [
    "AdaptiveCoalesceConfig",
    "AdaptiveCoalescer",
    "BatchEvaluator",
    "PipelineConfig",
    "PipelineStats",
    "PriorityClass",
    "QueuedRequest",
    "RequestPipeline",
    "RequestQueue",
    "TickResult",
    "WINDOW_CLOSE_EPS_S",
]
