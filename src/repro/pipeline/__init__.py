"""Concurrent request pipeline: queued admission, coalesced solves.

See :class:`RequestPipeline` for the architecture; attach one to a
booted kernel with :meth:`repro.core.kernel.SurfOS.attach_pipeline`.
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
