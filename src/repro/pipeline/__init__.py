"""Request pipeline: queued admission, coalesced solves.

See :class:`RequestPipeline` for the architecture.  A booted kernel
always has one (zero window); replace it with a configured one via
:meth:`repro.core.kernel.SurfOS.attach_pipeline`.
"""

from .coalesce import (
    WINDOW_CLOSE_EPS_S,
    AdaptiveCoalesceConfig,
    AdaptiveCoalescer,
    CoalescingCore,
)
from .config import PipelineConfig
from .pipeline import PipelineStats, RequestPipeline, TickResult
from .queue import PriorityClass, QueuedRequest, RequestQueue

__all__ = [
    "AdaptiveCoalesceConfig",
    "AdaptiveCoalescer",
    "CoalescingCore",
    "PipelineConfig",
    "PipelineStats",
    "PriorityClass",
    "QueuedRequest",
    "RequestPipeline",
    "RequestQueue",
    "TickResult",
    "WINDOW_CLOSE_EPS_S",
]
