"""Configuration knobs for the concurrent request pipeline."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.errors import ServiceError
from .coalesce import AdaptiveCoalesceConfig


@dataclass(frozen=True)
class PipelineConfig:
    """Tuning for one :class:`~repro.pipeline.RequestPipeline`.

    Attributes:
        queue_capacity: bounded request-queue size; offers beyond it
            are rejected with a reason (backpressure, never blocking).
        max_batch: most requests one daemon tick admits in a single
            :meth:`~repro.orchestrator.scheduler.Scheduler.admit_batch`
            pass.
        coalesce_window_s: simulated seconds a reoptimization trigger
            waits for companions before one joint
            :meth:`~repro.orchestrator.orchestrator.SurfaceOrchestrator.reoptimize`
            covers them all.  0 fires on the tick after the trigger.
            Ignored when ``adaptive`` is set.
        adaptive: when set, the coalescing window is controlled by an
            :class:`~repro.pipeline.coalesce.AdaptiveCoalescer` — it
            widens under measured trigger pressure and collapses to
            (typically) zero when idle, so lone steady-state requests
            pay no window latency while bursts still coalesce.
        charge_compute: when True, measured reoptimization wall time is
            charged to the sim clock so latency benchmarks see compute
            cost.  Off by default: wall time is nondeterministic, and
            determinism tests diff sim-clocked telemetry.
        reoptimize_rounds: block-coordinate rounds per coalesced solve.
        parallelism: evaluation worker threads for the pipeline's
            :class:`~repro.pipeline.workers.BatchEvaluator`; 1 keeps
            evaluation on the calling thread.  Results are
            bit-identical at any count.
    """

    queue_capacity: int = 64
    max_batch: int = 16
    coalesce_window_s: float = 1.0
    charge_compute: bool = False
    reoptimize_rounds: int = 2
    adaptive: Optional[AdaptiveCoalesceConfig] = None
    parallelism: int = 1

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ServiceError("queue_capacity must be at least 1")
        if self.max_batch < 1:
            raise ServiceError("max_batch must be at least 1")
        if self.coalesce_window_s < 0:
            raise ServiceError("coalesce_window_s must be non-negative")
        if self.reoptimize_rounds < 1:
            raise ServiceError("reoptimize_rounds must be at least 1")
        if self.parallelism < 1:
            raise ServiceError("parallelism must be at least 1")
