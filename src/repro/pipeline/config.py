"""Configuration knobs for the concurrent request pipeline."""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Optional

from ..core.errors import ServiceError
from .coalesce import AdaptiveCoalesceConfig

#: Default rows per evaluation chunk.  Equals RandomSearch's default
#: ``population``, so one solver iteration is one ``value_many`` call.
DEFAULT_EVAL_CHUNK = 16


@dataclass(frozen=True)
class EvaluationConfig:
    """How candidate batches are evaluated during solves.

    This is the *single source of truth* for evaluation parallelism:
    the old ``PipelineConfig.parallelism`` / ``eval_chunk`` mirror
    fields are retired (they are accepted as init-only conveniences and
    raise when they conflict with an explicit ``evaluation=``).

    Candidates are evaluated by a
    :class:`~repro.pipeline.workers.BatchEvaluator`: a thread pool over
    GIL-releasing BLAS calls, bit-identical to serial evaluation at any
    ``parallelism``.

    Attributes:
        parallelism: worker threads; 1 keeps evaluation on the calling
            thread.
        chunk: rows per evaluation chunk (default
            :data:`DEFAULT_EVAL_CHUNK`).  The chunk grid depends only
            on this — never on ``parallelism`` — which is what makes
            parallel evaluation deterministic.
    """

    parallelism: int = 1
    chunk: int = DEFAULT_EVAL_CHUNK

    def __post_init__(self) -> None:
        if self.parallelism < 1:
            raise ServiceError("parallelism must be at least 1")
        if self.chunk < 1:
            raise ServiceError("chunk must be at least 1")


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
        evaluation: full evaluation config — the single source of
            truth for parallelism/chunking (defaults to serial
            evaluation).

    Init-only conveniences (NOT stored — read
    ``config.evaluation.parallelism`` / ``config.evaluation.chunk``):
        parallelism, eval_chunk: build the ``evaluation`` config for
            you.  Passing either together with an explicit
            ``evaluation=`` raises — there is exactly one place
            evaluation settings live.
    """

    queue_capacity: int = 64
    max_batch: int = 16
    coalesce_window_s: float = 1.0
    charge_compute: bool = False
    reoptimize_rounds: int = 2
    adaptive: Optional[AdaptiveCoalesceConfig] = None
    evaluation: EvaluationConfig = field(default=None)  # type: ignore[assignment]
    parallelism: InitVar[Optional[int]] = None
    eval_chunk: InitVar[Optional[int]] = None

    def __post_init__(
        self,
        parallelism: Optional[int],
        eval_chunk: Optional[int],
    ) -> None:
        if self.queue_capacity < 1:
            raise ServiceError("queue_capacity must be at least 1")
        if self.max_batch < 1:
            raise ServiceError("max_batch must be at least 1")
        if self.coalesce_window_s < 0:
            raise ServiceError("coalesce_window_s must be non-negative")
        if self.reoptimize_rounds < 1:
            raise ServiceError("reoptimize_rounds must be at least 1")
        if self.evaluation is None:
            object.__setattr__(
                self,
                "evaluation",
                EvaluationConfig(
                    parallelism=1 if parallelism is None else parallelism,
                    chunk=DEFAULT_EVAL_CHUNK if eval_chunk is None else eval_chunk,
                ),
            )
        elif parallelism is not None or eval_chunk is not None:
            raise ServiceError(
                "pass evaluation settings in exactly one place: either "
                "an explicit evaluation=EvaluationConfig(...) or the "
                "parallelism=/eval_chunk= conveniences, not both"
            )
