"""The request pipeline: queue → batch admit → coalesced real solve.

One :class:`~repro.pipeline.coalesce.CoalescingCore` decides *when* to
solve: it holds the pending triggers (admissions, motion, faults),
closes the coalescing window inclusively and keeps the trigger, solve
and window counters.  The pipeline supplies the two steps around it:

* **Admission** — demands park in a bounded :class:`RequestQueue`
  (priority classes, reject-with-reason backpressure); each tick
  drains up to a batch and admits it in one
  :meth:`~repro.orchestrator.scheduler.Scheduler.admit_batch` pass.
* **Solve** — once the core says a solve is due, one joint
  :meth:`reoptimize` covers the whole dirty set and serves every
  admitted request.  The optimizer scores each candidate batch with
  one ``value_many`` call on the calling thread.

The load harness (:mod:`repro.load.harness`) drives the same core with
its own modeled solve.  Everything runs on the simulated clock; wall
time only enters when ``charge_compute`` maps measured solve time onto
it for latency benchmarking.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..broker.calls import RequestStatus, ServiceRequest, ServiceResponse
from ..broker.demands import ApplicationDemand
from ..broker.handle import ServiceHandle
from ..core.errors import ServiceError
from ..runtime.clock import SimClock
from .coalesce import AdaptiveCoalesceConfig, CoalescingCore
from .config import PipelineConfig
from .queue import RequestQueue


@dataclass
class PipelineStats:
    """Lifetime statistics of one pipeline instance.

    Trigger, solve and window counts are the pipeline's
    :class:`~repro.pipeline.coalesce.CoalescingCore` counters.
    """

    core: CoalescingCore = field(default_factory=CoalescingCore, repr=False)
    submitted: int = 0
    rejected: int = 0
    admitted: int = 0
    admission_failures: int = 0
    reoptimize_failures: int = 0
    #: Sim-clock submit→served latency per served request.
    latencies: List[float] = field(default_factory=list)
    #: Real (wall-clock) seconds spent in reoptimize calls.  Varies run
    #: to run, so it stays out of :meth:`summary` and telemetry.
    reoptimize_wall_s: float = 0.0

    triggers = property(lambda self: self.core.triggers)
    reoptimizations = property(lambda self: self.core.reoptimizations)
    window_sum_s = property(lambda self: self.core.window_sum_s)
    coalesce_ratio = property(lambda self: self.core.coalesce_ratio)

    def latency_percentile(self, q: float) -> float:
        """Latency percentile in simulated seconds (0 when unserved)."""
        if not self.latencies:
            return 0.0
        return float(np.percentile(np.asarray(self.latencies), q))

    @property
    def p50_latency_s(self) -> float:
        return self.latency_percentile(50.0)

    @property
    def p99_latency_s(self) -> float:
        return self.latency_percentile(99.0)

    def summary(self) -> Dict[str, float]:
        """The stats as a flat dict (benchmark JSON artifacts)."""
        return {
            "submitted": self.submitted,
            "rejected": self.rejected,
            "admitted": self.admitted,
            "admission_failures": self.admission_failures,
            "reoptimize_failures": self.reoptimize_failures,
            "served": len(self.latencies),
            "p50_latency_s": round(self.p50_latency_s, 6),
            "p99_latency_s": round(self.p99_latency_s, 6),
            **self.core.summary(),
        }


@dataclass
class TickResult:
    """What one :meth:`RequestPipeline.tick` actually did."""

    now: float
    drained: int = 0
    admitted: List[ServiceHandle] = field(default_factory=list)
    failures: Dict[str, str] = field(default_factory=dict)
    reoptimized: bool = False
    #: ``(sim_time, kind)`` triggers the coalesced solve consumed.
    coalesced: List[Tuple[float, str]] = field(default_factory=list)
    result: Optional[object] = None
    failure_reason: str = ""

    @property
    def first_trigger_at(self) -> Optional[float]:
        """Sim time of the earliest coalesced trigger (detection time)."""
        return self.coalesced[0][0] if self.coalesced else None

    @property
    def primary_trigger(self) -> str:
        """Kind of the earliest coalesced trigger."""
        return self.coalesced[0][1] if self.coalesced else ""


class RequestPipeline:
    """Drives queued demands through batched admission and coalesced solves.

    Built over an existing :class:`~repro.broker.broker.ServiceBroker`;
    :meth:`~repro.core.kernel.SurfOS.boot` wires a zero-window one to
    the kernel's broker and daemon clock, and
    :meth:`~repro.core.kernel.SurfOS.attach_pipeline` replaces it with
    a configured one.  All progress happens in
    :meth:`tick` — callers (the daemon, :meth:`ServiceHandle.wait`, the
    arrival benchmark) advance the sim clock and tick.
    """

    def __init__(
        self,
        broker,
        clock: Optional[SimClock] = None,
        config: Optional[PipelineConfig] = None,
    ):
        self.broker = broker
        self.orchestrator = broker.orchestrator
        self.clock = clock or SimClock()
        self.config = config or PipelineConfig()
        self.telemetry = broker.telemetry
        self.queue = RequestQueue(self.config.queue_capacity)
        # A fixed window W is the controller clamped to [W, W].
        window = self.config.coalesce_window_s
        self.core = CoalescingCore(
            self.config.adaptive
            if self.config.adaptive is not None
            else AdaptiveCoalesceConfig(min_window_s=window, max_window_s=window)
        )
        self.stats = PipelineStats(core=self.core)
        #: ``(queue seq, handle)`` of admitted, not-yet-served requests.
        self._admitted: List[Tuple[int, ServiceHandle]] = []

    # -- intake ----------------------------------------------------------

    def submit(
        self,
        demand: ApplicationDemand,
        priority: Optional[int] = None,
    ) -> ServiceHandle:
        """Queue one application demand; returns its handle immediately.

        The handle starts ``QUEUED`` (or ``REJECTED`` under
        backpressure) and progresses as ticks drain the queue; use
        :meth:`ServiceHandle.wait` to pump the sim clock until served.
        """
        request = ServiceRequest(
            demand=demand,
            submitted_at=self.clock.now,
            priority=priority,
        )
        return self.submit_request(request).handle

    def submit_request(self, request: ServiceRequest) -> ServiceResponse:
        """Queue a pre-built request envelope (typed entry point)."""
        handle = ServiceHandle(self.broker, request)
        handle._bind_pipeline(self)
        response = self.queue.offer(request, handle, now=self.clock.now)
        if response.status is RequestStatus.REJECTED:
            self.stats.rejected += 1
            self.telemetry.counter("pipeline.rejected")
        else:
            self.stats.submitted += 1
            self.telemetry.counter("pipeline.submitted")
        self.telemetry.gauge("pipeline.queue_depth", self.queue.depth)
        return response

    def note_trigger(self, kind: str, now: Optional[float] = None) -> None:
        """Record a reoptimization trigger for the coalescing window."""
        self.core.note_trigger(self.clock.now if now is None else now, kind)
        self.telemetry.counter("pipeline.triggers")

    # -- the engine ------------------------------------------------------

    def tick(self, now: Optional[float] = None) -> TickResult:
        """One pipeline cycle: drain + batch-admit, maybe coalesce-solve."""
        if now is None:
            now = self.clock.now
        if now > self.orchestrator.clock_now:
            self.orchestrator.clock_now = now
        outcome = TickResult(now=now)
        with self.telemetry.span("pipeline-tick"):
            self._admit_batch(now, outcome)
            self._maybe_reoptimize(now, outcome)
        return outcome

    def _admit_batch(self, now: float, outcome: TickResult) -> None:
        batch = self.queue.drain(self.config.max_batch)
        self.telemetry.gauge("pipeline.queue_depth", self.queue.depth)
        if not batch:
            return
        outcome.drained = len(batch)
        with self.telemetry.span("pipeline-admit", batch=len(batch)):
            with self.orchestrator.batch_admission() as admission:
                responses = [
                    self.broker.serve(entry.request, handle=entry.handle)
                    for entry in batch
                ]
        self.telemetry.gauge("pipeline.batch_size", len(batch))
        for entry, response in zip(batch, responses):
            handle = response.handle
            if response.status is RequestStatus.REJECTED:
                self.stats.admission_failures += 1
                outcome.failures[entry.request.request_id] = response.reason
                continue
            task_failures = {
                tid: reason
                for tid in handle.task_ids
                if (reason := admission.outcomes.get(tid)) is not None
            }
            if task_failures and len(task_failures) == len(handle.task_ids):
                reason = next(iter(task_failures.values()))
                handle._mark_failed(reason)
                self.stats.admission_failures += 1
                outcome.failures[entry.request.request_id] = reason
                continue
            handle.admitted_at = now
            self._admitted.append((entry.seq, handle))
            self.stats.admitted += 1
            outcome.admitted.append(handle)
        if outcome.failures:
            self.telemetry.counter(
                "pipeline.admission_failures", len(outcome.failures)
            )
        if outcome.admitted:
            self.telemetry.counter("pipeline.admitted", len(outcome.admitted))
            self.note_trigger("admission", now)

    def _maybe_reoptimize(self, now: float, outcome: TickResult) -> None:
        closed = self.core.close(now)
        if closed is None:
            return
        coalesced, window = closed
        if not self.orchestrator.active_contexts():
            # Nothing admitted survives to optimize for; the triggers
            # are moot (e.g. every batch entry failed admission).
            return
        started = time.perf_counter()
        try:
            with self.telemetry.span(
                "pipeline-reoptimize", coalesced=len(coalesced)
            ):
                result = self.orchestrator.reoptimize(
                    now=now, rounds=self.config.reoptimize_rounds
                )
        except ServiceError as exc:
            # Degraded-mode guarantee: an unsatisfiable solve degrades
            # service, it never crashes the pipeline.
            self.stats.reoptimize_wall_s += time.perf_counter() - started
            self.stats.reoptimize_failures += 1
            self.telemetry.counter("pipeline.reoptimize_failures")
            outcome.failure_reason = str(exc)
            return
        wall = time.perf_counter() - started
        self.stats.reoptimize_wall_s += wall
        charged = None
        if self.config.charge_compute:
            self.clock.advance(wall)
            self.orchestrator.clock_now += wall
            charged = wall
        served_at = self.orchestrator.clock_now
        self.core.solved(now, window, served_at, cost_s=charged)
        outcome.reoptimized = True
        outcome.coalesced = coalesced
        outcome.result = result
        self.telemetry.counter("pipeline.reoptimizations")
        self.telemetry.gauge("pipeline.coalesced_triggers", len(coalesced))
        self.telemetry.gauge("pipeline.coalesce_window_s", window)
        # Latencies land in submission (queue seq) order.
        self._admitted.sort(key=lambda item: item[0])
        for _, handle in self._admitted:
            handle.served_at = served_at
            self.stats.latencies.append(served_at - handle.submitted_at)
        self._admitted.clear()

    # -- conveniences ----------------------------------------------------

    def next_deadline(self, now: Optional[float] = None) -> Optional[float]:
        """Earliest sim time at which a tick would make progress.

        ``now`` when the queue holds requests (admission is overdue),
        the first pending trigger's window close otherwise, ``None``
        when the pipeline is fully idle.  :meth:`pump` drives the clock
        straight to this instant instead of polling a tick grid.
        """
        return self.core.next_deadline(
            self.clock.now if now is None else now, queued=self.queue.depth > 0
        )

    def run(self, steps: int, dt: float = 0.5) -> List[TickResult]:
        """Advance the clock and tick ``steps`` times (tests, benchmarks)."""
        results = []
        for _ in range(steps):
            self.clock.advance(dt)
            results.append(self.tick())
        return results

    def pump(self, horizon_s: float) -> List[TickResult]:
        """Event-driven drive loop: tick at exact event times to a horizon.

        Unlike :meth:`run`'s fixed tick grid — which quantizes every
        admission and window close up to one ``dt`` late — ``pump``
        advances the sim clock directly to the next meaningful instant:
        the earliest scheduled clock callback (arrivals, motion) or the
        pipeline's own :meth:`next_deadline`.  With an adaptive
        zero-minimum window, a lone request is therefore admitted *and*
        solved at its exact arrival time.

        Returns when the horizon passes or the system goes fully idle
        (no scheduled events, nothing queued, nothing pending) —
        whichever comes first.  Only ticks that did work (drained,
        admitted, or reoptimized) are returned.
        """
        if horizon_s < self.clock.now:
            raise ServiceError(
                f"pump horizon {horizon_s} is in the simulated past "
                f"(now={self.clock.now})"
            )
        results: List[TickResult] = []
        while True:
            now = self.clock.now
            targets = []
            event_at = self.clock.next_event_at()
            if event_at is not None:
                targets.append(event_at)
            deadline = self.next_deadline(now)
            if deadline is not None:
                targets.append(deadline)
            if not targets:
                # Fully idle: nothing scheduled, nothing queued, nothing
                # pending — no tick can do work before the caller
                # schedules more, so pumping further is pointless.
                break
            target = min(targets)
            if target > horizon_s:
                break
            self.clock.advance(max(0.0, target - self.clock.now))
            outcome = self.tick()
            if outcome.drained or outcome.admitted or outcome.reoptimized:
                results.append(outcome)
            if self.clock.now >= horizon_s and self.next_deadline() is None:
                break
        return results

    def close(self) -> None:
        """Do nothing: a pipeline holds no resource to release.

        Kept for callers that still close their pipeline; a pipeline
        keeps serving requests after it.
        """
