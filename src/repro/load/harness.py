"""The trace-driven load harness: arrival stream → modeled control plane.

Replaying 10⁵–10⁶ requests through the *real* pipeline is impossible in
CI — every joint solve costs real optimizer wall time.  The harness
drives the pipeline's own :class:`~repro.pipeline.CoalescingCore` (the
pending triggers, the inclusive window close, the busy solver and the
solve counters) with its own admission and its own **modeled** solve
step, whose cost is invented, not measured::

    solve_cost = base_solve_cost_s + per_task_cost_s * active_tasks

Admitted requests hold a task for ``hold_s`` simulated seconds, so
sustained load grows the active set and solves get slower under
pressure, exactly the feedback loop the coalescer is tuned against.
Everything is a pure function of (model, config, seed): two runs emit
byte-identical sim-only telemetry, which CI diffs.

The event loop merges the lazy arrival stream of an
:class:`~repro.load.models.ArrivalModel` against the task departures
and the core's next deadline — constant memory regardless of trace
length.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..analysis.tables import render_table
from ..core.errors import ServiceError
from ..experiments.result import ExperimentResultBase
from ..pipeline.coalesce import AdaptiveCoalesceConfig, CoalescingCore
from ..pipeline.queue import PriorityClass
from ..telemetry import Telemetry
from .collectors import CollectorSet
from .models import ArrivalModel
from .slo import SLOPolicy, SLOReport

__all__ = ["LoadConfig", "LoadHarness", "LoadResult", "DEFAULT_CLASS_MIX"]

#: Default priority-class mix (interactive, normal, bulk) of generated
#: requests — drawn deterministically from the seeded stream.
DEFAULT_CLASS_MIX = (0.3, 0.5, 0.2)

#: Random class draws per chunk (mirrors models.CHUNK).
_CHUNK = 4096


@dataclass(frozen=True)
class LoadConfig:
    """Tuning for one :class:`LoadHarness` run.

    Attributes:
        queue_capacity: bounded admission queue; arrivals beyond it are
            rejected (counted against satisfaction).
        max_batch: requests admitted per batch.
        adaptive: coalescing-window controller config (the adaptive
            default — the harness exists to exercise it).  A fixed
            window ``W`` is ``AdaptiveCoalesceConfig(min_window_s=W,
            max_window_s=W)``.
        base_solve_cost_s: modeled solve cost floor.
        per_task_cost_s: modeled marginal solve cost per active task.
        settle_s: modeled hardware settle charged to request latency
            after each solve.
        hold_s: how long an admitted request's task stays active (its
            departure shrinks later solves).
        class_mix: probability of (interactive, normal, bulk) per
            generated request.
    """

    queue_capacity: int = 256
    max_batch: int = 32
    adaptive: AdaptiveCoalesceConfig = field(
        default_factory=AdaptiveCoalesceConfig
    )
    base_solve_cost_s: float = 0.02
    per_task_cost_s: float = 0.0005
    settle_s: float = 0.004
    hold_s: float = 10.0
    class_mix: Tuple[float, float, float] = DEFAULT_CLASS_MIX

    def __post_init__(self) -> None:
        if self.queue_capacity < 1:
            raise ServiceError("queue_capacity must be at least 1")
        if self.max_batch < 1:
            raise ServiceError("max_batch must be at least 1")
        if self.base_solve_cost_s < 0 or self.per_task_cost_s < 0:
            raise ServiceError("solve costs must be non-negative")
        if self.settle_s < 0 or self.hold_s < 0:
            raise ServiceError("settle_s/hold_s must be non-negative")
        if len(self.class_mix) != 3 or any(w < 0 for w in self.class_mix):
            raise ServiceError("class_mix must be three non-negative weights")
        if not sum(self.class_mix) > 0:
            raise ServiceError("class_mix must have positive total weight")

    def describe(self) -> Dict[str, object]:
        out = {
            "queue_capacity": self.queue_capacity,
            "max_batch": self.max_batch,
            "base_solve_cost_s": self.base_solve_cost_s,
            "per_task_cost_s": self.per_task_cost_s,
            "settle_s": self.settle_s,
            "hold_s": self.hold_s,
        }
        if self.adaptive.min_window_s == self.adaptive.max_window_s:
            out["coalescing"] = "fixed"
            out["coalesce_window_s"] = self.adaptive.min_window_s
        else:
            out["coalescing"] = "adaptive"
            out["adaptive_max_window_s"] = self.adaptive.max_window_s
        return out


@dataclass
class LoadResult(ExperimentResultBase):
    """Outcome of one load run (implements the experiment protocol)."""

    model: Dict[str, object]
    config: Dict[str, object]
    collectors: CollectorSet
    slo_report: Optional[SLOReport]
    span_s: float
    wall_s: float  # host wall time; never serialized (nondeterministic)

    @property
    def throughput_rps(self) -> float:
        served = self.collectors.satisfaction.total_served
        if self.span_s <= 0:
            return 0.0
        return served / self.span_s

    def summary(self) -> Dict[str, object]:
        out: Dict[str, object] = {}
        out.update({f"model.{k}": v for k, v in self.model.items()})
        out.update({f"config.{k}": v for k, v in self.config.items()})
        out.update(self.collectors.summary())
        out["span_s"] = round(self.span_s, 6)
        out["throughput_rps"] = round(self.throughput_rps, 4)
        if self.slo_report is not None:
            out.update(
                {
                    f"slo.{k}": v
                    for k, v in self.slo_report.policy.describe().items()
                }
            )
            out["slo.ok"] = self.slo_report.ok
            out["slo.violations"] = list(self.slo_report.violations)
        return out

    def gate_failures(self) -> List[str]:
        if self.slo_report is None:
            return []
        return list(self.slo_report.violations)

    def render(self) -> str:
        sat = self.collectors.satisfaction
        lat = self.collectors.latency
        core = self.collectors.core
        rows = [
            (
                "overall",
                str(lat.overall.count),
                f"{lat.overall.percentile(50.0):.4f}",
                f"{lat.overall.percentile(99.0):.4f}",
                f"{lat.overall.percentile(99.9):.4f}",
            )
        ]
        for pclass in PriorityClass:
            hist = lat.by_class[pclass]
            if not hist.count:
                continue
            rows.append(
                (
                    pclass.name.lower(),
                    str(hist.count),
                    f"{hist.percentile(50.0):.4f}",
                    f"{hist.percentile(99.0):.4f}",
                    f"{hist.percentile(99.9):.4f}",
                )
            )
        model_name = self.model.get("model", "?")
        table = render_table(
            ("class", "served", "p50 (s)", "p99 (s)", "p999 (s)"),
            rows,
            title=(
                f"Load run: {model_name} x{self.model.get('requests', '?')} "
                f"(seed {self.model.get('seed', '?')})"
            ),
        )
        lines = [
            table,
            (
                f"submitted {sat.submitted}, served {sat.total_served}, "
                f"rejected {sat.rejected} "
                f"(satisfaction {sat.rate:.4f})"
            ),
            (
                f"throughput {self.throughput_rps:.2f} req/s over "
                f"{self.span_s:.1f} sim-s; "
                f"{core.reoptimizations} solves, coalesce ratio "
                f"{core.coalesce_ratio:.2f}, mean window "
                f"{core.mean_window_s:.4f}s"
                if core.reoptimizations
                else f"throughput {self.throughput_rps:.2f} req/s; no solves"
            ),
            (
                "latencies assume the modeled solve cost "
                f"{self.config['base_solve_cost_s'] * 1e3:g} ms + "
                f"{self.config['per_task_cost_s'] * 1e3:g} ms x active tasks "
                f"({self.collectors.solve_cost_s:.2f} modeled sim-s in all)"
            ),
            f"harness wall time {self.wall_s:.2f}s",
        ]
        if self.slo_report is not None:
            lines.append(self.slo_report.render())
        return "\n".join(lines)


class LoadHarness:
    """Drives an arrival model through the modeled control plane."""

    def __init__(
        self,
        config: Optional[LoadConfig] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        self.config = config or LoadConfig()
        self.telemetry = telemetry or Telemetry()

    # -- request generation ----------------------------------------------

    def _classes(self, seed: int) -> Iterator[PriorityClass]:
        """Deterministic per-request priority classes (chunked draws)."""
        rng = np.random.default_rng(seed + 0x10AD)
        weights = np.asarray(self.config.class_mix, dtype=float)
        weights = weights / weights.sum()
        members = tuple(PriorityClass)
        while True:
            for pick in rng.choice(len(members), size=_CHUNK, p=weights):
                yield members[int(pick)]

    # -- the event loop --------------------------------------------------

    def run(
        self,
        model: ArrivalModel,
        slo: Optional[SLOPolicy] = None,
        jsonl: Optional[str] = None,
    ) -> LoadResult:
        """Replay the model's arrivals; returns the gated result."""
        cfg = self.config
        started_wall = time.perf_counter()
        core = CoalescingCore(cfg.adaptive)
        collectors = CollectorSet(self.telemetry, core)

        # (arrival time, class) of queued and of admitted requests.
        queue: List[Tuple[float, PriorityClass]] = []
        admitted: List[Tuple[float, PriorityClass]] = []
        # (departure time, tasks): served instants only grow, so
        # departures leave in the order they were scheduled.
        departures: Deque[Tuple[float, int]] = deque()
        active_tasks = 0
        first_arrival: Optional[float] = None

        def admit(now: float) -> None:
            """Batch-admit everything queued, one trigger per batch."""
            while queue:
                batch = queue[: cfg.max_batch]
                del queue[: len(batch)]
                admitted.extend(batch)
                core.note_trigger(now)
                collectors.on_trigger()

        def solve(now: float) -> None:
            """The modeled solve step, once the core says one is due."""
            nonlocal active_tasks
            closed = core.close(now)
            if closed is None or not admitted:
                return
            window = closed[1]
            active_tasks += len(admitted)
            cost = cfg.base_solve_cost_s + cfg.per_task_cost_s * active_tasks
            served_at = now + cost + cfg.settle_s
            core.solved(now, window, served_at, cost_s=cost)
            collectors.on_solve(cost)
            for arrived_at, pclass in admitted:
                collectors.on_served(pclass, served_at - arrived_at)
            departures.append((served_at + cfg.hold_s, len(admitted)))
            admitted.clear()

        with self.telemetry.span("load-run", model=model.name):
            arrivals = model.times()
            classes = self._classes(model.seed)
            next_arrival = next(arrivals, None)
            now = 0.0
            while True:
                # Ties go to arrivals, then departures, then the core.
                deadline = core.next_deadline(now, queued=bool(queue))
                depart_at = departures[0][0] if departures else None
                if (
                    next_arrival is not None
                    and (deadline is None or next_arrival <= deadline)
                    and (depart_at is None or next_arrival <= depart_at)
                ):
                    now = next_arrival
                    if first_arrival is None:
                        first_arrival = now
                    pclass = next(classes)
                    if len(queue) >= cfg.queue_capacity:
                        collectors.on_submitted(len(queue))
                        collectors.on_rejected()
                    else:
                        queue.append((now, pclass))
                        collectors.on_submitted(len(queue))
                    next_arrival = next(arrivals, None)
                elif depart_at is not None and (
                    deadline is None or depart_at <= deadline
                ):
                    now = depart_at
                    active_tasks -= departures.popleft()[1]
                elif deadline is not None:
                    # Queued arrivals (all of one instant, since ties go
                    # to arrivals) are admitted as one batch once the
                    # solver is free, as the real pipeline's next tick
                    # admits them; or a pending window closed.
                    now = deadline
                    admit(now)
                    solve(now)
                else:
                    break

        wall_s = time.perf_counter() - started_wall
        span = (
            core.last_served_at - first_arrival
            if first_arrival is not None and core.last_served_at > 0
            else 0.0
        )
        self.telemetry.gauge("load.span_s", round(span, 9))
        report = slo.evaluate(collectors) if slo is not None else None
        if jsonl:
            self.telemetry.export_jsonl(jsonl, sim_only=True)
        return LoadResult(
            model=model.describe(),
            config=cfg.describe(),
            collectors=collectors,
            slo_report=report,
            span_s=span,
            wall_s=wall_s,
        )
