"""Open-loop arrival benchmark: serial admission vs the request pipeline.

Requests arrive by a seeded Poisson process (or as one burst) and the
same workload runs through two control-plane disciplines:

* **serial** — the pre-pipeline behaviour: every demand is registered
  and immediately followed by its own full joint reoptimization.  A
  busy-server queue model charges each request the measured solve wall
  time plus hardware settle; with ``N`` requests the optimizer solves
  ``N`` times over a growing task set (quadratic total work).
* **pipelined** — demands queue in a
  :class:`~repro.pipeline.RequestPipeline`; each tick batch-admits a
  drained batch and the coalescing window collapses the admission
  triggers into one joint solve.  ``charge_compute=True`` maps the
  measured solve wall time onto the sim clock, so the sim-clock
  latencies include real compute cost.

Reported per mode: sim-clock p50/p99 submit→served latency, throughput
(served requests per simulated second), and solver counts.  The
benchmark suite asserts the pipelined mode clears 2x serial throughput
at a 10-request burst.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..analysis.tables import render_table
from ..broker.calls import reset_request_counter
from ..broker.demands import ApplicationDemand
from ..core.kernel import SurfOS
from ..geometry.floorplans import apartment_sites, two_room_apartment
from ..hwmgr.devices import AccessPoint, ClientDevice
from ..orchestrator.optimizers import Optimizer, RandomSearch
from ..orchestrator.tasks import reset_task_counter
from ..pipeline import AdaptiveCoalesceConfig, PipelineConfig
from ..surfaces.catalog import GENERIC_PROGRAMMABLE_28
from ..surfaces.panel import SurfacePanel
from .result import ExperimentResultBase
from .scenario import CARRIER_HZ

#: Elements per panel side.  Large enough that solve compute dominates
#: the pipeline's tick/window overhead — the regime the coalescing
#: speedup claim is about — while staying CI-fast (~2 s total).
PANEL_SIZE = 16

#: Default optimizer budget per solve (see PANEL_SIZE).
SOLVE_ITERATIONS = 100

#: Cap on the adaptive coalescing window.
COALESCE_WINDOW_S = 0.1

#: Application archetypes cycled across arriving clients.
_APP_CYCLE = ("video_streaming", "online_meeting", "file_transfer")

#: Per-archetype demand parameters (throughput Mb/s, latency ms, priority).
_APP_PARAMS = {
    "video_streaming": (25.0, None, 6),
    "online_meeting": (4.0, 150.0, 7),
    "file_transfer": (200.0, None, 3),
}


@dataclass
class ModeResult:
    """One discipline's outcome over the arrival trace."""

    mode: str
    served: int
    latencies_s: List[float] = field(default_factory=list)
    reoptimizations: int = 0
    span_s: float = 0.0          # first arrival → last served (sim)
    wall_s: float = 0.0          # real compute spent in reoptimize calls

    @property
    def throughput_rps(self) -> float:
        """Served requests per simulated second."""
        if self.span_s <= 0:
            return 0.0
        return self.served / self.span_s

    def percentile(self, q: float) -> float:
        if not self.latencies_s:
            return 0.0
        return float(np.percentile(np.asarray(self.latencies_s), q))

    @property
    def p50_latency_s(self) -> float:
        return self.percentile(50.0)

    @property
    def p99_latency_s(self) -> float:
        return self.percentile(99.0)

    def summary(self) -> Dict[str, float]:
        return {
            "mode": self.mode,
            "served": self.served,
            "throughput_rps": round(self.throughput_rps, 4),
            "p50_latency_s": round(self.p50_latency_s, 6),
            "p99_latency_s": round(self.p99_latency_s, 6),
            "reoptimizations": self.reoptimizations,
            "span_s": round(self.span_s, 6),
            "wall_s": round(self.wall_s, 6),
        }


@dataclass
class ArrivalSweepResult(ExperimentResultBase):
    """Serial vs pipelined over one arrival trace."""

    serial: ModeResult
    pipelined: ModeResult
    requests: int
    rate_hz: float
    seed: int
    coalesce_ratio: float = 0.0

    @property
    def speedup(self) -> float:
        """Pipelined over serial throughput."""
        if self.serial.throughput_rps <= 0:
            return float("inf")
        return self.pipelined.throughput_rps / self.serial.throughput_rps

    def summary(self) -> Dict[str, object]:
        """Flat form for JSON artifacts and the CI gate."""
        return {
            "requests": self.requests,
            "rate_hz": self.rate_hz,
            "seed": self.seed,
            "speedup": round(self.speedup, 3),
            "coalesce_ratio": round(self.coalesce_ratio, 3),
            "serial": self.serial.summary(),
            "pipelined": self.pipelined.summary(),
        }

    def gate_failures(self) -> List[str]:
        """Pipelining must never make tail latency worse than serial."""
        if self.pipelined.p99_latency_s <= self.serial.p99_latency_s:
            return []
        return [
            f"pipelined p99 {self.pipelined.p99_latency_s:.3f}s exceeds "
            f"serial p99 {self.serial.p99_latency_s:.3f}s"
        ]

    def render(self) -> str:
        """Human-readable comparison table."""
        rows = []
        for mode in (self.serial, self.pipelined):
            rows.append(
                (
                    mode.mode,
                    f"{mode.throughput_rps:.2f}",
                    f"{mode.p50_latency_s:.3f}",
                    f"{mode.p99_latency_s:.3f}",
                    str(mode.reoptimizations),
                )
            )
        arrival = (
            "burst" if self.rate_hz <= 0 else f"Poisson {self.rate_hz:g}/s"
        )
        table = render_table(
            ("mode", "req/s", "p50 (s)", "p99 (s)", "solves"),
            rows,
            title=(
                f"Open-loop arrivals: {self.requests} requests, {arrival} "
                f"(seed {self.seed})"
            ),
        )
        return (
            f"{table}\n"
            f"throughput speedup: {self.speedup:.2f}x; "
            f"coalesce ratio: {self.coalesce_ratio:.2f} triggers/solve"
        )


def arrival_times(
    requests: int, rate_hz: float, seed: int = 0
) -> np.ndarray:
    """Seeded Poisson arrival times; ``rate_hz <= 0`` means one burst.

    Thin wrapper over the :mod:`repro.load` arrival models, so the
    benchmark and the load harness replay the exact same streams.
    """
    from ..load.models import BurstArrivals, PoissonArrivals

    if rate_hz <= 0:
        model = BurstArrivals(requests, seed=seed)
    else:
        model = PoissonArrivals(requests, rate_hz=rate_hz, seed=seed)
    return np.fromiter(model.times(), dtype=float, count=requests)


def _demands(requests: int) -> List[ApplicationDemand]:
    out = []
    for i in range(requests):
        app = _APP_CYCLE[i % len(_APP_CYCLE)]
        throughput, latency, priority = _APP_PARAMS[app]
        out.append(
            ApplicationDemand(
                app_name=app,
                client_id=f"cl-{i}",
                room_id="bedroom",
                throughput_mbps=throughput,
                latency_ms=latency,
                priority=priority,
            )
        )
    return out


def build_system(
    requests: int,
    seed: int = 0,
    panel_size: int = PANEL_SIZE,
    optimizer: Optional[Optimizer] = None,
) -> SurfOS:
    """The apartment with one programmable panel and ``requests`` clients.

    Module-level task/request counters are reset so serial and
    pipelined runs see identical ids — the determinism tests diff the
    two runs' telemetry exports byte for byte.
    """
    reset_task_counter()
    reset_request_counter()
    env = two_room_apartment()
    sites = apartment_sites()
    system = SurfOS(
        env,
        frequency_hz=CARRIER_HZ,
        optimizer=optimizer or RandomSearch(
            max_iterations=SOLVE_ITERATIONS, seed=seed
        ),
        grid_spacing_m=1.0,
    )
    system.add_access_point(
        AccessPoint(
            "ap", sites.ap_position, 4, CARRIER_HZ, boresight=(1.0, 0.3, 0.0)
        )
    )
    system.add_surface(
        SurfacePanel(
            "rs-1",
            GENERIC_PROGRAMMABLE_28,
            panel_size,
            panel_size,
            sites.single_surface_center,
            sites.single_surface_normal,
        )
    )
    rng = np.random.default_rng(seed + 1)
    for i in range(requests):
        position = (
            float(rng.uniform(5.2, 8.0)),
            float(rng.uniform(0.8, 3.4)),
            1.0,
        )
        system.add_client(ClientDevice(f"cl-{i}", position))
    return system.boot(observe_room="bedroom")


def run_serial(
    requests: int = 10,
    rate_hz: float = 0.0,
    seed: int = 0,
    panel_size: int = PANEL_SIZE,
    optimizer: Optional[Optimizer] = None,
) -> ModeResult:
    """The pre-pipeline discipline: one full solve per arriving demand.

    A busy-server model: each request starts when both it has arrived
    and the previous solve finished; its service time is the measured
    solve wall time plus the hardware settle the push paid.
    """
    system = build_system(
        requests, seed=seed, panel_size=panel_size, optimizer=optimizer
    )
    arrivals = arrival_times(requests, rate_hz, seed=seed)
    result = ModeResult(mode="serial", served=0)
    free_at = 0.0
    last_done = 0.0
    for arrival, demand in zip(arrivals, _demands(requests)):
        start = max(float(arrival), free_at)
        system.broker.register_application(demand)
        began = time.perf_counter()
        reopt = system.orchestrator.reoptimize(now=start)
        wall = time.perf_counter() - began
        result.wall_s += wall
        result.reoptimizations += 1
        done = start + wall + reopt.settle_s
        result.latencies_s.append(done - float(arrival))
        result.served += 1
        free_at = done
        last_done = done
    result.span_s = last_done - float(arrivals[0])
    return result


def run_pipelined(
    requests: int = 10,
    rate_hz: float = 0.0,
    seed: int = 0,
    panel_size: int = PANEL_SIZE,
    optimizer: Optional[Optimizer] = None,
    config: Optional[PipelineConfig] = None,
    horizon_s: float = 600.0,
):
    """The pipelined discipline over the same trace; returns the pipeline.

    Submissions are scheduled on the sim clock at their arrival times
    and the pipeline runs **event-driven**
    (:meth:`~repro.pipeline.RequestPipeline.pump`), by default under
    **adaptive coalescing**: a lone steady-state request is admitted
    and solved at its exact arrival instant (zero window), while bursts
    still coalesce into joint solves.
    """
    system = build_system(
        requests, seed=seed, panel_size=panel_size, optimizer=optimizer
    )
    config = config or PipelineConfig(
        adaptive=AdaptiveCoalesceConfig(max_window_s=COALESCE_WINDOW_S),
        charge_compute=True,
    )
    pipeline = system.attach_pipeline(config)
    demands = _demands(requests)
    for arrival, demand in zip(
        arrival_times(requests, rate_hz, seed=seed), demands
    ):
        pipeline.clock.schedule(
            float(arrival), lambda d=demand: pipeline.submit(d)
        )
    pipeline.pump(horizon_s)
    return pipeline


def run(
    requests: int = 10,
    rate_hz: float = 0.0,
    seed: int = 0,
    panel_size: int = PANEL_SIZE,
    config: Optional[PipelineConfig] = None,
) -> ArrivalSweepResult:
    """Both disciplines over one seeded trace; the benchmark entry point."""
    serial = run_serial(
        requests,
        rate_hz=rate_hz,
        seed=seed,
        panel_size=panel_size,
    )
    pipeline = run_pipelined(
        requests,
        rate_hz=rate_hz,
        seed=seed,
        panel_size=panel_size,
        config=config,
    )
    stats = pipeline.stats
    arrivals = arrival_times(requests, rate_hz, seed=seed)
    span = (
        pipeline.core.last_served_at - float(arrivals[0])
        if stats.latencies
        else 0.0
    )
    pipelined = ModeResult(
        mode="pipelined",
        served=len(stats.latencies),
        latencies_s=list(stats.latencies),
        reoptimizations=stats.reoptimizations,
        span_s=span,
        wall_s=stats.reoptimize_wall_s,
    )
    return ArrivalSweepResult(
        serial=serial,
        pipelined=pipelined,
        requests=requests,
        rate_hz=rate_hz,
        seed=seed,
        coalesce_ratio=stats.coalesce_ratio,
    )
