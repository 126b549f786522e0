"""Burst arrival benchmark: one solve per request vs the request pipeline.

Every request of the burst arrives at once, and the same workload runs
through two control-plane disciplines:

* **serial** — the pre-pipeline behaviour: every demand is registered
  and immediately followed by its own full joint reoptimization, so the
  optimizer solves ``N`` times over a growing task set.  Requests are
  served one after another: each one's latency is the running sum of
  the measured solve wall times plus the hardware settle each push
  paid.
* **pipelined** — the demands are submitted to a
  :class:`~repro.pipeline.RequestPipeline` under the default adaptive
  coalescing.  Its first tick batch-admits the burst and one joint
  solve serves it.  The sim clock carries only the settle, and the
  measured solve wall time is added to every request's latency: exact
  when one solve serves the burst, which the pipeline bench asserts.

Both arms measure real solves, and neither puts wall time on the sim
clock.  Reported per arm: p50/p99 submit→served latency, throughput
(served requests per second of the burst) and the solve count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from ..broker.calls import reset_request_counter
from ..broker.demands import ApplicationDemand
from ..core.kernel import SurfOS
from ..geometry.floorplans import apartment_sites, two_room_apartment
from ..hwmgr.devices import AccessPoint, ClientDevice
from ..orchestrator.optimizers import RandomSearch
from ..orchestrator.tasks import reset_task_counter
from ..pipeline import AdaptiveCoalesceConfig, PipelineConfig
from ..surfaces.catalog import GENERIC_PROGRAMMABLE_28
from ..surfaces.panel import SurfacePanel
from .scenario import CARRIER_HZ

#: Elements per panel side.  Large enough that solve compute dominates
#: the pipeline's tick overhead — the regime the coalescing claim is
#: about — while staying CI-fast (~1 s total).
PANEL_SIZE = 16

#: Optimizer budget per solve (see PANEL_SIZE).
SOLVE_ITERATIONS = 100

#: Sim seconds the pipelined run may take; the burst is served at once.
HORIZON_S = 60.0

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
    """One discipline's outcome over the burst."""

    mode: str
    served: int
    latencies_s: List[float] = field(default_factory=list)
    reoptimizations: int = 0
    span_s: float = 0.0          # burst → last served
    wall_s: float = 0.0          # real compute spent in reoptimize calls

    @property
    def throughput_rps(self) -> float:
        """Served requests per second of the burst."""
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
class BurstResult:
    """Serial vs pipelined over one burst."""

    serial: ModeResult
    pipelined: ModeResult
    requests: int
    seed: int

    @property
    def speedup(self) -> float:
        """Pipelined over serial throughput."""
        if self.serial.throughput_rps <= 0:
            return float("inf")
        return self.pipelined.throughput_rps / self.serial.throughput_rps

    def summary(self) -> Dict[str, object]:
        """Flat form for the benchmark's JSON artifact."""
        return {
            "requests": self.requests,
            "seed": self.seed,
            "speedup": round(self.speedup, 3),
            "serial": self.serial.summary(),
            "pipelined": self.pipelined.summary(),
        }


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


def build_system(requests: int, seed: int = 0) -> SurfOS:
    """The apartment with one programmable panel and ``requests`` clients.

    Module-level task/request counters are reset so serial and
    pipelined runs see identical ids.
    """
    reset_task_counter()
    reset_request_counter()
    env = two_room_apartment()
    sites = apartment_sites()
    system = SurfOS(
        env,
        frequency_hz=CARRIER_HZ,
        optimizer=RandomSearch(max_iterations=SOLVE_ITERATIONS, seed=seed),
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
            PANEL_SIZE,
            PANEL_SIZE,
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


def run_serial(requests: int = 10, seed: int = 0) -> ModeResult:
    """The pre-pipeline discipline: one full solve per request.

    A busy server: request ``i`` is served once the solves of requests
    ``0..i`` have run, so its latency is the running sum of their
    measured wall times and settles.
    """
    system = build_system(requests, seed=seed)
    result = ModeResult(mode="serial", served=0)
    done = 0.0
    for demand in _demands(requests):
        system.broker.register_application(demand)
        began = time.perf_counter()
        reopt = system.orchestrator.reoptimize()
        wall = time.perf_counter() - began
        result.wall_s += wall
        result.reoptimizations += 1
        done += wall + reopt.settle_s
        result.latencies_s.append(done)
        result.served += 1
    result.span_s = done
    return result


def run_pipelined(requests: int = 10, seed: int = 0) -> ModeResult:
    """The burst through the request pipeline under adaptive coalescing.

    The pipeline does not charge compute to the sim clock, so each
    served request's sim latency is the settle alone; the measured
    solve wall time is added to it.
    """
    system = build_system(requests, seed=seed)
    pipeline = system.attach_pipeline(
        PipelineConfig(adaptive=AdaptiveCoalesceConfig())
    )
    burst_at = pipeline.clock.now
    for demand in _demands(requests):
        pipeline.submit(demand)
    pipeline.pump(burst_at + HORIZON_S)
    stats = pipeline.stats
    wall = stats.reoptimize_wall_s
    return ModeResult(
        mode="pipelined",
        served=len(stats.latencies),
        latencies_s=[latency + wall for latency in stats.latencies],
        reoptimizations=stats.reoptimizations,
        span_s=pipeline.core.last_served_at - burst_at + wall,
        wall_s=wall,
    )


def run(requests: int = 10, seed: int = 0) -> BurstResult:
    """Both disciplines over one burst; the benchmark entry point."""
    return BurstResult(
        serial=run_serial(requests, seed=seed),
        pipelined=run_pipelined(requests, seed=seed),
        requests=requests,
        seed=seed,
    )
