"""Fleet scenario: three zones, one global broker, a roaming client.

A three-shard fleet (zones ``z1``/``z2``/``z3``) serves a seeded
workload of application demands whose client ids carry zone tags
(``"z2:cl-4"``).  Mid-run the scenario exercises the two fleet-level
control paths the single-environment stack cannot express:

* **Quarantine + spill** — one shard is quarantined partway through;
  requests that would have landed there spill to fallback shards, and
  the SLO gate asserts no interactive (latency-sensitive) request is
  dropped.
* **Roaming handoff** — one client "walks" from its home zone to a
  neighbour; its application is handed off between shards without
  losing service (``fleet.rebalanced``).

Everything runs on the shared sim clock with seeded arrivals, so the
same seed produces byte-identical sim-only telemetry exports — the CLI
``fleet`` command and the ``scenario-smoke`` CI job diff exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..analysis.tables import render_table
from ..broker.calls import reset_request_counter
from ..broker.demands import ApplicationDemand
from ..broker.handle import HandleStatus, ServiceHandle
from ..fleet import (
    CongestionAware,
    FleetBroker,
    LeastLoaded,
    PlacementStrategy,
    ShardSpec,
    StaticZoneMap,
)
from ..orchestrator.tasks import reset_task_counter
from .result import ExperimentResultBase

#: Elements per panel side — small: three full SurfOS stacks boot here.
PANEL_SIZE = 6

#: Default fleet size (zones z1..zN).
SHARDS = 3

#: Application archetypes cycled across arriving clients.  Cloud gaming
#: carries a sub-20 ms bound, so it classes INTERACTIVE in the shard
#: queues — the SLO gate tracks exactly these requests.
_APP_CYCLE = ("video_streaming", "cloud_gaming", "file_transfer")

#: Per-archetype demand parameters (throughput Mb/s, latency ms, priority).
_APP_PARAMS = {
    "video_streaming": (25.0, None, 6),
    "cloud_gaming": (30.0, 10.0, 8),
    "file_transfer": (120.0, None, 3),
}

#: Mean gap between arrivals on the sim clock (seconds).
_ARRIVAL_GAP_S = 0.25

#: Tick step of the fleet engine.
_TICK_DT_S = 0.1


def make_strategy(name: str, shards: int) -> PlacementStrategy:
    """Build a placement strategy by CLI name."""
    if name == "zone":
        zones = {f"z{i}": f"z{i}" for i in range(1, shards + 1)}
        return StaticZoneMap(zones)
    if name == "least-loaded":
        return LeastLoaded()
    if name == "congestion":
        return CongestionAware()
    raise ValueError(
        f"unknown strategy {name!r} (zone, least-loaded, congestion)"
    )


def build_fleet(
    shards: int = SHARDS,
    seed: int = 0,
    strategy: str = "congestion",
    panel_size: int = PANEL_SIZE,
    queue_capacity: int = 64,
    scene: str = "two-room",
) -> FleetBroker:
    """A seeded N-shard fleet with reset id counters (determinism)."""
    reset_task_counter()
    reset_request_counter()
    specs = [
        ShardSpec(
            shard_id=f"z{i}",
            zone=f"z{i}",
            seed=seed + i,
            panel_size=panel_size,
            queue_capacity=queue_capacity,
            scene=scene,
        )
        for i in range(1, shards + 1)
    ]
    return FleetBroker(
        specs,
        strategy=make_strategy(strategy, shards),
    )


def _demands(
    requests: int, shards: int, seed: int
) -> List[ApplicationDemand]:
    """Seeded workload: each request homed to a seeded zone."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(requests):
        app = _APP_CYCLE[i % len(_APP_CYCLE)]
        throughput, latency, priority = _APP_PARAMS[app]
        zone = int(rng.integers(1, shards + 1))
        out.append(
            ApplicationDemand(
                app_name=app,
                client_id=f"z{zone}:cl-{i}",
                room_id="bedroom",
                throughput_mbps=throughput,
                latency_ms=latency,
                priority=priority,
            )
        )
    return out


@dataclass
class FleetResult(ExperimentResultBase):
    """Outcome of one fleet scenario run."""

    shards: int
    requests: int
    seed: int
    strategy: str
    #: Final handle status value per request key, in submission order.
    statuses: Dict[str, str] = field(default_factory=dict)
    #: Shard id each request landed on ("" = rejected at fleet level).
    placements: Dict[str, str] = field(default_factory=dict)
    routed: int = 0
    spilled: int = 0
    rejected: int = 0
    rebalanced: int = 0
    interactive_total: int = 0
    interactive_served: int = 0
    quarantined_shard: str = ""
    handoff_key: str = ""

    @property
    def served(self) -> int:
        """Requests that reached RUNNING (or completed)."""
        return sum(
            1
            for status in self.statuses.values()
            if status in ("running", "completed")
        )

    @property
    def slo_met(self) -> bool:
        """The gate: every interactive request was served, none dropped."""
        return self.interactive_served == self.interactive_total

    def gate_failures(self) -> List[str]:
        """Quarantine spill must never drop interactive requests."""
        if self.slo_met:
            return []
        return [
            f"interactive SLO missed ({self.interactive_served}/"
            f"{self.interactive_total} served)"
        ]

    def summary(self) -> Dict[str, object]:
        """Flat form for JSON artifacts and the CI gate."""
        return {
            "shards": self.shards,
            "requests": self.requests,
            "seed": self.seed,
            "strategy": self.strategy,
            "served": self.served,
            "routed": self.routed,
            "spilled": self.spilled,
            "rejected": self.rejected,
            "rebalanced": self.rebalanced,
            "interactive_total": self.interactive_total,
            "interactive_served": self.interactive_served,
            "slo_met": self.slo_met,
            "quarantined_shard": self.quarantined_shard,
        }

    def render(self) -> str:
        """Human-readable per-shard placement table plus the gate line."""
        per_shard: Dict[str, int] = {}
        for shard_id in self.placements.values():
            if shard_id:
                per_shard[shard_id] = per_shard.get(shard_id, 0) + 1
        rows = [
            (
                sid,
                str(count),
                "quarantined" if sid == self.quarantined_shard else "",
            )
            for sid, count in sorted(per_shard.items())
        ]
        table = render_table(
            ("shard", "placed", "note"),
            rows,
            title=(
                f"Fleet: {self.requests} requests over {self.shards} "
                f"shards, strategy {self.strategy} (seed {self.seed})"
            ),
        )
        gate = "met" if self.slo_met else "MISSED"
        return (
            f"{table}\n"
            f"served {self.served}/{self.requests}; "
            f"spilled {self.spilled}, rejected {self.rejected}, "
            f"rebalanced {self.rebalanced}\n"
            f"interactive SLO {gate}: "
            f"{self.interactive_served}/{self.interactive_total} served"
        )


def run(
    shards: int = SHARDS,
    requests: int = 12,
    seed: int = 0,
    strategy: str = "congestion",
    panel_size: int = PANEL_SIZE,
    jsonl: Optional[str] = None,
    fleet: Optional[FleetBroker] = None,
    horizon_s: float = 60.0,
    scene: str = "two-room",
) -> FleetResult:
    """The fleet scenario: seeded arrivals, mid-run quarantine, handoff."""
    if fleet is None:
        fleet = build_fleet(
            shards=shards,
            seed=seed,
            strategy=strategy,
            panel_size=panel_size,
            scene=scene,
        )
    demands = _demands(requests, shards, seed)
    rng = np.random.default_rng(seed + 17)
    gaps = rng.exponential(_ARRIVAL_GAP_S, size=requests)
    arrivals = np.cumsum(gaps) - gaps[0]
    handles: Dict[str, ServiceHandle] = {}

    def _submit(demand: ApplicationDemand) -> None:
        handles[f"{demand.app_name}@{demand.client_id}"] = fleet.submit(
            demand
        )

    for at, demand in zip(arrivals, demands):
        fleet.clock.schedule(float(at), lambda d=demand: _submit(d))

    # Mid-run events on the shared clock: quarantine the last shard
    # once a third of the trace is in, hand the first request's client
    # over to the next zone at the two-thirds mark.
    quarantined = f"z{shards}" if shards > 1 else ""
    if quarantined:
        fleet.clock.schedule(
            float(arrivals[requests // 3]),
            lambda: fleet.quarantine_shard(quarantined, reason="scenario"),
        )
    handoff_key = ""
    if shards > 1 and requests:
        first = demands[0]
        handoff_key = f"{first.app_name}@{first.client_id}"

        def _handoff() -> None:
            # The roaming client left wherever it is currently served;
            # move it to the first other healthy shard.
            handle = handles.get(handoff_key)
            if handle is None or handle.status is not HandleStatus.RUNNING:
                return
            current = handle.routing.shard_id if handle.routing else ""
            targets = [
                f"z{i}"
                for i in range(1, shards + 1)
                if f"z{i}" not in (current, quarantined)
            ]
            if targets:
                handles[handoff_key] = fleet.handoff(
                    first.app_name, first.client_id, targets[0]
                )

        fleet.clock.schedule(
            float(arrivals[(2 * requests) // 3]) + _TICK_DT_S, _handoff
        )

    while fleet.clock.now < horizon_s:
        fleet.tick(_TICK_DT_S)
        settled = sum(
            1
            for handle in handles.values()
            if handle.status
            not in (HandleStatus.QUEUED, HandleStatus.ADMITTED)
        )
        if len(handles) >= requests and settled >= requests:
            if not any(
                shard.pipeline.queue.depth
                for shard in fleet.shards.values()
            ):
                break

    result = FleetResult(
        shards=shards,
        requests=requests,
        seed=seed,
        strategy=strategy,
        quarantined_shard=quarantined,
        handoff_key=handoff_key,
    )
    for demand in demands:
        key = f"{demand.app_name}@{demand.client_id}"
        handle = handles.get(key)
        status = handle.status.value if handle is not None else "missing"
        result.statuses[key] = status
        routing = getattr(handle, "routing", None)
        result.placements[key] = routing.shard_id if routing else ""
        if demand.latency_sensitive:
            result.interactive_total += 1
            if status in ("running", "completed"):
                result.interactive_served += 1
    telemetry = fleet.telemetry
    result.routed = int(telemetry.get_counter("fleet.routed"))
    result.spilled = int(telemetry.get_counter("fleet.spilled"))
    result.rejected = int(telemetry.get_counter("fleet.rejected"))
    result.rebalanced = int(telemetry.get_counter("fleet.rebalanced"))
    if jsonl:
        fleet.export_jsonl(jsonl, sim_only=True)
    return result
