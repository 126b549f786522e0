"""Fleet bench — routing overhead over direct single-broker dispatch.

Runs the same seeded workload twice and compares per-request dispatch
time end to end (submit → RUNNING, coalesced solves included):

* **direct** — requests go straight into one shard's pipeline, the
  plain single-broker path every pre-fleet caller used, and
* **fleet** — the identical shard sits behind a :class:`FleetBroker`,
  so every request additionally pays placement (load snapshot +
  strategy ranking) and routing-decision stamping.

The headline gate: fleet routing adds **<10%** to single-broker
dispatch.  Placement runs off a cached load snapshot refreshed per
tick, so the routing layer costs dict lookups and one ranking pass per
request — noise-level against the millisecond-scale solve pipeline.
Both paths are measured ``TRIALS`` times interleaved and compared on
their medians to keep scheduler jitter out of the gate.

A 3-shard congestion-aware scenario run is recorded alongside as data
(placements, spills, SLO), not gated here — ``tests/fleet/`` gates its
semantics.

Results land in ``BENCH_fleet.json`` at the repo root.

Set ``PERF_BENCH_SMALL=1`` for the CI smoke variant (fewer requests
and trials, overhead gate still asserted).
"""

import json
import os
import statistics
import time
from pathlib import Path

from _meta import bench_meta
from conftest import run_once

from repro.analysis.tables import render_table
from repro.broker.calls import reset_request_counter
from repro.broker.demands import ApplicationDemand
from repro.broker.handle import HandleStatus
from repro.experiments import fleet as fleet_experiment
from repro.fleet import (
    EnvironmentShard,
    FleetBroker,
    ShardSpec,
    StaticZoneMap,
)
from repro.orchestrator.tasks import reset_task_counter
from repro.runtime.clock import SimClock
from repro.telemetry import Telemetry

SMALL = bool(os.environ.get("PERF_BENCH_SMALL"))
REQUESTS = 10 if SMALL else 20
TRIALS = 3 if SMALL else 5
PANEL_SIZE = 4
SEED = 1
MAX_TICKS = 400
OVERHEAD_GATE_PCT = 10.0

OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_fleet.json"


def _demands():
    return [
        ApplicationDemand(
            app_name=f"app-{i}",
            client_id=f"z1:cl-{i}",
            room_id="bedroom",
            throughput_mbps=10.0,
            priority=5,
        )
        for i in range(REQUESTS)
    ]


def _spec():
    return ShardSpec(
        shard_id="z1", zone="z1", seed=SEED, panel_size=PANEL_SIZE
    )


def _drive(submit, tick):
    """Submit the workload, tick until served; wall seconds per request."""
    start = time.perf_counter()
    handles = [submit(demand) for demand in _demands()]
    for _ in range(MAX_TICKS):
        tick()
        if all(h.status is HandleStatus.RUNNING for h in handles):
            break
    elapsed = time.perf_counter() - start
    served = sum(
        1 for h in handles if h.status is HandleStatus.RUNNING
    )
    assert served == REQUESTS, f"only {served}/{REQUESTS} served"
    return elapsed / REQUESTS


def _direct_dispatch_s():
    """Per-request dispatch through a bare single-shard pipeline."""
    reset_task_counter()
    reset_request_counter()
    clock = SimClock()
    telemetry = Telemetry()
    telemetry.bind_sim_clock(lambda: clock.now)
    shard = EnvironmentShard(_spec(), clock=clock, telemetry=telemetry)
    for demand in _demands():
        shard.ensure_client(demand.client_id)

    def tick():
        clock.advance(0.1)
        shard.pipeline.tick()

    return _drive(shard.pipeline.submit, tick)


def _fleet_dispatch_s():
    """Per-request dispatch through the same shard behind the fleet."""
    reset_task_counter()
    reset_request_counter()
    fleet = FleetBroker([_spec()], strategy=StaticZoneMap({"z1": "z1"}))
    for demand in _demands():
        fleet.shards["z1"].ensure_client(demand.client_id)
    return _drive(fleet.submit, lambda: fleet.tick(0.1))


def run_fleet_suite():
    direct_trials = []
    fleet_trials = []
    for _ in range(TRIALS):
        direct_trials.append(_direct_dispatch_s())
        fleet_trials.append(_fleet_dispatch_s())
    direct_s = statistics.median(direct_trials)
    fleet_s = statistics.median(fleet_trials)
    overhead_pct = (fleet_s / direct_s - 1.0) * 100.0

    scenario = fleet_experiment.run(
        shards=3,
        requests=9 if SMALL else 12,
        seed=SEED,
        panel_size=PANEL_SIZE,
    )
    return {
        "small": SMALL,
        "requests": REQUESTS,
        "trials": TRIALS,
        "direct_dispatch_ms": round(direct_s * 1e3, 4),
        "fleet_dispatch_ms": round(fleet_s * 1e3, 4),
        "routing_overhead_pct": round(overhead_pct, 2),
        "overhead_gate_pct": OVERHEAD_GATE_PCT,
        "scenario_3shard": scenario.summary(),
    }


def test_bench_fleet(benchmark):
    results = run_once(benchmark, run_fleet_suite)
    results["meta"] = bench_meta()
    OUTPUT.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")

    print()
    print(
        render_table(
            ("path", "ms/request"),
            [
                ("direct", f"{results['direct_dispatch_ms']:.3f}"),
                ("fleet", f"{results['fleet_dispatch_ms']:.3f}"),
            ],
            title=(
                f"Fleet routing overhead: "
                f"{results['routing_overhead_pct']:+.2f}% "
                f"({REQUESTS} requests, median of {TRIALS})"
            ),
        )
    )
    print(f"results written to {OUTPUT}")

    assert results["routing_overhead_pct"] < OVERHEAD_GATE_PCT, results
    assert results["scenario_3shard"]["slo_met"], results
