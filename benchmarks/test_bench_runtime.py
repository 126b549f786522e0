"""Runtime bench — the daemon's detect→reoptimize reaction loop (§5).

"Events such as furniture movement and people walking can require
dynamic reconfiguration of surface states."  This bench walks a person
through the serving beam and measures the daemon's reaction: anomalies
detected, re-optimizations fired, and SNR recovered.
"""

import numpy as np
from conftest import run_once

from repro import SurfOS, ghz
from repro.analysis.tables import render_table
from repro.geometry import apartment_sites, two_room_apartment
from repro.hwmgr import AccessPoint, ClientDevice
from repro.mobility import WaypointWalker
from repro.orchestrator import Adam
from repro.runtime import Walker
from repro.surfaces import GENERIC_PROGRAMMABLE_28, SurfacePanel

FREQ = ghz(28)


def run_reaction_scenario():
    env = two_room_apartment()
    sites = apartment_sites()
    system = SurfOS(
        env,
        frequency_hz=FREQ,
        optimizer=Adam(max_iterations=60),
        grid_spacing_m=1.0,
    )
    system.add_access_point(
        AccessPoint("ap", sites.ap_position, 4, FREQ, boresight=(1, 0.3, 0))
    )
    system.add_surface(
        SurfacePanel(
            "s1",
            GENERIC_PROGRAMMABLE_28,
            16,
            16,
            sites.single_surface_center,
            sites.single_surface_normal,
        )
    )
    system.add_client(ClientDevice("phone", (6.5, 1.5, 1.0)))
    system.boot(observe_room="bedroom")
    system.orchestrator.optimize_coverage("bedroom")
    system.reoptimize()
    system.dynamics.add_walker(
        Walker(
            "person",
            model=WaypointWalker([(5.6, 3.2), (8.0, 1.0)], speed_mps=1.5),
        )
    )
    records = system.daemon.run(steps=12, dt=0.5)
    return system, records


def test_bench_runtime_reaction(benchmark):
    system, records = run_once(benchmark, run_reaction_scenario)
    print()
    # Timings come from the telemetry event log, not the daemon's own
    # bookkeeping: every reaction emits a ``daemon.reaction`` event.
    reactions = system.telemetry.events("daemon.reaction")
    rows = [
        (
            f"{e.attrs['detected_at']:.2f}s",
            f"{e.attrs['reaction_latency_s'] * 1e3:.2f} ms",
            f"{e.attrs['median_snr_before_db']:.1f}",
            f"{e.attrs['median_snr_after_db']:.1f}",
        )
        for e in reactions
    ]
    print(
        render_table(
            ("detected", "reaction latency", "median SNR before", "after"),
            rows,
            title="Runtime: daemon reactions to human blockage",
        )
    )
    health = system.daemon.monitor.health_report()
    print(f"monitor: {health}")
    # The walker must trigger detections and at least one reoptimize.
    assert system.daemon.monitor.anomalies
    assert records
    # The telemetry log mirrors the daemon's reaction records.
    assert len(reactions) == len(records)
    assert system.telemetry.get_counter("daemon.reactions") == len(records)
    # Reaction latency is bounded by the control-plane settle time.
    assert all(
        0.0 <= e.attrs["reaction_latency_s"] < 0.5 for e in reactions
    )
