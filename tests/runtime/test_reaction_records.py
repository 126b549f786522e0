"""Daemon reaction records pinned as literal values.

The records were recorded from the daemon's direct-reoptimize branch,
before that branch was folded into the request pipeline; every
reaction must keep the same detection and completion times, trigger,
SNR before/after, and retraced-leg count bit for bit.
"""

from repro import SurfOS, ghz
from repro.experiments import degradation
from repro.geometry import apartment_sites, two_room_apartment
from repro.hwmgr import AccessPoint, ClientDevice
from repro.mobility import WaypointWalker
from repro.orchestrator import Adam
from repro.runtime import Walker
from repro.surfaces import GENERIC_PROGRAMMABLE_28, SurfacePanel

FREQ = ghz(28)

#: (detected_at, completed_at, trigger, median SNR before, after, legs)
DEGRADATION_SEED_7 = [
    (1.0, 1.0001, "surface-degraded", 11.816833637958554, 12.152832514628248, 0),
]

BLOCKAGE = [
    (1.0, 1.0001, "channel-degraded", 12.450842425083248, 13.778930665490808, 0),
    (3.5, 3.5001, "channel-degraded", 11.502586143902535, 11.682985732214123, 0),
    (4.0, 4.0001, "channel-degraded", 10.756226951365546, 15.07395167971605, 0),
    (4.5, 4.5001, "channel-degraded", 15.07395167971605, 13.920995564626217, 0),
    (5.0, 5.0001, "channel-degraded", 8.978630781852889, 12.579416851050082, 0),
]


def _as_tuples(records):
    return [
        (
            r.detected_at,
            r.completed_at,
            r.trigger,
            r.median_snr_before_db,
            r.median_snr_after_db,
            r.legs_retraced,
        )
        for r in records
    ]


def _apartment():
    """The single-panel apartment of tests/integration/test_broker_kernel.py."""
    env = two_room_apartment()
    sites = apartment_sites()
    system = SurfOS(
        env,
        frequency_hz=FREQ,
        optimizer=Adam(max_iterations=50),
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
    system.add_client(ClientDevice("headset", (6.0, 2.5, 1.0)))
    system.boot(observe_room="bedroom")
    system.orchestrator.optimize_coverage("bedroom")
    system.reoptimize()
    return system


def test_degradation_seed_7_records():
    system = degradation.build_system(seed=7)
    result = degradation.run(seed=7, system=system)
    assert _as_tuples(system.daemon.reactions) == DEGRADATION_SEED_7
    assert result.reoptimize_failures == 0


def test_blockage_records():
    system = _apartment()
    system.dynamics.add_walker(
        Walker(
            "person",
            model=WaypointWalker([(5.6, 3.2), (8.0, 1.0)], speed_mps=1.5),
        )
    )
    records = system.daemon.run(steps=10, dt=0.5)
    assert _as_tuples(records) == BLOCKAGE
    assert _as_tuples(system.daemon.reactions) == BLOCKAGE
    assert len(system.daemon.monitor.anomalies) == 26


def test_every_reaction_event_has_one_schema():
    """Each ``daemon.reaction`` event names its legs and coalesced triggers."""
    system = degradation.build_system(seed=7)
    degradation.run(seed=7, system=system)
    events = system.telemetry.events("daemon.reaction")
    assert [e.attrs["legs_retraced"] for e in events] == [
        r.legs_retraced for r in system.daemon.reactions
    ]
    assert [e.attrs["coalesced"] for e in events] == [1]


def test_quiet_run_records_nothing():
    system = _apartment()
    assert system.daemon.run(steps=5, dt=0.5) == []
    assert system.daemon.reactions == []


def test_unsatisfiable_reaction_counts_a_failure():
    """Every panel dead: the reaction fails, the daemon keeps running."""
    system = degradation.build_system(seed=7)
    kill = [panel.panel_id for panel in system.hardware.panels()]
    result = degradation.run(seed=7, kill=kill, system=system)
    assert result.reoptimize_failures == 1
    assert system.daemon.reactions == []
    failed = [
        e.attrs
        for e in system.telemetry.events()
        if e.name == "daemon.reoptimize_failed"
    ]
    assert [a["trigger"] for a in failed] == ["surface-degraded"]
    assert "no optimizable surfaces" in failed[0]["error"]
