"""Cross-network blocking audits (§2.1's coexistence hazard)."""

import numpy as np

from repro.core.units import ghz
from repro.channel import ula_node
from repro.em import LinkBudget
from repro.geometry import Environment, vec3
from repro.services import VictimNetwork, audit_network, audit_networks
from repro.surfaces import (
    GENERIC_PROGRAMMABLE_28,
    OperationMode,
    SignalProperty,
    SurfacePanel,
    SurfaceSpec,
)


def make_env():
    # Open space: no reflective detours, so blockage reads directly.
    return Environment(name="open", ceiling_height=3.0)


def victim(freq=ghz(5.0), name="5GHz-WiFi"):
    ap = ula_node("victim-ap", vec3(0.5, 2.0, 1.2), 2, freq, (0, 0, 1), (1, 0, 0))
    # A straight corridor of points behind the panel position, at the
    # panel's height so every link crosses its footprint.
    points = np.stack(
        [np.linspace(4.0, 9.0, 8), np.full(8, 2.0), np.full(8, 1.2)], axis=1
    )
    return VictimNetwork(
        name=name,
        ap=ap,
        budget=LinkBudget(bandwidth_hz=80e6),
        frequency_hz=freq,
        points=points,
    )


def blocking_panel(loss_db=12.0, pid="foreign"):
    spec = SurfaceSpec(
        design="blocker-28",
        band_hz=(ghz(27), ghz(29)),
        properties=frozenset([SignalProperty.PHASE]),
        operation_mode=OperationMode.REFLECTIVE,
        reconfigurable=True,
        out_of_band_loss_db=loss_db,
    )
    # Large panel squarely across the corridor LoS.
    return SurfacePanel(pid, spec, 96, 96, vec3(3.0, 2.0, 1.2), vec3(1, 0, 0))


class TestAuditNetwork:
    def test_blocking_panel_degrades_victim(self):
        env = make_env()
        panel = blocking_panel(loss_db=12.0)
        report = audit_network(env, [panel], victim())
        assert report.median_drop_db > 5.0
        assert report.worst_point_drop_db >= report.median_drop_db - 1e-9
        assert "foreign" in report.hazard_panels

    def test_drop_tracks_through_loss(self):
        env = make_env()
        light = audit_network(env, [blocking_panel(loss_db=3.0)], victim())
        heavy = audit_network(env, [blocking_panel(loss_db=20.0)], victim())
        assert heavy.median_drop_db > light.median_drop_db

    def test_in_band_transmissive_panel_harmless(self):
        env = make_env()
        spec = SurfaceSpec(
            design="friendly-5",
            band_hz=(ghz(4.9), ghz(5.1)),
            properties=frozenset([SignalProperty.PHASE]),
            operation_mode=OperationMode.TRANSMISSIVE,
            reconfigurable=True,
            out_of_band_loss_db=10.0,
        )
        panel = SurfacePanel("friendly", spec, 32, 32, vec3(3.0, 2.0, 1.2), vec3(1, 0, 0))
        report = audit_network(env, [panel], victim())
        assert report.hazard_panels == ()
        # In-band transmissive hardware costs ~1 dB, not 10.
        assert report.median_drop_db < 2.0

    def test_panel_off_the_path_harmless(self):
        env = make_env()
        spec = blocking_panel().spec
        aside = SurfacePanel(
            "aside", spec, 32, 32, vec3(3.0, 3.9, 1.2), vec3(1, 0, 0)
        )
        report = audit_network(env, [aside], victim())
        assert report.median_drop_db < 0.5
        # Still flagged as a *potential* hazard by its through-loss.
        assert "aside" in report.hazard_panels

    def test_multi_network_audit(self):
        env = make_env()
        panel = blocking_panel(loss_db=12.0)
        reports = audit_networks(
            env,
            [panel],
            [victim(ghz(2.4), "2.4GHz"), victim(ghz(5.0), "5GHz")],
        )
        assert [r.network for r in reports] == ["2.4GHz", "5GHz"]
        for r in reports:
            assert r.median_drop_db > 3.0
            assert "drop" in r.describe()

    def test_serving_panel_not_counted_against_own_network(self):
        """A panel never blocks the network it belongs to: on its own
        band it redirects (modeled via its configuration), and the
        audit's obstacle model applies to *foreign* carriers."""
        env = make_env()
        own = SurfacePanel(
            "own",
            GENERIC_PROGRAMMABLE_28,
            16,
            16,
            vec3(3.0, 3.9, 1.5),
            vec3(0, -1, 0),
        )
        report = audit_network(env, [own], victim(ghz(28.0), "28GHz-own"))
        # Reflective panel on its own band: flagged (it does block
        # through-paths) but off-path here, so no measured drop.
        assert report.median_drop_db < 1.0
