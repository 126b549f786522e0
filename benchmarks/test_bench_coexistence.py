"""Ablation — unintended blocking of other networks (§2.1).

A 28 GHz reflective deployment is audited against 2.4 GHz and 5 GHz
victim networks sharing the apartment: the audit quantifies the
coverage each victim loses to the foreign panels and flags the hazard
hardware — the monitoring/diagnosis capability §5 says the central
control plane enables.
"""

from conftest import run_once

from repro.analysis.tables import render_table
from repro.channel import ula_node
from repro.core.units import ghz
from repro.em import LinkBudget
from repro.experiments import build_scenario
from repro.geometry import vec3
from repro.services import VictimNetwork, audit_networks


def run_audit():
    scenario = build_scenario()
    env = scenario.env
    # The deployed mmWave hardware from the Fig. 4 hybrid, oversized to
    # make the audit's point.
    panels = [
        scenario.passive_panel(64, panel_id="passive-backhaul"),
        scenario.programmable_panel(24, panel_id="prog-steer"),
    ]
    victims = []
    for freq, name in ((ghz(2.4), "2.4GHz-WiFi"), (ghz(5.0), "5GHz-WiFi")):
        ap = ula_node(
            f"ap-{name}", vec3(2.5, 0.4, 2.2), 2, freq, (0, 0, 1), (0.3, 1, 0)
        )
        victims.append(
            VictimNetwork(
                name=name,
                ap=ap,
                budget=LinkBudget(tx_power_dbm=17.0, bandwidth_hz=80e6),
                frequency_hz=freq,
                points=env.room("living").grid(0.8, z=1.2),
            )
        )
    return audit_networks(env, panels, victims)


def test_bench_coexistence(benchmark):
    reports = run_once(benchmark, run_audit)
    print()
    print(
        render_table(
            ("victim network", "median w/o (dB)", "median with (dB)",
             "median drop", "worst drop", "hazard panels"),
            [
                (
                    r.network,
                    f"{r.median_snr_without_db:.1f}",
                    f"{r.median_snr_with_db:.1f}",
                    f"{r.median_drop_db:.1f}",
                    f"{r.worst_point_drop_db:.1f}",
                    ", ".join(r.hazard_panels),
                )
                for r in reports
            ],
            title="Coexistence audit: mmWave deployment vs sub-6 networks",
        )
    )
    for report in reports:
        # Out-of-band reflective panels are flagged for every victim.
        assert set(report.hazard_panels) == {"passive-backhaul", "prog-steer"}
        # Some victim locations measurably suffer.
        assert report.worst_point_drop_db > 1.0
