"""Data-plane beam tracking: codebook + endpoint feedback (§3.1).

"Surface drivers manage surfaces by updating surfaces' locally stored
configurations, analogous to … beamforming codebooks for 802.11ad APs.
Based on the endpoint feedback, a surface reacts locally to choose the
best configuration."  This test closes the loop through the channel
simulator: a client moves, a beam sweep measures RSS per stored
configuration, and the driver's local selection follows the client —
with zero control-plane writes.
"""

import numpy as np
import pytest

from repro.channel import ChannelSimulator
from repro.core.units import ghz
from repro.drivers import FeedbackReport, ProgrammablePhaseDriver
from repro.em import beam_codebook_targets
from repro.geometry import apartment_sites, two_room_apartment
from repro.hwmgr import ClientDevice
from repro.services import snr_map_db

FREQ = ghz(28)


@pytest.fixture()
def tracking_setup(ap, budget):
    env = two_room_apartment()
    sites = apartment_sites()
    from repro.surfaces import GENERIC_PROGRAMMABLE_28, SurfacePanel

    panel = SurfacePanel(
        "s1",
        GENERIC_PROGRAMMABLE_28,
        20,
        20,
        sites.single_surface_center,
        sites.single_surface_normal,
    )
    driver = ProgrammablePhaseDriver(panel)
    room = env.room("bedroom")
    targets = beam_codebook_targets(
        room.center, (room.x_max - room.x_min - 1, room.y_max - room.y_min - 1),
        beams_x=3, beams_y=3, z=1.0,
    )
    names = driver.load_beam_codebook(sites.ap_position, targets, FREQ, now=0.0)
    driver.commit(now=1.0)
    simulator = ChannelSimulator(env, FREQ)
    return env, panel, driver, simulator, names, targets


def beam_sweep(simulator, ap, panel, driver, client_pos, budget):
    """Measure the client's SNR under every stored configuration."""
    metrics = {}
    point = np.asarray(client_pos, dtype=float)[None, :]
    model = simulator.build(ap, point, [panel])
    for name in driver.stored_configurations():
        config = driver.get_configuration(name)
        x = panel.feasible(config).coefficients().reshape(-1)
        snr = snr_map_db(model, {panel.panel_id: x}, budget)[0]
        metrics[name] = float(snr)
    return metrics


class TestBeamTracking:
    def test_codebook_loaded(self, tracking_setup):
        env, panel, driver, simulator, names, targets = tracking_setup
        assert len(names) == 9
        assert driver.active_configuration_name == "beam0"

    def test_feedback_selects_geometrically_right_beam(
        self, tracking_setup, ap, budget
    ):
        env, panel, driver, simulator, names, targets = tracking_setup
        client = ClientDevice("phone", targets[7])  # near beam7's focus
        metrics = beam_sweep(simulator, ap, panel, driver, client.position, budget)
        chosen = driver.apply_feedback(
            FeedbackReport(client.client_id, metrics)
        )
        # The chosen beam's focal target is among the closest two to
        # the client (beams overlap; adjacency is acceptable).
        chosen_idx = int(chosen.replace("beam", ""))
        dists = [np.linalg.norm(t - client.position) for t in targets]
        assert chosen_idx in np.argsort(dists)[:2]

    def test_selection_follows_moving_client(self, tracking_setup, ap, budget):
        env, panel, driver, simulator, names, targets = tracking_setup
        client = ClientDevice("phone", targets[0])
        picks = []
        for target_idx in (0, 4, 8):
            client.move_to(targets[target_idx])
            metrics = beam_sweep(
                simulator, ap, panel, driver, client.position, budget
            )
            picks.append(
                driver.apply_feedback(FeedbackReport("phone", metrics))
            )
        # The beam choice changed as the client crossed the room.
        assert len(set(picks)) >= 2

    def test_tracking_beats_static_beam(self, tracking_setup, ap, budget):
        env, panel, driver, simulator, names, targets = tracking_setup
        static_name = "beam0"
        snr_static, snr_tracked = [], []
        for target_idx in (2, 4, 6, 8):
            pos = targets[target_idx] + np.array([0.2, -0.2, 0.0])
            metrics = beam_sweep(simulator, ap, panel, driver, pos, budget)
            snr_static.append(metrics[static_name])
            best = max(metrics, key=lambda n: metrics[n])
            snr_tracked.append(metrics[best])
        assert np.mean(snr_tracked) > np.mean(snr_static) + 3.0

    def test_no_control_plane_writes_during_tracking(
        self, tracking_setup, ap, budget
    ):
        env, panel, driver, simulator, names, targets = tracking_setup
        client = ClientDevice("phone", targets[5])
        metrics = beam_sweep(simulator, ap, panel, driver, client.position, budget)
        driver.apply_feedback(FeedbackReport("phone", metrics))
        # Local selection queues nothing: the control plane stays idle.
        assert driver.pending_count() == 0
