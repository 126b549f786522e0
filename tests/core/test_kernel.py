"""SurfOS kernel façade: construction, boot, delegation."""

import numpy as np
import pytest

from repro import SurfOS, SurfOSError, ghz
from repro.geometry import apartment_sites, two_room_apartment, vec3
from repro.hwmgr import AccessPoint, ClientDevice, Sensor
from repro.orchestrator import Adam
from repro.pipeline import PipelineConfig
from repro.surfaces import GENERIC_PROGRAMMABLE_28, SurfacePanel

FREQ = ghz(28)


@pytest.fixture()
def unbooted():
    env = two_room_apartment()
    sites = apartment_sites()
    os_ = SurfOS(
        env, frequency_hz=FREQ, optimizer=Adam(max_iterations=30),
        grid_spacing_m=1.0,
    )
    os_.add_access_point(
        AccessPoint("ap", sites.ap_position, 4, FREQ, boresight=(1, 0.3, 0))
    )
    os_.add_surface(
        SurfacePanel(
            "s1",
            GENERIC_PROGRAMMABLE_28,
            8,
            8,
            sites.single_surface_center,
            sites.single_surface_normal,
        )
    )
    os_.add_client(ClientDevice("phone", (6.5, 1.5, 1.0)))
    return os_


class TestConstruction:
    def test_registration_before_boot(self, unbooted):
        assert unbooted.hardware.surface_ids() == ["s1"]
        assert unbooted.hardware.client("phone") is not None
        assert "not booted" in unbooted.summary()

    def test_sensor_registration(self, unbooted):
        sensor = Sensor("pd", vec3(6, 2, 1), "power", read=lambda: -42.0)
        unbooted.add_sensor(sensor)
        assert unbooted.hardware.sensor("pd").measure() == -42.0

    def test_services_require_boot(self, unbooted):
        with pytest.raises(SurfOSError):
            unbooted.handle_user_demand("charge my phone")
        with pytest.raises(SurfOSError):
            unbooted.translate_only("charge my phone")
        with pytest.raises(SurfOSError):
            unbooted.serve_application("video_streaming", "phone", "bedroom")
        with pytest.raises(SurfOSError):
            unbooted.reoptimize()


class TestBoot:
    def test_boot_wires_all_layers(self, unbooted):
        system = unbooted.boot()
        assert system.orchestrator is not None
        assert system.broker is not None
        assert system.translator is not None
        assert system.daemon is not None
        assert "booted" in system.summary()

    def test_boot_twice_rejected(self, unbooted):
        unbooted.boot()
        with pytest.raises(SurfOSError):
            unbooted.boot()

    def test_boot_returns_self_for_chaining(self, unbooted):
        assert unbooted.boot() is unbooted

    def test_daemon_shares_dynamics_bus(self, unbooted):
        system = unbooted.boot()
        assert system.daemon.bus is system.dynamics.bus

    def test_boot_builds_zero_window_pipeline(self, unbooted):
        assert unbooted.pipeline is None
        system = unbooted.boot()
        pipeline = system.pipeline
        assert system.daemon.pipeline is pipeline
        assert system.daemon.clock is pipeline.clock
        assert pipeline.effective_window_s() == 0.0
        assert system.orchestrator.optimizer.evaluator is pipeline.evaluator

    def test_attach_pipeline_replaces_boot_pipeline(self, unbooted):
        system = unbooted.boot()
        boot_pipeline = system.pipeline
        boot_evaluator = boot_pipeline.evaluator
        pipeline = system.attach_pipeline(PipelineConfig(parallelism=2))
        assert pipeline is not boot_pipeline
        assert system.pipeline is pipeline
        assert system.daemon.pipeline is pipeline
        assert pipeline.clock is system.daemon.clock is boot_pipeline.clock
        # The boot evaluator is closed and the new one is bound.
        with pytest.raises(RuntimeError, match="closed"):
            boot_evaluator.value_many(None, np.zeros((1, 1)))
        assert system.orchestrator.optimizer.evaluator is pipeline.evaluator
        assert pipeline.evaluator.parallelism == 2
        pipeline.close()


class TestDelegation:
    def test_translate_only_does_not_execute(self, unbooted):
        system = unbooted.boot()
        calls = system.translate_only("charge my phone please")
        assert calls and calls[0].function == "init_powering"
        # Nothing was admitted.
        assert system.orchestrator.scheduler.tasks() == []

    def test_reoptimize_kwargs_forwarded(self, unbooted):
        system = unbooted.boot()
        system.orchestrator.enhance_link("phone")
        configs = system.reoptimize(rounds=1)
        assert "s1" in configs
        assert configs["s1"].shape == (8, 8)
