"""End-to-end orchestrator flows on the apartment scenario."""

import pytest

from repro.core.errors import ServiceError
from repro.core.units import ghz
from repro.geometry import apartment_sites, two_room_apartment
from repro.hwmgr import AccessPoint, ClientDevice, HardwareManager
from repro.orchestrator import Adam, SurfaceOrchestrator, TaskState
from repro.surfaces import (
    GENERIC_PASSIVE_28,
    GENERIC_PROGRAMMABLE_28,
    SurfacePanel,
)

FREQ = ghz(28)


@pytest.fixture()
def deployment():
    env = two_room_apartment()
    sites = apartment_sites()
    hw = HardwareManager()
    hw.register_access_point(
        AccessPoint("ap", sites.ap_position, 4, FREQ, boresight=(1, 0.3, 0))
    )
    hw.register_client(ClientDevice("phone", (6.5, 1.5, 1.0)))
    hw.register_client(ClientDevice("headset", (6.0, 2.5, 1.0)))
    hw.register_surface(
        SurfacePanel(
            "s1",
            GENERIC_PROGRAMMABLE_28,
            16,
            16,
            sites.single_surface_center,
            sites.single_surface_normal,
        )
    )
    orch = SurfaceOrchestrator(
        env,
        hw,
        FREQ,
        optimizer=Adam(max_iterations=60),
        grid_spacing_m=1.0,
    )
    return env, hw, orch


class TestServiceAPIs:
    def test_coverage_task_lifecycle(self, deployment):
        _, _, orch = deployment
        task = orch.optimize_coverage("bedroom", median_snr=20.0)
        assert task.state is TaskState.READY
        orch.reoptimize()
        assert task.state is TaskState.RUNNING
        assert "median_snr_db" in task.metrics

    def test_enhance_link_improves_client_snr(self, deployment):
        _, _, orch = deployment
        task = orch.enhance_link("phone", snr=25.0)
        before = orch.evaluate_task(task.task_id)["median_snr_db"]
        orch.reoptimize()
        after = orch.evaluate_task(task.task_id)["median_snr_db"]
        assert after > before + 3.0

    def test_multiple_tasks_coexist_via_joint_multiplexing(self, deployment):
        _, _, orch = deployment
        t1 = orch.optimize_coverage("bedroom")
        t2 = orch.enhance_link("phone", snr=25.0)
        t3 = orch.enable_sensing("bedroom")
        orch.reoptimize()
        for t in (t1, t2, t3):
            assert t.state is TaskState.RUNNING
        for t in (t1, t2, t3):
            assert [s.shared_group for s in orch.scheduler.slices_of(t.task_id)] == [
                "joint"
            ]

    def test_powering_task(self, deployment):
        _, _, orch = deployment
        task = orch.init_powering("phone", duration=100.0)
        orch.reoptimize()
        assert task.metrics["median_snr_db"] > -40

    def test_security_task_records_secrecy(self, deployment):
        _, _, orch = deployment
        task = orch.protect_link("phone", eavesdropper_position=(7.5, 0.8, 1.0))
        orch.reoptimize()
        assert "secrecy_margin_db" in task.metrics
        assert task.metrics["secrecy_margin_db"] > 10.0

    def test_reoptimize_without_tasks_rejected(self, deployment):
        _, _, orch = deployment
        with pytest.raises(ServiceError):
            orch.reoptimize()

    def test_unknown_client_rejected(self, deployment):
        _, _, orch = deployment
        from repro.core.errors import UnknownDeviceError

        with pytest.raises(UnknownDeviceError):
            orch.enhance_link("ghost")

    def test_task_expiry_via_tick(self, deployment):
        _, _, orch = deployment
        task = orch.enable_sensing("bedroom", duration=10.0)
        orch.reoptimize()
        finished = orch.tick(now=orch.clock_now + 11.0)
        assert task.task_id in finished
        assert task.state is TaskState.COMPLETED


class TestPassiveFabrication:
    def test_passive_surface_fabricated_once(self):
        env = two_room_apartment()
        sites = apartment_sites()
        hw = HardwareManager()
        hw.register_access_point(
            AccessPoint("ap", sites.ap_position, 4, FREQ, boresight=(1, 0.3, 0))
        )
        passive = SurfacePanel(
            "pas",
            GENERIC_PASSIVE_28,
            16,
            16,
            sites.single_surface_center,
            sites.single_surface_normal,
        )
        hw.register_surface(passive)
        orch = SurfaceOrchestrator(
            env, hw, FREQ, optimizer=Adam(max_iterations=40), grid_spacing_m=1.0
        )
        orch.optimize_coverage("bedroom")
        orch.reoptimize()
        driver = hw.driver("pas")
        assert driver.fabricated
        # Second reoptimize must fail: nothing left to optimize.
        with pytest.raises(ServiceError):
            orch.reoptimize()


class TestControlDelayAccounting:
    def test_clock_advances_by_control_delay(self, deployment):
        _, hw, orch = deployment
        orch.optimize_coverage("bedroom")
        t0 = orch.clock_now
        orch.reoptimize()
        assert orch.clock_now >= t0 + GENERIC_PROGRAMMABLE_28.control_delay_s
        assert hw.pending_total() == 0  # everything committed
