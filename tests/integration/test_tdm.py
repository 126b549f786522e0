"""Time-division multiplexing through the orchestrator (§3.2)."""

import numpy as np
import pytest

from repro.core.errors import ServiceError
from repro.core.units import ghz
from repro.geometry import apartment_sites, two_room_apartment
from repro.hwmgr import AccessPoint, ClientDevice, HardwareManager
from repro.orchestrator import (
    Adam,
    MultiplexStrategy,
    SurfaceOrchestrator,
    TaskState,
)
from repro.surfaces import GENERIC_PROGRAMMABLE_28, SurfacePanel

FREQ = ghz(28)


@pytest.fixture()
def orch():
    env = two_room_apartment()
    sites = apartment_sites()
    hw = HardwareManager()
    hw.register_access_point(
        AccessPoint("ap", sites.ap_position, 4, FREQ, boresight=(1, 0.3, 0))
    )
    hw.register_client(ClientDevice("phone", (6.5, 1.2, 1.0)))
    hw.register_client(ClientDevice("tv", (7.8, 3.4, 1.0)))
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
    return SurfaceOrchestrator(
        env, hw, FREQ, optimizer=Adam(max_iterations=60), grid_spacing_m=1.0
    )


class TestTDM:
    def test_two_tdm_tasks_each_get_a_slot(self, orch):
        a = orch.enhance_link("phone", strategy=MultiplexStrategy.TIME)
        b = orch.enhance_link("tv", strategy=MultiplexStrategy.TIME)
        orch.reoptimize()
        assert a.state is TaskState.RUNNING
        assert b.state is TaskState.RUNNING
        for task in (a, b):
            slices = orch.scheduler.slices_of(task.task_id)
            assert min(s.time_fraction for s in slices) == pytest.approx(0.5)
        driver = orch.hardware.driver("s1")
        stored = driver.stored_configurations()
        assert f"task-{a.task_id}" in stored
        assert f"task-{b.task_id}" in stored

    def test_slot_switching_changes_live_config(self, orch):
        a = orch.enhance_link("phone", strategy=MultiplexStrategy.TIME)
        b = orch.enhance_link("tv", strategy=MultiplexStrategy.TIME)
        orch.reoptimize()
        driver = orch.hardware.driver("s1")
        orch.activate_task_slot(a.task_id)
        phases_a = driver.panel.configuration.phases.copy()
        orch.activate_task_slot(b.task_id)
        phases_b = driver.panel.configuration.phases.copy()
        assert not np.allclose(phases_a, phases_b)
        assert driver.active_configuration_name == f"task-{b.task_id}"

    def test_each_slot_serves_its_own_client_best(self, orch):
        a = orch.enhance_link("phone", strategy=MultiplexStrategy.TIME)
        b = orch.enhance_link("tv", strategy=MultiplexStrategy.TIME)
        orch.reoptimize()

        def snr_of(task):
            return orch.evaluate_task(task.task_id)["median_snr_db"]

        orch.activate_task_slot(a.task_id)
        a_during_a = snr_of(a)
        b_during_a = snr_of(b)
        orch.activate_task_slot(b.task_id)
        b_during_b = snr_of(b)
        a_during_b = snr_of(a)
        assert a_during_a > a_during_b
        assert b_during_b > b_during_a

    def test_tdm_metrics_use_own_slot(self, orch):
        a = orch.enhance_link("phone", strategy=MultiplexStrategy.TIME)
        b = orch.enhance_link("tv", strategy=MultiplexStrategy.TIME)
        orch.reoptimize()
        # Each task's recorded SNR must be the good (own-slot) one.
        for task in (a, b):
            orch.activate_task_slot(task.task_id)
            live = orch.evaluate_task(task.task_id)["median_snr_db"]
            assert task.metrics["median_snr_db"] == pytest.approx(
                live, abs=1.0
            )

    def test_joint_and_tdm_coexist(self, orch):
        # The joint group leaves half the time axis for TDM tasks.
        joint = orch.optimize_coverage("bedroom", time_fraction=0.5)
        tdm = orch.enhance_link("phone", strategy=MultiplexStrategy.TIME)
        orch.reoptimize()
        # The joint configuration is live; the TDM slot is stored.
        driver = orch.hardware.driver("s1")
        assert driver.active_configuration_name == "orchestrated"
        assert f"task-{tdm.task_id}" in driver.stored_configurations()
        slices = orch.scheduler.slices_of(tdm.task_id)
        assert min(s.time_fraction for s in slices) == 0.5
        # Switching into the TDM slot is still possible.
        orch.activate_task_slot(tdm.task_id)
        assert driver.active_configuration_name == f"task-{tdm.task_id}"

    def test_activate_unknown_slot_rejected(self, orch):
        orch.optimize_coverage("bedroom")
        orch.reoptimize()
        with pytest.raises(ServiceError):
            orch.activate_task_slot("task-ghost")

    def test_third_half_time_task_rejected(self, orch):
        orch.enhance_link("phone", strategy=MultiplexStrategy.TIME)
        orch.enhance_link("tv", strategy=MultiplexStrategy.TIME)
        from repro.core.errors import AdmissionError

        with pytest.raises(AdmissionError):
            # Equal priority, no capacity left on the time axis.
            orch.enhance_link("phone", strategy=MultiplexStrategy.TIME)
