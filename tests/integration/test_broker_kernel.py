"""Broker + kernel + daemon integration on the apartment scenario."""

import numpy as np
import pytest

from repro import SurfOS, SurfOSError, ghz
from repro.broker import HandleStatus
from repro.core.errors import ServiceError
from repro.geometry import apartment_sites, two_room_apartment
from repro.hwmgr import AccessPoint, ClientDevice
from repro.mobility import WaypointWalker
from repro.orchestrator import Adam, TaskState
from repro.runtime import Walker
from repro.surfaces import GENERIC_PROGRAMMABLE_28, SurfacePanel

FREQ = ghz(28)


@pytest.fixture()
def system():
    env = two_room_apartment()
    sites = apartment_sites()
    os_ = SurfOS(
        env,
        frequency_hz=FREQ,
        optimizer=Adam(max_iterations=50),
        grid_spacing_m=1.0,
    )
    os_.add_access_point(
        AccessPoint("ap", sites.ap_position, 4, FREQ, boresight=(1, 0.3, 0))
    )
    os_.add_surface(
        SurfacePanel(
            "s1",
            GENERIC_PROGRAMMABLE_28,
            16,
            16,
            sites.single_surface_center,
            sites.single_surface_normal,
        )
    )
    os_.add_client(ClientDevice("phone", (6.5, 1.5, 1.0)))
    os_.add_client(ClientDevice("headset", (6.0, 2.5, 1.0)))
    return os_.boot(observe_room="bedroom")


class TestKernel:
    def test_boot_once(self, system):
        with pytest.raises(SurfOSError):
            system.boot()

    def test_services_require_boot(self):
        env = two_room_apartment()
        os_ = SurfOS(env, frequency_hz=FREQ)
        with pytest.raises(SurfOSError):
            os_.handle_user_demand("hello")

    def test_summary(self, system):
        assert "booted" in system.summary()

    def test_user_demand_end_to_end(self, system):
        tasks = system.handle_user_demand(
            "I want to watch a movie on my phone"
        )
        assert len(tasks) == 1
        assert tasks[0].goal["client"] == "phone"
        system.reoptimize()
        assert tasks[0].state is TaskState.RUNNING
        assert tasks[0].metrics["median_snr_db"] > 10.0


class TestBroker:
    def test_application_served_and_reported(self, system):
        served = system.serve_application("video_streaming", "phone", "bedroom")
        assert served.status is HandleStatus.ADMITTED
        system.reoptimize()
        report = system.broker.satisfaction(served)
        assert "achieved_snr_db" in report
        assert report["achieved_snr_db"] > -40

    def test_vr_app_spawns_link_and_sensing(self, system):
        served = system.serve_application("vr_gaming", "headset", "bedroom")
        tasks = [
            system.orchestrator.scheduler.task(tid)
            for tid in served.task_ids
        ]
        services = {t.service.value for t in tasks}
        assert {"link", "sensing"} <= services
        system.reoptimize()
        report = system.broker.satisfaction(served)
        assert report["sensing_active"]

    def test_duplicate_registration_rejected(self, system):
        system.serve_application("video_streaming", "phone", "bedroom")
        with pytest.raises(ServiceError):
            system.serve_application("video_streaming", "phone", "bedroom")

    def test_stop_application(self, system):
        served = system.serve_application("video_streaming", "phone", "bedroom")
        system.broker.stop_application("video_streaming", "phone")
        assert served.status is HandleStatus.STOPPED
        with pytest.raises(ServiceError):
            system.broker.stop_application("ghost_app", "phone")

    def test_stop_with_terminal_tasks_still_deactivates(self, system):
        # Regression: when every task already completed (e.g. it
        # expired), stop_application must still mark the record
        # inactive rather than leaving it stuck active forever.
        served = system.serve_application("video_streaming", "phone", "bedroom")
        for task_id in served.task_ids:
            system.orchestrator.complete_task(task_id)
        tasks = [
            system.orchestrator.scheduler.task(tid)
            for tid in served.task_ids
        ]
        assert all(t.is_terminal for t in tasks)
        system.broker.stop_application("video_streaming", "phone")
        assert served.status is HandleStatus.STOPPED

    def test_reregistration_after_stop(self, system):
        first = system.serve_application("video_streaming", "phone", "bedroom")
        system.broker.stop_application("video_streaming", "phone")
        second = system.serve_application("video_streaming", "phone", "bedroom")
        assert second is not first
        assert second.status is HandleStatus.ADMITTED
        assert second in system.broker.applications()
        assert first not in system.broker.applications()

    def test_unsatisfied_detection(self, system):
        # Demand an absurd throughput: link requirement cannot be met.
        served = system.serve_application(
            "file_transfer", "phone", "bedroom", throughput_mbps=40_000.0
        )
        system.reoptimize()
        assert served in system.broker.unsatisfied()


class TestHandleAPI:
    """The redesigned broker surface: handles in, typed responses out."""

    def test_register_returns_service_handle(self, system):
        from repro.broker import HandleStatus, ServiceHandle

        handle = system.serve_application("video_streaming", "phone", "bedroom")
        assert isinstance(handle, ServiceHandle)
        assert handle.key == "video_streaming@phone"
        assert handle.status is HandleStatus.ADMITTED
        system.reoptimize()
        assert handle.status is HandleStatus.RUNNING
        assert handle.satisfaction()["app"] == "video_streaming"

    def test_stop_returns_typed_response(self, system):
        from repro.broker import RequestStatus, ServiceResponse

        system.serve_application("video_streaming", "phone", "bedroom")
        response = system.broker.stop_application("video_streaming", "phone")
        assert isinstance(response, ServiceResponse)
        assert response.status is RequestStatus.STOPPED
        assert response.ok

    def test_legacy_attribute_shim_is_gone(self, system):
        # The PR-4 duck-type shim (handle.active/.demand/.tasks/...)
        # has been retired: legacy reads now fail loudly.
        handle = system.serve_application("video_streaming", "phone", "bedroom")
        for name in ("demand", "calls", "tasks", "active", "stopped"):
            with pytest.raises(AttributeError):
                getattr(handle, name)


class TestDaemon:
    def test_daemon_reacts_to_blockage(self, system):
        system.orchestrator.optimize_coverage("bedroom")
        system.reoptimize()
        # A person walking straight through the bedroom beam corridor.
        system.dynamics.add_walker(
            Walker(
                "person",
                model=WaypointWalker([(5.6, 3.2), (8.0, 1.0)], speed_mps=1.5),
            )
        )
        records = system.daemon.run(steps=10, dt=0.5)
        # The monitor must have seen degradations and re-optimized.
        assert system.daemon.monitor.anomalies
        assert records, "daemon never re-optimized despite blockage"
        assert records[0].reaction_latency_s >= 0.0

    def test_daemon_quiet_without_dynamics(self, system):
        system.orchestrator.optimize_coverage("bedroom")
        system.reoptimize()
        records = system.daemon.run(steps=5, dt=0.5)
        assert records == []
        assert system.daemon.monitor.anomalies == []
