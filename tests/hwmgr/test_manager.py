"""Hardware manager: registry, unified ops, feedback routing."""

import numpy as np
import pytest

from repro.core import SurfaceConfiguration, UnknownDeviceError
from repro.core.units import ghz
from repro.drivers import (
    AmplitudeDriver,
    FeedbackReport,
    PassivePhaseDriver,
    ProgrammablePhaseDriver,
)
from repro.geometry import vec3
from repro.hwmgr import (
    AccessPoint,
    ClientDevice,
    HardwareManager,
    Sensor,
    driver_for_panel,
)
from repro.surfaces import (
    CATALOG,
    GENERIC_PASSIVE_28,
    GENERIC_PROGRAMMABLE_28,
    SurfacePanel,
)


def make_panel(pid="s1", spec=GENERIC_PROGRAMMABLE_28, rows=4, cols=4):
    return SurfacePanel(pid, spec, rows, cols, vec3(0, 0, 1.5), vec3(0, -1, 0))


@pytest.fixture()
def manager():
    return HardwareManager()


class TestDriverFactory:
    def test_programmable_phase(self):
        drv = driver_for_panel(make_panel())
        assert isinstance(drv, ProgrammablePhaseDriver)

    def test_passive_phase(self):
        drv = driver_for_panel(make_panel(spec=GENERIC_PASSIVE_28))
        assert isinstance(drv, PassivePhaseDriver)

    def test_amplitude_surface(self):
        panel = make_panel(spec=CATALOG["RFocus"].spec)
        assert isinstance(driver_for_panel(panel), AmplitudeDriver)

    def test_catalog_designs_all_get_drivers(self):
        for name, entry in CATALOG.items():
            panel = make_panel(pid=name, spec=entry.spec)
            assert driver_for_panel(panel) is not None


class TestRegistry:
    def test_register_and_lookup(self, manager):
        panel = make_panel()
        drv = manager.register_surface(panel)
        assert manager.driver("s1") is drv
        assert manager.panel("s1") is panel
        assert manager.surface_ids() == ["s1"]

    def test_duplicate_surface_rejected(self, manager):
        manager.register_surface(make_panel())
        with pytest.raises(UnknownDeviceError):
            manager.register_surface(make_panel())

    def test_unknown_surface_rejected(self, manager):
        with pytest.raises(UnknownDeviceError):
            manager.driver("ghost")

    def test_unregister(self, manager):
        manager.register_surface(make_panel())
        manager.unregister_surface("s1")
        assert manager.surface_ids() == []
        with pytest.raises(UnknownDeviceError):
            manager.unregister_surface("s1")

    def test_unregister_is_symmetric_for_every_device_kind(self, manager):
        manager.register_access_point(AccessPoint("ap1", vec3(0, 0, 2), 4, ghz(28)))
        manager.register_client(ClientDevice("phone", vec3(3, 1, 1)))
        manager.register_sensor(
            Sensor("pd1", vec3(1, 1, 1), "power", read=lambda: -40.0)
        )
        manager.unregister_access_point("ap1")
        manager.unregister_client("phone")
        manager.unregister_sensor("pd1")
        assert manager.access_points() == []
        assert manager.clients() == []
        with pytest.raises(UnknownDeviceError):
            manager.unregister_access_point("ap1")
        with pytest.raises(UnknownDeviceError):
            manager.unregister_client("phone")
        with pytest.raises(UnknownDeviceError):
            manager.unregister_sensor("pd1")

    def test_non_surface_devices(self, manager):
        ap = AccessPoint("ap1", vec3(0, 0, 2), 4, ghz(28))
        client = ClientDevice("phone", vec3(3, 1, 1))
        sensor = Sensor("pd1", vec3(1, 1, 1), "power", read=lambda: -40.0)
        manager.register_access_point(ap)
        manager.register_client(client)
        manager.register_sensor(sensor)
        assert manager.access_point("ap1") is ap
        assert manager.client("phone") is client
        assert manager.sensor("pd1").measure() == -40.0
        with pytest.raises(UnknownDeviceError):
            manager.register_access_point(ap)
        with pytest.raises(UnknownDeviceError):
            manager.register_client(client)
        with pytest.raises(UnknownDeviceError):
            manager.register_sensor(sensor)
        with pytest.raises(UnknownDeviceError):
            manager.access_point("nope")
        with pytest.raises(UnknownDeviceError):
            manager.client("nope")
        with pytest.raises(UnknownDeviceError):
            manager.sensor("nope")


class TestUnifiedOps:
    def test_specifications_table(self, manager):
        manager.register_surface(make_panel("a"))
        manager.register_surface(make_panel("b", spec=GENERIC_PASSIVE_28))
        specs = manager.specifications()
        assert specs["a"].reconfigurable
        assert specs["b"].is_passive

    def test_push_and_commit(self, manager):
        manager.register_surface(make_panel())
        rng = np.random.default_rng(0)
        cfg = SurfaceConfiguration.random(4, 4, rng=rng)
        ready = manager.push_configuration("s1", cfg, now=0.0).ready_at
        assert manager.pending_total() == 1
        applied = manager.commit_all(now=ready).applied
        assert applied == 1
        assert manager.pending_total() == 0
        snap = manager.snapshot()
        assert snap["s1"].shape == (4, 4)

    def test_feedback_routing(self, manager):
        manager.register_surface(make_panel())
        rng = np.random.default_rng(1)
        for name in ("a", "b"):
            manager.push_configuration(
                "s1",
                SurfaceConfiguration.random(4, 4, rng=rng),
                now=0.0,
                name=name,
                activate=False,
            )
        manager.commit_all(now=1.0)
        chosen = manager.driver("s1").apply_feedback(
            FeedbackReport("phone", {"a": 5.0, "b": 9.0})
        )
        assert chosen == "b"

    def test_summary(self, manager):
        manager.register_surface(make_panel())
        assert "1 surfaces" in manager.summary()


class TestDevices:
    def test_ap_node_matches_antennas(self):
        ap = AccessPoint("ap1", vec3(0, 0, 2), 8, ghz(28))
        node = ap.node()
        assert node.num_antennas == 8
        assert np.allclose(node.centroid, [0, 0, 2], atol=1e-9)

    def test_ap_validation(self):
        with pytest.raises(ValueError):
            AccessPoint("ap1", vec3(0, 0, 2), 0, ghz(28))
        with pytest.raises(ValueError):
            AccessPoint("ap1", vec3(0, 0, 2), 4, 0.0)

    def test_client_move(self):
        c = ClientDevice("phone", vec3(1, 1, 1))
        c.move_to((2, 2, 1))
        assert np.allclose(c.position, [2, 2, 1])
        assert c.node().positions.shape == (1, 3)
