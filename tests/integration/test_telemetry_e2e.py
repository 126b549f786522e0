"""Telemetry across the full stack: one reoptimize, every layer reports."""

import pytest

from repro import SurfOS, ghz
from repro.geometry import apartment_sites, two_room_apartment
from repro.hwmgr import AccessPoint, ClientDevice
from repro.orchestrator import Adam, MultiplexStrategy, ReoptimizationResult
from repro.surfaces import GENERIC_PROGRAMMABLE_28, SurfacePanel
from repro.telemetry import Telemetry, load_jsonl, render_report

FREQ = ghz(28)


def build_system(**kernel_kwargs):
    env = two_room_apartment()
    sites = apartment_sites()
    system = SurfOS(
        env,
        frequency_hz=FREQ,
        optimizer=Adam(max_iterations=40),
        grid_spacing_m=1.0,
        **kernel_kwargs,
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
    system.add_client(ClientDevice("VR_headset", (6.0, 2.5, 1.0)))
    return system.boot()


@pytest.fixture()
def system():
    return build_system()


class TestReoptimizeTracing:
    def test_one_pass_produces_distinct_phase_spans(self, system, tmp_path):
        system.orchestrator.optimize_coverage("bedroom")
        system.orchestrator.enhance_link("phone", snr=25.0)
        result = system.reoptimize()

        spans = system.telemetry.snapshot().spans
        for path in (
            "reoptimize",
            "reoptimize/channel-build",
            "reoptimize/optimize/optimize-panel",
            "reoptimize/push",
        ):
            assert path in spans, f"missing span {path}"
            assert spans[path].wall_total_s > 0.0

        # The phases are distinct measurements, not one number repeated.
        assert (
            spans["reoptimize/channel-build"].wall_total_s
            != spans["reoptimize/push"].wall_total_s
        )
        assert result.timing["total_s"] >= result.timing["channel_build_s"]

        # …and the whole log exports and renders back.
        path = str(tmp_path / "trace.jsonl")
        system.telemetry.export_jsonl(path)
        report = render_report(load_jsonl(path))
        assert "reoptimize/channel-build" in report
        assert "reoptimize/push" in report

    def test_counters_cover_every_layer(self, system):
        system.orchestrator.optimize_coverage("bedroom")
        system.reoptimize()
        counters = system.telemetry.counters
        assert counters["orchestrator.reoptimizations"] == 1
        assert counters["orchestrator.objective_evaluations"] > 0
        assert counters["channel.cache_misses"] >= 1
        assert counters["hw.pushes"] >= 1

    def test_all_layers_share_one_instance(self, system):
        assert system.orchestrator.telemetry is system.telemetry
        assert system.orchestrator.simulator.telemetry is system.telemetry
        assert system.hardware.telemetry is system.telemetry
        assert system.daemon.telemetry is system.telemetry
        assert system.broker.telemetry is system.telemetry

    def test_spans_carry_simulated_settle_time(self, system):
        system.orchestrator.optimize_coverage("bedroom")
        result = system.reoptimize()
        assert result.settle_s == pytest.approx(
            GENERIC_PROGRAMMABLE_28.control_delay_s
        )
        push = system.telemetry.snapshot().spans["reoptimize/push"]
        assert push.sim_total_s == pytest.approx(result.settle_s)


class TestDisabledTelemetry:
    def test_disabled_telemetry_yields_no_events_and_empty_timing(self):
        system = build_system(telemetry=Telemetry(enabled=False))
        system.orchestrator.optimize_coverage("bedroom")
        result = system.reoptimize()
        assert result.timing == {}
        snap = system.telemetry.snapshot()
        assert snap.spans == {} and snap.counters == {}
        # The pass itself still works end to end.
        assert "s1" in result.live


class TestReoptimizationResult:
    def test_live_is_the_joint_configuration(self, system):
        system.orchestrator.optimize_coverage("bedroom")
        result = system.reoptimize()
        assert isinstance(result, ReoptimizationResult)
        assert set(result.live) == {"s1"}
        assert result.live["s1"].shape == (16, 16)
        assert result.live == result.joint

    def test_timing_and_eval_counts_populated(self, system):
        task = system.orchestrator.optimize_coverage("bedroom")
        result = system.reoptimize()
        assert set(result.timing) == {
            "channel_build_s",
            "optimize_s",
            "push_s",
            "metrics_s",
            "total_s",
        }
        assert all(v >= 0.0 for v in result.timing.values())
        assert result.objective_evaluations[task.task_id] > 0
        assert result.pushed

    def test_tdm_only_pass_exposes_slots(self, system):
        t1 = system.orchestrator.optimize_coverage(
            "bedroom", strategy=MultiplexStrategy.TIME
        )
        t2 = system.orchestrator.enhance_link(
            "phone", snr=25.0, strategy=MultiplexStrategy.TIME
        )
        result = system.reoptimize()
        assert result.joint == {}
        assert set(result.slots) == {t1.task_id, t2.task_id}
        # With no joint group the first (highest-priority) slot's
        # configurations are live.
        assert result.live == next(iter(result.slots.values()))
        assert "s1" in result.live

    def test_no_push_pass_reports_unpushed(self, system):
        system.orchestrator.optimize_coverage("bedroom")
        result = system.reoptimize(push=False)
        assert not result.pushed
        assert result.settle_s == 0.0
        assert "push_s" not in result.timing


class TestSensingModeRename:
    def test_mode_keyword(self, system):
        task = system.orchestrator.enable_sensing("bedroom", mode="tracking")
        assert task.goal["mode"] == "tracking"

    def test_mode_defaults_to_tracking(self, system):
        task = system.orchestrator.enable_sensing("bedroom")
        assert task.goal["mode"] == "tracking"

    def test_type_keyword_removed(self, system):
        # The deprecated ``type=`` spelling has been retired at the
        # orchestrator API; only the LLM dispatcher still translates it.
        with pytest.raises(TypeError):
            system.orchestrator.enable_sensing(
                "bedroom", type="localization"
            )

    def test_llm_dispatch_translates_type_to_mode(self, system):
        # The mock's Fig. 6 completion spells the kwarg ``type=``; the
        # dispatcher must land it in the task goal as ``mode``.
        tasks = system.handle_user_demand(
            "I want to start VR gaming in the bedroom."
        )
        sensing = [t for t in tasks if t.service.value == "sensing"]
        assert sensing and sensing[0].goal["mode"] == "tracking"
