"""The orchestrator's block-coordinate solve driver and its
per-surface coefficient helper."""

import numpy as np

from repro.core.configuration import SurfaceConfiguration
from repro.core.units import ghz
from repro.geometry import apartment_sites, two_room_apartment
from repro.hwmgr import AccessPoint, HardwareManager
from repro.orchestrator import (
    Adam,
    MultiplexStrategy,
    RandomSearch,
    SurfaceOrchestrator,
)
from repro.orchestrator.orchestrator import coefficients_from_phases

FREQ = ghz(28)


class TestCoefficients:
    def test_coefficients_carry_panel_amplitudes(self, small_prog, rng):
        phases = rng.uniform(0, 2 * np.pi, small_prog.num_elements)
        coeffs = coefficients_from_phases(small_prog, phases)
        assert np.allclose(np.abs(coeffs), 1.0)
        assert np.allclose(np.angle(coeffs), np.angle(np.exp(1j * phases)))

    def test_coefficients_follow_live_amplitudes(self, small_prog, rng):
        amplitudes = rng.uniform(0.2, 1.0, small_prog.shape)
        small_prog.impair(
            SurfaceConfiguration(
                phases=np.zeros(small_prog.shape), amplitudes=amplitudes
            )
        )
        phases = rng.uniform(0, 2 * np.pi, small_prog.shape)
        coeffs = coefficients_from_phases(small_prog, phases)
        assert coeffs.shape == (small_prog.num_elements,)
        assert np.allclose(
            coeffs, amplitudes.reshape(-1) * np.exp(1j * phases.reshape(-1))
        )


def orchestrator(panels, optimizer):
    sites = apartment_sites()
    hw = HardwareManager()
    hw.register_access_point(
        AccessPoint("ap", sites.ap_position, 4, FREQ, boresight=(1, 0.3, 0))
    )
    for panel in panels:
        hw.register_surface(panel)
    return SurfaceOrchestrator(
        two_room_apartment(), hw, FREQ, optimizer=optimizer,
        grid_spacing_m=1.0,
    )


class TestOptimizeUnits:
    def test_two_surface_joint_improves_on_flat(
        self, small_passive, small_prog
    ):
        orch = orchestrator(
            [small_passive, small_prog], Adam(max_iterations=60)
        )
        task = orch.optimize_coverage("bedroom")
        before = orch.evaluate_task(task.task_id)["median_snr_db"]
        result = orch.reoptimize(rounds=2)
        assert set(result.joint) == {"passive", "prog"}
        after = orch.evaluate_task(task.task_id)["median_snr_db"]
        assert after > before

    def test_projection_respects_hardware(self, small_prog):
        orch = orchestrator([small_prog], Adam(max_iterations=30))
        orch.optimize_coverage("bedroom")
        result = orch.reoptimize(rounds=1, push=False)
        phases = result.joint["prog"].flat_phases()
        levels = 2 ** small_prog.spec.phase_bits
        assert len(np.unique(np.round(phases, 9))) <= levels

    def test_solve_starts_from_live_phases(self, small_prog, rng):
        small_prog.actuate(
            SurfaceConfiguration(
                phases=rng.uniform(0, 2 * np.pi, small_prog.shape)
            )
        )
        live = small_prog.configuration.flat_phases()
        orch = orchestrator(
            [small_prog], Adam(max_iterations=1, learning_rate=1e-12)
        )
        orch.optimize_coverage("bedroom")
        result = orch.reoptimize(rounds=1, push=False)
        # With a frozen optimizer the answer stays at the live phases.
        assert np.allclose(
            np.exp(1j * result.joint["prog"].flat_phases()),
            np.exp(1j * live),
            atol=1e-6,
        )

    def test_slots_solve_independently_of_each_other(self, small_prog):
        """Each time-division slot is its own solve unit: a slot's
        phases do not depend on which other slots share the pass."""

        def slots(rooms):
            orch = orchestrator(
                [small_prog], RandomSearch(max_iterations=4, seed=0)
            )
            small_prog.actuate(SurfaceConfiguration.zeros(*small_prog.shape))
            tasks = [
                orch.optimize_coverage(
                    room, strategy=MultiplexStrategy.TIME, time_fraction=0.3
                )
                for room in rooms
            ]
            result = orch.reoptimize(rounds=1, push=False)
            return [result.slots[t.task_id]["prog"].phases for t in tasks]

        alone = slots(["bedroom"])
        together = slots(["bedroom", "living"])
        assert np.array_equal(alone[0], together[0])
