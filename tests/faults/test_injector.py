"""FaultInjector: determinism, corruption, link behavior."""

import numpy as np
import pytest

from repro.core import (
    HardwareTimeoutError,
    SurfaceConfiguration,
    TransientHardwareError,
)
from repro.faults import ElementFailure, FaultInjector, PhaseDrift
from repro.geometry import vec3
from repro.surfaces import GENERIC_PROGRAMMABLE_28, SurfacePanel


def make_panel(pid="s1", rows=6, cols=6):
    return SurfacePanel(
        pid, GENERIC_PROGRAMMABLE_28, rows, cols, vec3(0, 0, 1.5), vec3(0, -1, 0)
    )


def panels(*ps):
    return {p.panel_id: p for p in ps}


class TestScheduling:
    def test_activation_respects_time(self):
        panel = make_panel()
        inj = FaultInjector(seed=0)
        inj.kill_panel("s1", at_time=2.0)
        assert inj.pending_count() == 1
        assert inj.advance(1.0, panels(panel)) == []
        assert inj.impaired_surfaces() == []
        activated = inj.advance(2.5, panels(panel))
        assert [f.kind for f in activated] == ["PanelDeath"]
        assert inj.impaired_surfaces() == ["s1"]
        assert inj.pending_count() == 0
        assert len(inj.history) == 1

    def test_unknown_surface_spec_dropped(self):
        inj = FaultInjector(seed=0)
        inj.schedule(ElementFailure("ghost", fraction=0.5))
        assert inj.advance(1.0, panels(make_panel())) == []


class TestDeterminism:
    def test_same_seed_same_element_masks(self):
        results = []
        for _ in range(2):
            panel = make_panel()
            inj = FaultInjector(seed=42)
            inj.schedule(ElementFailure("s1", fraction=0.25))
            inj.advance(0.0, panels(panel))
            corrupted = inj.corrupt("s1", panel.configuration)
            results.append(corrupted.amplitudes.copy())
        np.testing.assert_array_equal(results[0], results[1])

    def test_different_seeds_differ(self):
        masks = []
        for seed in (0, 1):
            panel = make_panel(rows=10, cols=10)
            inj = FaultInjector(seed=seed)
            inj.schedule(ElementFailure("s1", fraction=0.3))
            inj.advance(0.0, panels(panel))
            masks.append(
                inj.corrupt("s1", panel.configuration).amplitudes.copy()
            )
        assert not np.array_equal(masks[0], masks[1])

    def test_same_seed_same_drift(self):
        offsets = []
        for _ in range(2):
            panel = make_panel()
            inj = FaultInjector(seed=7)
            inj.schedule(PhaseDrift("s1", sigma_rad_per_sqrt_s=0.1))
            inj.advance(0.0, panels(panel))
            inj.advance(1.0, panels(panel))
            inj.advance(2.0, panels(panel))
            offsets.append(
                inj.corrupt("s1", panel.configuration).phases.copy()
            )
        np.testing.assert_array_equal(offsets[0], offsets[1])

    def test_same_seed_same_link_outcomes(self):
        outcomes = []
        for _ in range(2):
            inj = FaultInjector(seed=3)
            inj.lossy_link("s1", drop_probability=0.5, timeout_probability=0.2)
            inj.advance(0.0, {})
            run = []
            for i in range(20):
                try:
                    run.append(("ok", inj.link_attempt("s1", float(i))))
                except HardwareTimeoutError:
                    run.append(("timeout", None))
                except TransientHardwareError:
                    run.append(("drop", None))
            outcomes.append(run)
        assert outcomes[0] == outcomes[1]
        kinds = {k for k, _ in outcomes[0]}
        assert "drop" in kinds  # p=0.5 over 20 draws


class TestCorruption:
    def test_dead_panel_zeroes_amplitudes(self):
        panel = make_panel()
        inj = FaultInjector(seed=0)
        inj.kill_panel("s1")
        inj.advance(0.0, panels(panel))
        out = inj.corrupt("s1", panel.configuration)
        assert np.all(out.amplitudes == 0.0)

    def test_dead_elements_partial(self):
        panel = make_panel()
        inj = FaultInjector(seed=0)
        inj.schedule(ElementFailure("s1", fraction=0.25))
        inj.advance(0.0, panels(panel))
        out = inj.corrupt("s1", panel.configuration)
        dead = int((out.amplitudes == 0.0).sum())
        assert dead == round(0.25 * panel.num_elements)

    def test_stuck_elements_freeze_phase(self):
        panel = make_panel()
        rng = np.random.default_rng(0)
        frozen_at = SurfaceConfiguration.random(6, 6, rng=rng)
        panel.actuate(frozen_at)
        inj = FaultInjector(seed=0)
        inj.schedule(ElementFailure("s1", fraction=0.5, mode="stuck"))
        inj.advance(0.0, panels(panel))
        intended = SurfaceConfiguration.zeros(6, 6)
        out = inj.corrupt("s1", intended)
        stuck = out.flat_phases() != 0.0
        # Stuck elements keep the (quantized) phases held at fault time.
        held = panel.configuration.flat_phases()
        assert stuck.any()
        np.testing.assert_allclose(
            out.flat_phases()[stuck], held[stuck]
        )

    def test_corrupt_is_idempotent_on_intent(self):
        panel = make_panel()
        inj = FaultInjector(seed=0)
        inj.schedule(PhaseDrift("s1", sigma_rad_per_sqrt_s=0.2))
        inj.advance(0.0, panels(panel))
        inj.advance(1.0, panels(panel))
        intended = panel.configuration
        once = inj.corrupt("s1", intended)
        twice = inj.corrupt("s1", intended)
        np.testing.assert_array_equal(once.phases, twice.phases)
        assert not np.array_equal(once.phases, intended.phases)

    def test_impaired_surfaces_listing(self):
        inj = FaultInjector(seed=0)
        p1, p2 = make_panel("a"), make_panel("b")
        inj.kill_panel("a")
        inj.schedule(PhaseDrift("b"))
        inj.advance(0.0, panels(p1, p2))
        assert inj.impaired_surfaces() == ["a", "b"]


class TestLinkWindow:
    def test_link_inactive_outside_window(self):
        inj = FaultInjector(seed=0)
        inj.lossy_link("s1", drop_probability=1.0, at_time=1.0, until=2.0)
        inj.advance(1.0, {})  # activate the spec
        assert inj.link_attempt("s1", 0.5) == 0.0  # before window
        with pytest.raises(TransientHardwareError):
            inj.link_attempt("s1", 1.5)
        assert inj.link_attempt("s1", 2.5) == 0.0  # after window

    def test_timeout_carries_budget(self):
        inj = FaultInjector(seed=0)
        inj.lossy_link(
            "s1", drop_probability=0.0, timeout_probability=1.0, timeout_s=0.25
        )
        inj.advance(0.0, {})
        with pytest.raises(HardwareTimeoutError) as exc_info:
            inj.link_attempt("s1", 0.0)
        assert exc_info.value.timeout_s == 0.25

    def test_extra_delay_on_success(self):
        inj = FaultInjector(seed=0)
        inj.lossy_link("s1", drop_probability=0.0, extra_delay_s=0.03)
        inj.advance(0.0, {})
        assert inj.link_attempt("s1", 0.0) == 0.03
