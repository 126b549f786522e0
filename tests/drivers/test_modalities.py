"""Phase, amplitude, polarization, and frequency driver behaviors."""

import math

import numpy as np
import pytest

from repro.core import CapabilityError, ConfigurationError, Granularity
from repro.core.units import ghz
from repro.drivers import (
    AmplitudeDriver,
    FrequencySelectiveDriver,
    OFF_RESONANCE_AMPLITUDE,
    PassivePhaseDriver,
    PolarizationDriver,
    ProgrammablePhaseDriver,
)
from repro.em import beam_codebook_targets, focus_configuration
from repro.geometry import vec3
from repro.surfaces import (
    GENERIC_PASSIVE_28,
    GENERIC_PROGRAMMABLE_28,
    OperationMode,
    SignalProperty,
    SurfacePanel,
    SurfaceSpec,
)

FREQ = ghz(28)


def make_spec(props, **overrides):
    base = dict(
        design="mod-test",
        band_hz=(ghz(2.0), ghz(6.0)),
        properties=frozenset(props),
        operation_mode=OperationMode.REFLECTIVE,
        reconfigurable=True,
        control_delay_s=0.0,
    )
    base.update(overrides)
    return SurfaceSpec(**base)


def make_panel(spec, rows=4, cols=4, pid="panel"):
    return SurfacePanel(pid, spec, rows, cols, vec3(0, 0, 1.5), vec3(0, -1, 0))


class TestPhaseDrivers:
    def test_driver_requires_phase_capability(self):
        spec = make_spec([SignalProperty.AMPLITUDE])
        with pytest.raises(CapabilityError):
            ProgrammablePhaseDriver(make_panel(spec))

    def test_beam_codebook_load_and_activate(self):
        panel = make_panel(GENERIC_PROGRAMMABLE_28)
        drv = ProgrammablePhaseDriver(panel)
        targets = [vec3(2, -3, 1), vec3(3, -2, 1)]
        names = drv.load_beam_codebook(vec3(-2, -2, 2), targets, FREQ, now=0.0)
        drv.commit(now=1.0)
        assert names == ["beam0", "beam1"]
        assert drv.active_configuration_name == "beam0"
        assert set(drv.stored_configurations()) == {"beam0", "beam1"}

    def test_region_codebook_size(self):
        panel = make_panel(GENERIC_PROGRAMMABLE_28)
        drv = ProgrammablePhaseDriver(panel)
        targets = beam_codebook_targets((3, -3, 0), (2, 2, 0), 3, 2)
        names = drv.load_beam_codebook(vec3(-2, -2, 2), targets, FREQ)
        assert len(names) == 6

    def test_passive_fabricate_focus(self):
        panel = make_panel(GENERIC_PASSIVE_28, pid="pas")
        drv = PassivePhaseDriver(panel)
        cfg = focus_configuration(
            panel.element_positions(),
            panel.shape,
            vec3(-2, -2, 2),
            vec3(3, -3, 1),
            FREQ,
        )
        result = drv.fabricate(cfg)
        assert result.configuration.shape == panel.shape
        assert drv.fabricated


class TestAmplitudeDriver:
    @pytest.fixture()
    def driver(self):
        spec = make_spec([SignalProperty.AMPLITUDE])
        return AmplitudeDriver(make_panel(spec))

    def test_set_amplitudes_binary_mask(self, driver):
        mask = np.zeros((4, 4))
        mask[:2] = 1.0
        driver.set_amplitudes(mask, now=0.0)
        driver.commit(now=0.0)
        assert np.allclose(driver.panel.configuration.amplitudes, mask)

    def test_non_binary_mask_rejected(self, driver):
        from repro.core import SurfaceConfiguration

        cfg = SurfaceConfiguration(
            phases=np.zeros((4, 4)), amplitudes=np.full((4, 4), 0.5)
        )
        with pytest.raises(ConfigurationError):
            driver.push_configuration("bad", cfg, now=0.0)

    def test_phase_shifts_rejected(self, driver):
        from repro.core import SurfaceConfiguration

        cfg = SurfaceConfiguration(phases=np.full((4, 4), 1.0))
        with pytest.raises(ConfigurationError):
            driver.push_configuration("bad", cfg, now=0.0)

    def test_greedy_mask_keeps_top_fraction(self, driver):
        scores = np.arange(16.0)
        mask = driver.greedy_mask(scores, keep_fraction=0.25)
        assert mask.sum() == 4
        assert mask.reshape(-1)[-4:].all()

    def test_greedy_mask_validation(self, driver):
        with pytest.raises(ConfigurationError):
            driver.greedy_mask(np.arange(16.0), keep_fraction=0.0)
        with pytest.raises(ConfigurationError):
            driver.greedy_mask(np.arange(5.0))


class TestPolarizationDriver:
    @pytest.fixture()
    def driver(self):
        spec = make_spec([SignalProperty.POLARIZATION])
        return PolarizationDriver(make_panel(spec))

    def test_aligned_polarization_full_coupling(self, driver):
        driver.set_polarizations(np.full((4, 4), 0.7), now=0.0)
        driver.commit(now=0.0)
        amps = driver.effective_amplitudes(0.7)
        assert np.allclose(amps, 1.0)

    def test_crossed_polarization_nulls(self, driver):
        driver.set_polarizations(np.zeros((4, 4)), now=0.0)
        driver.commit(now=0.0)
        amps = driver.effective_amplitudes(math.pi / 2)
        assert np.allclose(amps, 0.0, atol=1e-12)

    def test_effective_configuration_amplitudes(self, driver):
        driver.set_polarizations(np.full((4, 4), math.pi / 3), now=0.0)
        driver.commit(now=0.0)
        cfg = driver.effective_configuration(0.0)
        assert np.allclose(cfg.amplitudes, math.cos(math.pi / 3))


class TestFrequencyDriver:
    BANDS = [(ghz(2.3), ghz(2.5)), (ghz(4.9), ghz(5.1))]

    @pytest.fixture()
    def driver(self):
        spec = make_spec(
            [SignalProperty.FREQUENCY], granularity=Granularity.ROW
        )
        return FrequencySelectiveDriver(make_panel(spec), bands_hz=self.BANDS)

    def test_row_band_assignment(self, driver):
        driver.set_row_bands([0, 0, 1, 1])
        tuned_24 = driver.rows_tuned_to(ghz(2.4))
        tuned_5 = driver.rows_tuned_to(ghz(5.0))
        assert list(tuned_24) == [True, True, False, False]
        assert list(tuned_5) == [False, False, True, True]

    def test_effective_amplitudes_per_carrier(self, driver):
        driver.set_row_bands([0, 1, 0, 1])
        amps = driver.effective_amplitudes(ghz(2.4))
        assert np.allclose(amps[0], 1.0)
        assert np.allclose(amps[1], OFF_RESONANCE_AMPLITUDE)

    def test_allocate_rows_proportional(self, driver):
        allocation = driver.allocate_rows({0: 3.0, 1: 1.0})
        assert allocation[0] == 3
        assert allocation[1] == 1
        assert driver.rows_tuned_to(ghz(2.4)).sum() == 3

    def test_validation(self, driver):
        with pytest.raises(ConfigurationError):
            driver.set_row_bands([0, 0, 0])  # wrong length
        with pytest.raises(ConfigurationError):
            driver.set_row_bands([0, 0, 0, 5])  # bad index
        with pytest.raises(ConfigurationError):
            driver.allocate_rows({})
        with pytest.raises(ConfigurationError):
            driver.allocate_rows({7: 1.0})

    def test_needs_bands(self):
        spec = make_spec([SignalProperty.FREQUENCY])
        with pytest.raises(ConfigurationError):
            FrequencySelectiveDriver(make_panel(spec), bands_hz=[])
