"""Datasheet parsing → spec extraction → driver generation."""

import math

import pytest

from repro.core import Granularity
from repro.core.errors import TranslationError
from repro.core.units import ghz
from repro.drivers import (
    AmplitudeDriver,
    PassivePhaseDriver,
    ProgrammablePhaseDriver,
)
from repro.geometry import vec3
from repro.llm import (
    SAMPLE_DATASHEETS,
    driver_from_datasheet,
    generate_driver_source,
    load_driver_class,
    parse_datasheet,
)
from repro.surfaces import OperationMode, SignalProperty, SurfacePanel


class TestParsing:
    def test_programmable_mmwave_sheet(self):
        spec = parse_datasheet(SAMPLE_DATASHEETS["acmewave-60r"])
        assert spec.design == "AcmeWave AW-60R"
        assert spec.band_hz == (ghz(59.0), ghz(61.0))
        assert spec.supports(SignalProperty.PHASE)
        assert spec.operation_mode is OperationMode.REFLECTIVE
        assert spec.reconfigurable
        assert spec.phase_bits == 2
        assert spec.control_delay_s == pytest.approx(200e-6)
        assert spec.cost_per_element_usd == pytest.approx(2.80)

    def test_passive_sheet(self):
        spec = parse_datasheet(SAMPLE_DATASHEETS["budget-sheet-28"])
        assert spec.is_passive
        assert math.isinf(spec.control_delay_s)
        assert spec.cost_per_element_usd == pytest.approx(0.01)

    def test_amplitude_sheet(self):
        spec = parse_datasheet(SAMPLE_DATASHEETS["iris-amp-24"])
        assert spec.supports(SignalProperty.AMPLITUDE)
        assert spec.operation_mode is OperationMode.TRANSMISSIVE
        assert spec.control_delay_s == pytest.approx(5e-3)

    def test_single_frequency_becomes_band(self):
        spec = parse_datasheet(
            "Model: X\nreconfigurable phase surface at 5 GHz, latency: 1 ms"
        )
        lo, hi = spec.band_hz
        assert lo < ghz(5.0) < hi

    def test_column_wise_granularity(self):
        spec = parse_datasheet(
            "Model: ColSurf\nReflects 24 GHz signals; programmable phase, "
            "column-wise control, latency: 10 us"
        )
        assert spec.granularity is Granularity.COLUMN

    def test_missing_frequency_rejected(self):
        with pytest.raises(TranslationError):
            parse_datasheet("Model: Mystery\nprogrammable phase surface")

    def test_missing_modality_rejected(self):
        with pytest.raises(TranslationError):
            parse_datasheet("Model: Mystery\n2.4 GHz reconfigurable panel")

    def test_empty_rejected(self):
        with pytest.raises(TranslationError):
            parse_datasheet("   ")


class TestGeneration:
    def test_generated_source_is_valid_python(self):
        spec = parse_datasheet(SAMPLE_DATASHEETS["acmewave-60r"])
        source = generate_driver_source(spec)
        compile(source, "<test>", "exec")
        assert "class AcmeWaveAW60RDriver(ProgrammablePhaseDriver)" in source

    def test_generated_programmable_driver_works(self):
        spec, driver_cls = driver_from_datasheet(
            SAMPLE_DATASHEETS["acmewave-60r"]
        )
        assert issubclass(driver_cls, ProgrammablePhaseDriver)
        panel = SurfacePanel(
            "gen", spec, 4, 4, vec3(0, 0, 1.5), vec3(0, -1, 0)
        )
        driver = driver_cls(panel)
        from repro.core import SurfaceConfiguration

        ready = driver.push_configuration(
            "a", SurfaceConfiguration.zeros(4, 4), now=0.0
        ).ready_at
        assert ready == pytest.approx(200e-6)
        driver.commit(now=ready)
        assert driver.active_configuration_name == "a"
        assert driver.DESIGN == "AcmeWave AW-60R"

    def test_generated_passive_driver_works(self):
        spec, driver_cls = driver_from_datasheet(
            SAMPLE_DATASHEETS["budget-sheet-28"]
        )
        assert issubclass(driver_cls, PassivePhaseDriver)
        panel = SurfacePanel(
            "gen", spec, 4, 4, vec3(0, 0, 1.5), vec3(0, -1, 0)
        )
        driver = driver_cls(panel)
        from repro.core import SurfaceConfiguration

        driver.fabricate(SurfaceConfiguration.zeros(4, 4))
        assert driver.fabricated

    def test_generated_amplitude_driver_class(self):
        _, driver_cls = driver_from_datasheet(SAMPLE_DATASHEETS["iris-amp-24"])
        assert issubclass(driver_cls, AmplitudeDriver)

    def test_load_rejects_multiple_classes(self):
        with pytest.raises(TranslationError):
            load_driver_class(
                "class ADriver: pass\nclass BDriver: pass\n"
            )

    def test_class_name_sanitization(self):
        spec = parse_datasheet(
            "Model: 3rd-gen panel!\n5 GHz programmable phase, latency: 1 ms"
        )
        source = generate_driver_source(spec)
        assert "class Surface3rdGenPanelDriver" in source
