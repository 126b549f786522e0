"""Unit-conversion sanity and round-trip tests."""

import pytest

from repro.core import units


def test_dbm_watts_round_trip():
    for dbm in (-90.0, -30.0, 0.0, 20.0, 30.0):
        assert units.watts_to_dbm(units.dbm_to_watts(dbm)) == pytest.approx(dbm)


def test_zero_dbm_is_one_milliwatt():
    assert units.dbm_to_watts(0.0) == pytest.approx(1e-3)
    assert units.dbm_to_milliwatts(0.0) == pytest.approx(1.0)


def test_wavelength_2_4ghz():
    assert units.wavelength(units.ghz(2.4)) == pytest.approx(0.12491, rel=1e-3)


def test_wavelength_rejects_nonpositive():
    with pytest.raises(ValueError):
        units.wavelength(0.0)


def test_ghz_mhz_helpers():
    assert units.ghz(2.4) == pytest.approx(2.4e9)
    assert units.mhz(20.0) == pytest.approx(2e7)


def test_thermal_noise_classic_value():
    # kTB for 1 Hz at 290 K is the textbook -174 dBm.
    assert units.thermal_noise_dbm(1.0) == pytest.approx(-173.975, abs=0.05)


def test_thermal_noise_scales_with_bandwidth():
    base = units.thermal_noise_dbm(1e6)
    assert units.thermal_noise_dbm(1e7) == pytest.approx(base + 10.0, abs=1e-6)


def test_thermal_noise_adds_noise_figure():
    assert units.thermal_noise_dbm(1e6, noise_figure_db=7.0) == pytest.approx(
        units.thermal_noise_dbm(1e6) + 7.0
    )


def test_thermal_noise_rejects_bad_bandwidth():
    with pytest.raises(ValueError):
        units.thermal_noise_dbm(0.0)
