"""Friis / path-loss / phase conventions."""

import cmath
import math

import pytest

from repro.core.units import ghz, wavelength
from repro.em import complex_leg_gain, friis_amplitude, path_phase


def _path_loss_db(distance_m, frequency_hz):
    return -20.0 * math.log10(friis_amplitude(distance_m, frequency_hz))


def test_fspl_textbook_value():
    # 2.4 GHz over 1 m is the classic ~40.05 dB.
    assert _path_loss_db(1.0, ghz(2.4)) == pytest.approx(40.05, abs=0.1)


def test_fspl_20db_per_decade():
    assert _path_loss_db(100.0, ghz(5)) - _path_loss_db(
        10.0, ghz(5)
    ) == pytest.approx(20.0)


def test_fspl_increases_with_frequency():
    assert _path_loss_db(10, ghz(60)) > _path_loss_db(10, ghz(2.4))


def test_friis_power_matches_fspl():
    # FSPL = 20 log10(4πd / λ).
    lam = wavelength(ghz(5))
    fspl = 20.0 * math.log10(4.0 * math.pi * 10.0 / lam)
    assert _path_loss_db(10.0, ghz(5)) == pytest.approx(fspl)


def test_friis_gains_scale_amplitude():
    base = friis_amplitude(5.0, ghz(28))
    with_gain = friis_amplitude(5.0, ghz(28), gain_tx_linear=4.0)
    assert with_gain == pytest.approx(2.0 * base)


def test_friis_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        friis_amplitude(0.0, ghz(5))
    with pytest.raises(ValueError):
        friis_amplitude(-1.0, ghz(5))


def test_path_phase_one_wavelength():
    lam = wavelength(ghz(28))
    assert path_phase(lam, ghz(28)) == pytest.approx(-2 * math.pi)


def test_complex_leg_gain_composition():
    g = complex_leg_gain(3.0, ghz(28), 2.0, 1.0, extra_amplitude=0.5)
    assert abs(g) == pytest.approx(
        friis_amplitude(3.0, ghz(28), 2.0, 1.0) * 0.5
    )
    assert cmath.phase(g) == pytest.approx(
        math.remainder(path_phase(3.0, ghz(28)), 2 * math.pi), abs=1e-9
    )
