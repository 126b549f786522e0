"""Radiation pattern semantics."""

import math

import pytest

from repro.em import ISOTROPIC, META_ATOM, PATCH, AntennaPattern
from repro.geometry import vec3


def test_isotropic_constant_gain():
    assert ISOTROPIC.gain_linear(1.0) == pytest.approx(1.0)
    assert ISOTROPIC.gain_linear(-1.0) == pytest.approx(1.0)


def test_patch_front_only():
    assert PATCH.gain_linear(-0.5) == 0.0
    assert PATCH.gain_linear(1.0) == pytest.approx(10 ** 0.8)


def test_cos_envelope_monotone():
    gains = [META_ATOM.gain_linear(c) for c in (1.0, 0.8, 0.5, 0.2)]
    assert gains == sorted(gains, reverse=True)


def test_gain_toward_geometry():
    pattern = AntennaPattern(peak_gain_dbi=0.0, cos_exponent=1.0)
    pos, boresight = vec3(0, 0, 0), vec3(1, 0, 0)
    on_axis = pattern.gain_toward(pos, boresight, vec3(5, 0, 0))
    off_axis = pattern.gain_toward(pos, boresight, vec3(5, 5, 0))
    assert on_axis == pytest.approx(1.0)
    assert off_axis == pytest.approx(math.cos(math.pi / 4), rel=1e-6)


def test_gain_toward_self_is_peak():
    assert PATCH.gain_toward(vec3(1, 1, 1), vec3(1, 0, 0), vec3(1, 1, 1)) == (
        pytest.approx(PATCH.peak_gain_linear)
    )


def test_amplitude_is_sqrt_gain():
    pattern = AntennaPattern(peak_gain_dbi=6.0, cos_exponent=0.0)
    amp = pattern.amplitude_toward(vec3(0, 0, 0), vec3(1, 0, 0), vec3(2, 0, 0))
    assert amp == pytest.approx(math.sqrt(pattern.peak_gain_linear))


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        AntennaPattern(cos_exponent=-1.0)
