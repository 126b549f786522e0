"""Property-based tests: core configuration and unit invariants."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import (
    Granularity,
    SurfaceConfiguration,
    quantize_phase,
    tie_to_granularity,
    wrap_phase,
)
from repro.core import units

TWO_PI = 2.0 * np.pi

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)

phase_arrays = arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.floats(-50.0, 50.0),
)


class TestPhaseProperties:
    @given(phase_arrays)
    def test_wrap_is_canonical_and_idempotent(self, phases):
        wrapped = wrap_phase(phases)
        assert np.all(wrapped >= 0.0) and np.all(wrapped < TWO_PI)
        assert np.allclose(wrap_phase(wrapped), wrapped)

    @given(phase_arrays)
    def test_wrap_preserves_phasor(self, phases):
        assert np.allclose(
            np.exp(1j * wrap_phase(phases)), np.exp(1j * phases), atol=1e-9
        )

    @given(phase_arrays, st.integers(1, 4))
    def test_quantize_idempotent_and_level_limited(self, phases, bits):
        q = quantize_phase(phases, bits)
        assert np.allclose(quantize_phase(q, bits), q, atol=1e-12)
        assert len(np.unique(np.round(q, 9))) <= 2 ** bits

    @given(phase_arrays, st.integers(2, 4))
    def test_quantize_error_bounded_by_half_step(self, phases, bits):
        q = quantize_phase(phases, bits)
        step = TWO_PI / 2 ** bits
        # Compare on the circle.
        diff = np.angle(np.exp(1j * (q - phases)))
        assert np.all(np.abs(diff) <= step / 2 + 1e-9)

    @given(phase_arrays, st.sampled_from(list(Granularity)))
    def test_tie_is_idempotent(self, phases, granularity):
        tied = tie_to_granularity(phases, granularity)
        again = tie_to_granularity(tied, granularity)
        assert np.allclose(
            np.exp(1j * again), np.exp(1j * tied), atol=1e-9
        )

    @given(phase_arrays, st.sampled_from(list(Granularity)))
    def test_tie_respects_degrees_of_freedom(self, phases, granularity):
        tied = tie_to_granularity(phases, granularity)
        rows, cols = tied.shape
        unique = len(np.unique(np.round(tied, 9)))
        assert unique <= granularity.degrees_of_freedom(rows, cols)


class TestConfigurationProperties:
    @given(
        st.integers(1, 5),
        st.integers(1, 5),
        st.integers(0, 2 ** 32 - 1),
    )
    def test_coefficients_unit_modulus(self, rows, cols, seed):
        cfg = SurfaceConfiguration.random(
            rows, cols, rng=np.random.default_rng(seed)
        )
        coeffs = cfg.coefficients()
        assert coeffs.shape == (rows, cols)
        assert np.allclose(np.abs(coeffs), 1.0)

    @given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 3))
    def test_quantized_copy_round_trips_shape(self, rows, cols, bits):
        cfg = SurfaceConfiguration.zeros(rows, cols)
        q = cfg.quantized(bits)
        assert q.shape == cfg.shape
        assert q == cfg  # zero phases survive quantization


class TestUnitProperties:
    @given(st.floats(-120.0, 60.0))
    def test_dbm_watts_round_trip(self, dbm):
        assert units.watts_to_dbm(units.dbm_to_watts(dbm)) == (
            __import__("pytest").approx(dbm, abs=1e-9)
        )

    @given(st.floats(-120.0, 120.0))
    def test_db_linear_round_trip(self, db):
        assert units.linear_to_db(units.db_to_linear(db)) == (
            __import__("pytest").approx(db, abs=1e-9)
        )

    @given(st.floats(1e6, 1e12))
    def test_wavelength_positive_and_inverse(self, freq):
        lam = units.wavelength(freq)
        assert lam > 0
        assert units.SPEED_OF_LIGHT / lam == __import__("pytest").approx(
            freq, rel=1e-12
        )

    @given(st.floats(1.0, 1e10), st.floats(0.0, 20.0))
    def test_noise_floor_monotone_in_bandwidth_and_nf(self, bw, nf):
        base = units.thermal_noise_dbm(bw)
        assert units.thermal_noise_dbm(bw, nf) >= base
        assert units.thermal_noise_dbm(bw * 2, nf) > units.thermal_noise_dbm(
            bw, nf
        )
