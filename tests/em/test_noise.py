"""Link budgets, SNR, capacity."""

import math

import numpy as np
import pytest

from repro.em import LinkBudget, shannon_required_snr_db, snr_db_from_channel


@pytest.fixture()
def budget():
    return LinkBudget(tx_power_dbm=20.0, bandwidth_hz=400e6, noise_figure_db=7.0)


def test_noise_floor_value(budget):
    # -174 + 10log10(400e6) + 7 ≈ -81 dBm.
    assert budget.noise_floor_dbm == pytest.approx(-81.0, abs=0.2)


def test_rss_from_gain(budget):
    assert budget.rss_dbm(1e-7) == pytest.approx(20.0 - 70.0)


def test_snr_consistent_with_rss(budget):
    gain = 1e-8
    assert budget.snr_db(gain) == pytest.approx(
        budget.rss_dbm(gain) - budget.noise_floor_dbm, abs=1e-6
    )


def test_snr_floor_for_zero_gain(budget):
    assert budget.snr_db(0.0) == pytest.approx(-40.0)


def test_mrt_snr_uses_channel_norm(budget):
    h = np.array([3e-4 + 0j, 4e-4j])
    gain = 9e-8 + 16e-8
    assert snr_db_from_channel(h, budget) == pytest.approx(
        budget.snr_db(gain), abs=1e-9
    )


def test_shannon_inverse_round_trip():
    bw = 100e6
    snr_db = shannon_required_snr_db(500e6, bw)
    capacity = bw * math.log2(1 + 10 ** (snr_db / 10))
    assert capacity == pytest.approx(500e6, rel=1e-9)


def test_shannon_inverse_validation():
    with pytest.raises(ValueError):
        shannon_required_snr_db(0.0, 1e6)
    with pytest.raises(ValueError):
        shannon_required_snr_db(1e6, 0.0)


def test_derived_powers_are_computed_once(budget):
    first = budget.noise_watts
    assert budget.__dict__["noise_watts"] == first
    assert budget.tx_power_watts is budget.tx_power_watts
    # Cached values stay out of equality and hashing.
    assert budget == LinkBudget() and hash(budget) == hash(LinkBudget())


def test_snr_many_equals_the_scalar_snr_bit_for_bit(budget):
    rng = np.random.default_rng(0)
    gains = np.concatenate([10.0 ** rng.uniform(-20, -4, 200), [0.0, 1e-30]])
    many = budget.snr_db_many(gains)
    assert many.tolist() == [budget.snr_db(g) for g in gains]
    assert budget.snr_db_many(np.empty(0)).shape == (0,)
