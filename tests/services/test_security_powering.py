"""Security and powering services."""

import numpy as np
import pytest

from repro.channel import LinearChannelForm
from repro.core.errors import ServiceError
from repro.em import LinkBudget
from repro.orchestrator import Adam
from repro.services import (
    HARVEST_EFFICIENCY,
    SENSITIVITY_DBM,
    powering_objective,
    powering_report,
    secrecy_report,
    security_objective,
)


def make_form(rng, k=3, m=2, e=10):
    coeffs = 1e-4 * (
        rng.normal(size=(k, m, e)) + 1j * rng.normal(size=(k, m, e))
    )
    offset = np.zeros((k, m), dtype=complex)
    return LinearChannelForm("s", coeffs, offset)


class TestSecurity:
    def test_objective_separates_legit_from_eavesdropper(self, rng):
        form = make_form(rng, k=2)
        obj = security_objective(form, [0], [1], nulling_weight=1.0)
        result = Adam(max_iterations=200, learning_rate=0.25).optimize(
            obj, rng.uniform(0, 2 * np.pi, obj.dim)
        )
        # Evaluate the secrecy outcome.
        x = np.exp(1j * result.phases)
        h = form.evaluate(x)
        gains = np.sum(np.abs(h) ** 2, axis=1)
        budget = LinkBudget()
        legit_snr = budget.snr_db(gains[0])
        eve_snr = budget.snr_db(gains[1])
        assert legit_snr - eve_snr > 10.0

    def test_report(self, rng):
        form = make_form(rng, k=2)

        class FakeModel:
            def evaluate(self, configs):
                return form.evaluate(configs["s"])

        x = np.exp(1j * rng.uniform(0, 2 * np.pi, 10))
        report = secrecy_report(
            FakeModel(), {"s": x}, [0], [1], LinkBudget()
        )
        assert np.isfinite(report.secrecy_margin_db)

    def test_validation(self, rng):
        form = make_form(rng, k=2)
        with pytest.raises(ServiceError):
            security_objective(form, [0], [0])
        with pytest.raises(ServiceError):
            security_objective(form, [0], [1], nulling_weight=0.0)


class TestPowering:
    def test_optimizing_increases_harvested_power(self, rng):
        form = make_form(rng, k=1)
        obj = powering_objective(form)
        x0 = rng.uniform(0, 2 * np.pi, obj.dim)
        result = Adam(max_iterations=150).optimize(obj, x0)
        # One point: the loss is −10·log10 of its harvested power.
        assert obj.value(result.phases) < obj.value(x0)

    def test_report_sensitivity_cutoff(self, rng):
        class FakeModel:
            num_points = 2

            def evaluate(self, configs):
                # One strong point (-10 dBm at 20 dBm tx → gain 1e-3),
                # one below sensitivity.
                return np.array([[np.sqrt(1e-3)], [np.sqrt(1e-9)]])

        report = powering_report(FakeModel(), {}, LinkBudget(tx_power_dbm=20))
        assert report.fraction_above_sensitivity == pytest.approx(0.5)
        assert report.mean_harvested_mw > 0.0

    def test_harvest_constants_sane(self):
        assert 0 < HARVEST_EFFICIENCY <= 1
        assert SENSITIVITY_DBM < 0
