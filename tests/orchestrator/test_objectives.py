"""Analytic gradients vs finite differences — the load-bearing check."""

import numpy as np
import pytest

from repro.channel import LinearChannelForm
from repro.core.errors import OptimizationError
from repro.em import LinkBudget
from repro.orchestrator.objectives import (
    CoverageGoal,
    CoverageObjective,
    FiniteDifferenceObjective,
    JointObjective,
    PoweringObjective,
)


def random_form(rng, k=4, m=2, e=6, scale=1e-4):
    coeffs = scale * (rng.normal(size=(k, m, e)) + 1j * rng.normal(size=(k, m, e)))
    offset = scale * (rng.normal(size=(k, m)) + 1j * rng.normal(size=(k, m)))
    return LinearChannelForm("s", coeffs, offset)


def check_gradient(objective, phases, rtol=1e-4, atol=1e-9):
    analytic_loss, analytic_grad = objective.value_and_gradient(phases)
    fd = FiniteDifferenceObjective(objective.value, objective.dim, step=1e-6)
    fd_loss, fd_grad = fd.value_and_gradient(phases)
    assert analytic_loss == pytest.approx(fd_loss)
    scale = max(np.abs(fd_grad).max(), atol)
    assert np.allclose(analytic_grad, fd_grad, rtol=rtol, atol=rtol * scale), (
        f"analytic {analytic_grad} vs fd {fd_grad}"
    )


@pytest.fixture()
def rng():
    return np.random.default_rng(7)


class TestCoverage:
    def test_gradient_matches_finite_differences(self, rng):
        form = random_form(rng)
        obj = CoverageObjective(form)
        phases = rng.uniform(0, 2 * np.pi, obj.dim)
        check_gradient(obj, phases)

    def test_gradient_with_amplitudes_and_weights(self, rng):
        form = random_form(rng)
        amplitudes = rng.uniform(0.3, 1.0, 6)
        weights = rng.uniform(0.1, 1.0, 4)
        obj = CoverageObjective(
            form,
            amplitudes=amplitudes,
            goal=CoverageGoal(budget=LinkBudget(), weights=weights),
        )
        check_gradient(obj, rng.uniform(0, 2 * np.pi, obj.dim))

    def test_loss_decreases_with_aligned_phases(self, rng):
        # Single point, no offset: aligning all coefficients is optimal.
        coeffs = 1e-4 * np.exp(
            1j * rng.uniform(0, 2 * np.pi, (1, 1, 5))
        )
        form = LinearChannelForm("s", coeffs, np.zeros((1, 1), dtype=complex))
        obj = CoverageObjective(form)
        aligned = -np.angle(coeffs[0, 0])
        random_phases = rng.uniform(0, 2 * np.pi, 5)
        assert obj.value(aligned) < obj.value(random_phases)

    def test_snr_helper_consistent(self, rng):
        form = random_form(rng)
        obj = CoverageObjective(form)
        phases = rng.uniform(0, 2 * np.pi, obj.dim)
        snrs = obj.snr_db(phases)
        assert snrs.shape == (4,)
        assert np.all(np.isfinite(snrs))

    def test_validation(self, rng):
        form = random_form(rng)
        with pytest.raises(OptimizationError):
            CoverageObjective(form, amplitudes=np.ones(3))
        with pytest.raises(OptimizationError):
            CoverageObjective(
                form, goal=CoverageGoal(budget=LinkBudget(), weights=np.ones(2))
            )
        with pytest.raises(OptimizationError):
            CoverageObjective(
                form,
                goal=CoverageGoal(budget=LinkBudget(), weights=np.zeros(4)),
            )
        obj = CoverageObjective(form)
        with pytest.raises(OptimizationError):
            obj.value(np.zeros(3))


class TestPowering:
    def test_gradient_matches_finite_differences(self, rng):
        form = random_form(rng)
        obj = PoweringObjective(form)
        check_gradient(obj, rng.uniform(0, 2 * np.pi, obj.dim))

    def test_harvested_dbm_shape(self, rng):
        form = random_form(rng)
        obj = PoweringObjective(form)
        assert obj.harvested_dbm(np.zeros(obj.dim)).shape == (4,)


class TestJoint:
    def test_weighted_sum_value_and_gradient(self, rng):
        form = random_form(rng)
        cov = CoverageObjective(form)
        pow_ = PoweringObjective(form)
        joint = JointObjective([(cov, 1.0), (pow_, 0.25)])
        phases = rng.uniform(0, 2 * np.pi, joint.dim)
        v, g = joint.value_and_gradient(phases)
        cv, cg = cov.value_and_gradient(phases)
        pv, pg = pow_.value_and_gradient(phases)
        assert v == pytest.approx(cv + 0.25 * pv)
        assert np.allclose(g, cg + 0.25 * pg)

    def test_joint_gradient_matches_fd(self, rng):
        form = random_form(rng)
        joint = JointObjective(
            [(CoverageObjective(form), 1.0), (PoweringObjective(form), 0.1)]
        )
        check_gradient(joint, rng.uniform(0, 2 * np.pi, joint.dim))

    def test_validation(self, rng):
        with pytest.raises(OptimizationError):
            JointObjective([])
        f1 = random_form(rng, e=4)
        f2 = random_form(rng, e=6)
        with pytest.raises(OptimizationError):
            JointObjective(
                [(CoverageObjective(f1), 1.0), (CoverageObjective(f2), 1.0)]
            )
