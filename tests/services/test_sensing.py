"""AoA estimation, localization errors, and the sensing loss."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.errors import OptimizationError, ServiceError
from repro.core.units import ghz
from repro.em import focus_configuration
from repro.orchestrator.objectives import FiniteDifferenceObjective
from repro.services import (
    AngleGrid,
    AoAEstimator,
    SurfaceAoAObjective,
    element_noise_power,
    localization_objective,
    measure_localization_errors,
    surface_illumination,
)

FREQ = ghz(28)


class TestAngleGrid:
    def test_uniform_grid_symmetric(self):
        grid = AngleGrid.uniform(fov_rad=math.radians(120), count=61)
        assert grid.count == 61
        assert grid.azimuths[0] == pytest.approx(-math.radians(60))
        assert grid.azimuths[-1] == pytest.approx(math.radians(60))
        assert grid.azimuths[30] == pytest.approx(0.0)

    def test_nearest_index(self):
        grid = AngleGrid(np.array([-0.5, 0.0, 0.5]))
        assert grid.nearest_index(0.1) == 1
        assert grid.nearest_index(-0.6) == 0
        assert grid.nearest_index(10.0) == 2

    def test_needs_two_angles(self):
        with pytest.raises(ServiceError):
            AngleGrid(np.array([0.0]))


@pytest.fixture()
def sensing_setup(simulator, ap, env, sites):
    """A 20x20 sensing panel and its channel model over the bedroom."""
    from repro.surfaces import GENERIC_PROGRAMMABLE_28, SurfacePanel

    panel = SurfacePanel(
        "s1",
        GENERIC_PROGRAMMABLE_28,
        20,
        20,
        sites.single_surface_center,
        sites.single_surface_normal,
    )
    points = env.room("bedroom").grid(0.8)
    model = simulator.build(ap, points, [panel])
    estimator = AoAEstimator(
        panel,
        surface_illumination(model, "s1"),
        AngleGrid.uniform(count=61),
        FREQ,
    )
    return panel, model, estimator


class TestAoAEstimator:
    def test_true_azimuth_geometry(self, sensing_setup):
        panel, _, est = sensing_setup
        ahead = panel.center + 2.0 * panel.normal
        assert est.true_azimuth(ahead) == pytest.approx(0.0, abs=1e-9)
        u, _ = panel.plane_axes()
        side = panel.center + 2.0 * panel.normal + 1.0 * u
        assert est.true_azimuth(side) == pytest.approx(math.atan2(1, 2))

    def test_steering_shape(self, sensing_setup):
        panel, _, est = sensing_setup
        expected = 61 * len(est.ranges_m)
        assert est.steering.shape == (expected, panel.num_elements)
        assert est.num_candidates == expected

    def test_candidate_index_mapping(self, sensing_setup):
        _, _, est = sensing_setup
        r = len(est.ranges_m)
        assert est.angle_index_of(0) == 0
        assert est.angle_index_of(r - 1) == 0
        assert est.angle_index_of(r) == 1

    def test_true_index_round_trip(self, sensing_setup):
        _, model, est = sensing_setup
        for point in model.points[:5]:
            idx = est.true_index(point)
            err = est.localization_error_m(point, idx)
            # Only angle-grid discretization error remains.
            rng_m = np.linalg.norm(point - est.panel.center)
            step = est.grid.azimuths[1] - est.grid.azimuths[0]
            assert err <= rng_m * step

    def test_spatial_info_preserving_config_localizes(self, sensing_setup, rng):
        """Conjugating the AP illumination makes the aperture look like
        a plain array — the legacy estimator nails every location."""
        panel, model, est = sensing_setup
        x = np.exp(-1j * np.angle(est.illumination))
        wavefronts = est.wavefront_map(model.surface_to_points["s1"])
        errors = []
        for k in range(model.num_points):
            idx, _ = est.estimate(wavefronts[k] * x)
            errors.append(est.localization_error_m(model.points[k], idx))
        assert np.median(errors) < 0.2

    def test_random_config_scrambles_wavefront(self, sensing_setup, rng):
        """A random configuration invalidates the estimator's spatial
        assumptions (the §2.1 effect)."""
        panel, model, est = sensing_setup
        good = np.exp(-1j * np.angle(est.illumination))
        bad = np.exp(1j * rng.uniform(0, 2 * np.pi, panel.num_elements))
        wavefronts = est.wavefront_map(model.surface_to_points["s1"])

        def median_error(x):
            errs = []
            for k in range(model.num_points):
                idx, _ = est.estimate(wavefronts[k] * x)
                errs.append(est.localization_error_m(model.points[k], idx))
            return float(np.median(errs))

        assert median_error(bad) > 3 * median_error(good)

    def test_estimate_spectrum_normalized(self, sensing_setup, rng):
        panel, model, est = sensing_setup
        z = rng.normal(size=panel.num_elements) + 1j * rng.normal(
            size=panel.num_elements
        )
        idx, spectrum = est.estimate(z)
        assert 0 <= idx < est.num_candidates
        assert np.all(spectrum >= 0) and np.all(spectrum <= 1.0 + 1e-9)

    def test_validation(self, sensing_setup):
        panel, _, _ = sensing_setup
        grid = AngleGrid.uniform(count=5)
        with pytest.raises(ServiceError):
            AoAEstimator(panel, np.zeros(3), grid, FREQ)
        with pytest.raises(ServiceError):
            AoAEstimator(
                panel, np.zeros(panel.num_elements), grid, FREQ, ranges_m=()
            )
        est = AoAEstimator(panel, np.ones(panel.num_elements), grid, FREQ)
        with pytest.raises(ServiceError):
            est.wavefront_map(np.zeros((4, 7)))


class TestMeasurement:
    def test_errors_shape_and_cap(self, sensing_setup, budget, rng):
        panel, model, est = sensing_setup
        x = np.exp(1j * rng.uniform(0, 2 * np.pi, panel.num_elements))
        errors = measure_localization_errors(
            model, "s1", {"s1": x}, est, budget, rng=rng, trials=2, cap_m=2.0
        )
        assert errors.shape == (model.num_points,)
        assert np.all(errors >= 0.0) and np.all(errors <= 2.0)

    def test_coverage_focus_beats_random_near_target_only(
        self, sensing_setup, budget, rng, ap
    ):
        """A focused config localizes its focal point but degrades the
        rest of the room relative to a spatial-info-preserving config."""
        panel, model, est = sensing_setup
        good = np.exp(-1j * np.angle(est.illumination))
        target = model.points[len(model.points) // 2]
        focus = focus_configuration(
            panel.element_positions(), panel.shape, ap.centroid, target, FREQ
        ).coefficients().reshape(-1)
        errs_focus = measure_localization_errors(
            model, "s1", {"s1": focus}, est, budget, rng=rng, trials=2
        )
        errs_good = measure_localization_errors(
            model, "s1", {"s1": good}, est, budget, rng=rng, trials=2
        )
        assert errs_focus.mean() > errs_good.mean()

    def test_element_noise_power_scales(self, budget):
        low = element_noise_power(budget, pilot_gain_db=30.0)
        high = element_noise_power(budget, pilot_gain_db=10.0)
        assert high == pytest.approx(low * 100.0)


class TestObjective:
    def test_gradient_matches_finite_differences(self, sensing_setup, budget, rng):
        _, model, est = sensing_setup
        obj = localization_objective(
            model, "s1", est, point_indices=range(4), budget=budget
        )
        phases = rng.uniform(0, 2 * np.pi, obj.dim)
        value, grad = obj.value_and_gradient(phases)
        fd = FiniteDifferenceObjective(obj.value, obj.dim, step=1e-6)
        fd_value, fd_grad = fd.value_and_gradient(phases)
        assert value == pytest.approx(fd_value)
        scale = np.abs(fd_grad).max()
        assert np.allclose(grad, fd_grad, rtol=1e-4, atol=1e-4 * scale)

    def test_loss_lower_for_spatial_info_preserving_config(
        self, sensing_setup, budget
    ):
        _, model, est = sensing_setup
        obj = localization_objective(model, "s1", est, budget=budget)
        good = np.mod(-np.angle(est.illumination), 2 * np.pi)
        rng = np.random.default_rng(5)
        bad = rng.uniform(0, 2 * np.pi, obj.dim)
        assert obj.value(good) < obj.value(bad)

    def test_optimization_reduces_measured_error(
        self, sensing_setup, budget, rng
    ):
        from repro.orchestrator import Adam

        panel, model, est = sensing_setup
        obj = localization_objective(model, "s1", est, budget=budget)
        x0 = rng.uniform(0, 2 * np.pi, obj.dim)
        result = Adam(max_iterations=80, learning_rate=0.2).optimize(obj, x0)
        before = measure_localization_errors(
            model,
            "s1",
            {"s1": np.exp(1j * x0)},
            est,
            budget,
            rng=np.random.default_rng(1),
            trials=2,
        )
        after = measure_localization_errors(
            model,
            "s1",
            {"s1": np.exp(1j * result.phases)},
            est,
            budget,
            rng=np.random.default_rng(1),
            trials=2,
        )
        assert after.mean() < before.mean()

    def test_estimate_peaks_at_matching_steering(self, rng):
        """When one steering hypothesis is exactly the observed
        wavefront, the spectrum peaks there at 1 and the argmax
        estimate picks it."""
        e = 6
        wavefronts = rng.normal(size=(1, e)) + 1j * rng.normal(size=(1, e))
        phases = rng.uniform(0, 2 * np.pi, e)
        steering = rng.normal(size=(5, e)) + 1j * rng.normal(size=(5, e))
        steering[2] = wavefronts[0] * np.exp(1j * phases)
        obj = SurfaceAoAObjective(
            wavefronts, SimpleNamespace(steering=steering), [2]
        )
        spectrum = obj.spectrum(phases)
        assert np.all(spectrum >= 0.0) and np.all(spectrum <= 1.0 + 1e-9)
        assert spectrum[0, 2] == pytest.approx(1.0)
        assert obj.estimated_indices(phases)[0] == 2

    @staticmethod
    def synthetic(rng, k=3, e=5, i=7, **kwargs):
        """An objective over random wavefronts and steering vectors."""
        wavefronts = 1e-4 * (
            rng.normal(size=(k, e)) + 1j * rng.normal(size=(k, e))
        )
        steering = rng.normal(size=(i, e)) + 1j * rng.normal(size=(i, e))
        true_idx = rng.integers(0, i, size=k)
        return SurfaceAoAObjective(
            wavefronts, SimpleNamespace(steering=steering), true_idx, **kwargs
        )

    @staticmethod
    def check_gradient(obj, phases, rtol=5e-4):
        value, grad = obj.value_and_gradient(phases)
        fd = FiniteDifferenceObjective(obj.value, obj.dim, step=1e-6)
        fd_value, fd_grad = fd.value_and_gradient(phases)
        assert value == pytest.approx(fd_value)
        scale = np.abs(fd_grad).max()
        assert np.allclose(grad, fd_grad, rtol=rtol, atol=rtol * scale)

    def test_synthetic_gradient_matches_finite_differences(self, rng):
        obj = self.synthetic(rng, beta=8.0)
        self.check_gradient(obj, rng.uniform(0, 2 * np.pi, obj.dim))

    def test_synthetic_gradient_matches_fd_high_beta(self, rng):
        obj = self.synthetic(rng, beta=40.0)
        self.check_gradient(obj, rng.uniform(0, 2 * np.pi, obj.dim))

    def test_gradient_with_amplitudes_and_noise(self, rng):
        obj = self.synthetic(
            rng,
            amplitudes=rng.uniform(0.3, 1.0, 5),
            noise_power=1e-8,
            beta=8.0,
        )
        self.check_gradient(obj, rng.uniform(0, 2 * np.pi, obj.dim))

    def test_spectrum_shape_and_bounds(self, rng):
        obj = self.synthetic(rng)
        spectrum = obj.spectrum(rng.uniform(0, 2 * np.pi, obj.dim))
        assert spectrum.shape == (3, 7)
        assert np.all(spectrum >= 0.0) and np.all(spectrum <= 1.0 + 1e-9)

    def test_shape_mismatches_rejected(self, rng):
        wavefronts = np.ones((2, 5), dtype=complex)
        with pytest.raises(OptimizationError):
            SurfaceAoAObjective(
                wavefronts,
                SimpleNamespace(steering=np.ones((4, 6), dtype=complex)),
                [0, 1],
            )
        with pytest.raises(OptimizationError):
            SurfaceAoAObjective(
                wavefronts,
                SimpleNamespace(steering=np.ones((4, 5), dtype=complex)),
                [0, 1],
                amplitudes=np.ones(4),
            )

    def test_validation(self, sensing_setup, rng):
        panel, model, est = sensing_setup
        w = est.wavefront_map(model.surface_to_points["s1"])
        with pytest.raises(OptimizationError):
            SurfaceAoAObjective(w[0], est, [0])
        with pytest.raises(OptimizationError):
            SurfaceAoAObjective(w, est, [0, 1])
        with pytest.raises(OptimizationError):
            SurfaceAoAObjective(w, est, [10 ** 6] * w.shape[0])
        with pytest.raises(OptimizationError):
            SurfaceAoAObjective(w, est, [0] * w.shape[0], beta=0.0)
