"""Units for the drift-aware solve-budget machinery."""

import numpy as np
import pytest

from repro.core.errors import ServiceError
from repro.orchestrator import SolveBudgetConfig
from repro.orchestrator.solvebudget import group_key, relative_drift


class TestConfigValidation:
    def test_defaults_disabled(self):
        config = SolveBudgetConfig()
        assert not config.enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"floor": 0},
            {"floor": 8, "ceiling": 4},
            {"drift_low": 0.5, "drift_high": 0.5},
            {"drift_low": -0.1},
            {"drift_low": 0.6},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ServiceError):
            SolveBudgetConfig(**kwargs)


class TestBudget:
    def config(self, **kwargs):
        return SolveBudgetConfig(enabled=True, **kwargs)

    def test_cold_start_gets_full_budget(self):
        assert self.config(floor=4).budget(None, 60) == 60

    def test_low_drift_gets_floor(self):
        ctl = self.config(floor=4, drift_low=0.02)
        assert ctl.budget(0.0, 60) == 4
        assert ctl.budget(0.02, 60) == 4

    def test_high_drift_gets_ceiling(self):
        ctl = self.config(floor=4, drift_high=0.5)
        assert ctl.budget(0.5, 60) == 60
        assert ctl.budget(7.0, 60) == 60

    def test_midband_interpolates_linearly(self):
        ctl = self.config(floor=10, drift_low=0.0, drift_high=1.0)
        assert ctl.budget(0.5, 110) == 60  # exactly halfway
        assert 10 < ctl.budget(0.25, 110) < 60

    def test_ceiling_clamps_to_full_budget(self):
        ctl = self.config(floor=4, ceiling=100)
        assert ctl.budget(None, 30) == 30

    def test_explicit_ceiling_caps_below_full(self):
        ctl = self.config(floor=4, ceiling=20)
        assert ctl.budget(None, 60) == 20
        assert ctl.budget(9.0, 60) == 20

    def test_floor_wins_over_tiny_full_budget(self):
        # A full budget below the floor still grants the floor: the
        # budget never hands out less than the polish minimum.
        ctl = self.config(floor=8)
        assert ctl.budget(None, 2) == 8

    def test_pure_function_of_inputs(self):
        ctl = self.config(floor=4)
        assert all(
            ctl.budget(0.1, 60) == ctl.budget(0.1, 60) for _ in range(5)
        )


class TestRelativeDrift:
    def test_zero_for_identical_scores(self):
        assert relative_drift(-3.2, -3.2) == 0.0

    def test_scales_by_cached_magnitude(self):
        assert relative_drift(-1.1, -1.0) == pytest.approx(0.1)
        assert relative_drift(-110.0, -100.0) == pytest.approx(0.1)

    def test_near_zero_cached_score_stays_finite(self):
        assert np.isfinite(relative_drift(1.0, 0.0))


class TestKeys:
    def test_group_key_sorts_members(self):
        assert group_key(["b", "a"]) == group_key(["a", "b"])
        assert group_key(["a"]) != "a"  # prefixed, never collides
