"""Panel geometry and configuration projection."""

import numpy as np
import pytest

from repro.core import ConfigurationError, SurfaceConfiguration
from repro.surfaces import (
    GENERIC_COLUMNWISE_28,
    GENERIC_PASSIVE_28,
    GENERIC_PROGRAMMABLE_28,
    SurfacePanel,
)
from repro.geometry import vec3


@pytest.fixture()
def panel():
    return SurfacePanel(
        "p", GENERIC_PROGRAMMABLE_28, 4, 6, vec3(0, 0, 1.5), vec3(0, -1, 0)
    )


def test_element_positions_shape_and_plane(panel):
    pos = panel.element_positions()
    assert pos.shape == (24, 3)
    # All elements lie in the panel plane (y = 0).
    assert np.allclose(pos[:, 1], 0.0)
    # Centered on the panel center.
    assert np.allclose(pos.mean(axis=0), [0, 0, 1.5])


def test_element_positions_row_major(panel):
    pos = panel.element_positions()
    pitch = panel.element_pitch_m
    # Consecutive elements within a row differ by one pitch along u.
    step = np.linalg.norm(pos[1] - pos[0])
    assert step == pytest.approx(pitch)
    # Row stride jumps along v.
    row_step = np.linalg.norm(pos[6] - pos[0])
    assert row_step == pytest.approx(pitch)


def test_plane_axes_orthonormal(panel):
    u, v = panel.plane_axes()
    assert np.dot(u, v) == pytest.approx(0.0, abs=1e-12)
    assert np.dot(u, panel.normal) == pytest.approx(0.0, abs=1e-12)
    assert np.linalg.norm(u) == pytest.approx(1.0)
    assert np.linalg.norm(v) == pytest.approx(1.0)


def test_dimensions_and_cost(panel):
    assert panel.num_elements == 24
    assert panel.width_m == pytest.approx(6 * panel.element_pitch_m)
    assert panel.height_m == pytest.approx(4 * panel.element_pitch_m)
    assert panel.area_m2 == pytest.approx(panel.width_m * panel.height_m)
    assert panel.cost_usd == pytest.approx(
        24 * GENERIC_PROGRAMMABLE_28.cost_per_element_usd
    )


def test_sees_half_space(panel):
    # Normal points toward -y: points with y < 0 are in front.
    assert panel.sees(vec3(0, -2, 1.5))
    assert not panel.sees(vec3(0, 2, 1.5))


def test_feasible_quantizes_phases(panel):
    cfg = SurfaceConfiguration.random(4, 6, rng=np.random.default_rng(0))
    projected = panel.feasible(cfg)
    levels = 2 ** GENERIC_PROGRAMMABLE_28.phase_bits
    assert len(np.unique(np.round(projected.phases, 9))) <= levels


def test_feasible_ties_columnwise():
    panel = SurfacePanel(
        "c", GENERIC_COLUMNWISE_28, 4, 6, vec3(0, 0, 1.5), vec3(0, -1, 0)
    )
    cfg = SurfaceConfiguration.random(4, 6, rng=np.random.default_rng(1))
    projected = panel.feasible(cfg)
    assert np.allclose(projected.phases, projected.phases[0:1, :])


def test_feasible_rejects_wrong_shape(panel):
    with pytest.raises(ConfigurationError):
        panel.feasible(SurfaceConfiguration.zeros(3, 3))


def test_actuate_stores_projection(panel):
    cfg = SurfaceConfiguration.random(4, 6, rng=np.random.default_rng(2))
    applied = panel.actuate(cfg)
    assert panel.configuration == applied


def test_degenerate_geometry_rejected():
    with pytest.raises(ConfigurationError):
        SurfacePanel(
            "bad", GENERIC_PASSIVE_28, 4, 4, vec3(0, 0, 0), vec3(0, 0, 1)
        )
    with pytest.raises(ConfigurationError):
        SurfacePanel("bad", GENERIC_PASSIVE_28, 0, 4, vec3(0, 0, 0), vec3(1, 0, 0))


def test_default_configuration_is_zero_phase(panel):
    assert np.allclose(panel.configuration.phases, 0.0)
    assert panel.configuration.name == "fabrication-default"
