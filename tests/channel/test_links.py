"""Leg-builder physics: Friis scaling, patterns, penetration, efficiency."""

import numpy as np
import pytest

from repro.channel import (
    elements_to_elements,
    elements_to_points,
    node_to_elements,
    node_to_points,
    single_antenna_node,
)
from repro.core.units import ghz, wavelength
from repro.em import friis_amplitude
from repro.geometry import CONCRETE, Environment, vec3
from repro.surfaces import (
    GENERIC_PROGRAMMABLE_28,
    OperationMode,
    SignalProperty,
    SurfacePanel,
    SurfaceSpec,
)

FREQ = ghz(28)


@pytest.fixture()
def empty_env():
    return Environment(name="empty")


@pytest.fixture()
def panel():
    return SurfacePanel(
        "p", GENERIC_PROGRAMMABLE_28, 6, 6, vec3(5, 0, 1.0), vec3(-1, 0, 0)
    )


class TestNodeToPoints:
    def test_free_space_matches_friis(self, empty_env):
        node = single_antenna_node("tx", vec3(0, 0, 1))
        points = np.array([[3.0, 0.0, 1.0]])
        h = node_to_points(
            empty_env, node, points, FREQ, include_reflections=False
        )
        assert abs(h[0, 0]) == pytest.approx(friis_amplitude(3.0, FREQ))

    def test_phase_matches_path_length(self, empty_env):
        node = single_antenna_node("tx", vec3(0, 0, 1))
        lam = wavelength(FREQ)
        d = 7 * lam  # integer wavelengths → zero phase
        h = node_to_points(
            empty_env,
            node,
            np.array([[d, 0.0, 1.0]]),
            FREQ,
            include_reflections=False,
        )
        assert np.angle(h[0, 0]) == pytest.approx(0.0, abs=1e-6)

    def test_wall_penetration_attenuates(self, empty_env):
        empty_env.add_wall_2d((1.5, -2), (1.5, 2), CONCRETE)
        node = single_antenna_node("tx", vec3(0, 0, 1))
        h = node_to_points(
            empty_env,
            node,
            np.array([[3.0, 0.0, 1.0]]),
            FREQ,
            include_reflections=False,
        )
        expected = friis_amplitude(3.0, FREQ) * CONCRETE.penetration_amplitude(
            FREQ
        )
        assert abs(h[0, 0]) == pytest.approx(expected, rel=1e-9)

    def test_reflections_add_paths(self, empty_env):
        empty_env.add_wall_2d((0, 2), (6, 2), CONCRETE, name="mirror")
        node = single_antenna_node("tx", vec3(0, 0, 1))
        points = np.array([[4.0, 0.0, 1.0]])
        h_direct = node_to_points(
            empty_env, node, points, FREQ, include_reflections=False
        )
        h_with = node_to_points(
            empty_env, node, points, FREQ, include_reflections=True
        )
        assert abs(h_with[0, 0] - h_direct[0, 0]) > 0.0


class TestElementLegs:
    def test_reciprocity_between_node_and_element_legs(self, empty_env, panel):
        """Same leg traced from either side has the same gain."""
        node = single_antenna_node("tx", vec3(0, 0, 1.0))
        a = node_to_elements(
            empty_env, node, panel, FREQ, apply_efficiency=False
        )  # (1, E)
        b = elements_to_points(
            empty_env, panel, node.positions, FREQ
        )  # (1, E)
        assert np.allclose(a[0], b[0], rtol=1e-9)

    def test_efficiency_applied_on_incoming_leg(self, empty_env, panel):
        node = single_antenna_node("tx", vec3(0, 0, 1.0))
        with_eff = node_to_elements(empty_env, node, panel, FREQ)
        without = node_to_elements(
            empty_env, node, panel, FREQ, apply_efficiency=False
        )
        eff = panel.spec.efficiency(FREQ)
        assert np.allclose(with_eff, without * eff)

    def test_out_of_band_carrier_kills_leg(self, empty_env, panel):
        node = single_antenna_node("tx", vec3(0, 0, 1.0))
        h = node_to_elements(empty_env, node, panel, ghz(60))
        assert np.allclose(h, 0.0)

    def test_back_hemisphere_blind_for_reflective(self, empty_env, panel):
        # Panel faces -x; a node behind it (+x side) gets zero gains.
        node = single_antenna_node("tx", vec3(8.0, 0, 1.0))
        h = node_to_elements(empty_env, node, panel, FREQ)
        assert np.allclose(h, 0.0)

    def test_transmissive_panel_sees_both_sides(self, empty_env):
        spec = SurfaceSpec(
            design="trans",
            band_hz=(ghz(27), ghz(29)),
            properties=frozenset([SignalProperty.PHASE]),
            operation_mode=OperationMode.TRANSMISSIVE,
            reconfigurable=True,
        )
        panel = SurfacePanel("t", spec, 6, 6, vec3(5, 0, 1.0), vec3(-1, 0, 0))
        behind = single_antenna_node("tx", vec3(8.0, 0, 1.0))
        h = node_to_elements(empty_env, behind, panel, FREQ)
        assert np.all(np.abs(h) > 0.0)

    def test_surface_to_surface_shape_and_symmetry(self, empty_env, panel):
        other = SurfacePanel(
            "q", GENERIC_PROGRAMMABLE_28, 4, 4, vec3(0, 0, 1.0), vec3(1, 0, 0)
        )
        fwd = elements_to_elements(empty_env, other, panel, FREQ)
        rev = elements_to_elements(empty_env, panel, other, FREQ)
        assert fwd.shape == (16, 36)
        assert rev.shape == (36, 16)
        # Same efficiency both ways here (identical specs) → transpose
        # symmetry of the geometric part.
        assert np.allclose(fwd, rev.T, rtol=1e-9)

    def test_inter_surface_amplitude_scales_with_distance(self, empty_env, panel):
        near = SurfacePanel(
            "n", GENERIC_PROGRAMMABLE_28, 4, 4, vec3(1, 0, 1.0), vec3(1, 0, 0)
        )
        far = SurfacePanel(
            "f", GENERIC_PROGRAMMABLE_28, 4, 4, vec3(-3, 0, 1.0), vec3(1, 0, 0)
        )
        g_near = np.abs(elements_to_elements(empty_env, near, panel, FREQ)).mean()
        g_far = np.abs(elements_to_elements(empty_env, far, panel, FREQ)).mean()
        assert g_near > g_far
