"""Property-based tests: channel model, slices, geometry, analysis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import EmpiricalCDF
from repro.channel import ChannelModel
from repro.geometry import CONCRETE, Wall, vec3
from repro.orchestrator import ResourceSlice


def make_model(seed, k, m, e1, e2, with_pair):
    rng = np.random.default_rng(seed)
    ap_to_surface = {
        "a": rng.normal(size=(m, e1)) + 1j * rng.normal(size=(m, e1)),
        "b": rng.normal(size=(m, e2)) + 1j * rng.normal(size=(m, e2)),
    }
    surface_to_points = {
        "a": rng.normal(size=(k, e1)) + 1j * rng.normal(size=(k, e1)),
        "b": rng.normal(size=(k, e2)) + 1j * rng.normal(size=(k, e2)),
    }
    pairs = {}
    if with_pair:
        g = rng.normal(size=(e1, e2)) + 1j * rng.normal(size=(e1, e2))
        pairs[("a", "b")] = g
        pairs[("b", "a")] = g.T
    return ChannelModel(
        points=rng.normal(size=(k, 3)),
        direct=rng.normal(size=(k, m)) + 1j * rng.normal(size=(k, m)),
        ap_to_surface=ap_to_surface,
        surface_to_points=surface_to_points,
        surface_to_surface=pairs,
        frequency_hz=28e9,
    )


class TestChannelModelProperties:
    @given(
        st.integers(0, 10 ** 6),
        st.integers(1, 4),
        st.integers(1, 3),
        st.integers(1, 5),
        st.integers(1, 5),
        st.booleans(),
        st.sampled_from(["a", "b"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_linear_form_consistency(self, seed, k, m, e1, e2, pair, sid):
        """linear_form(s).evaluate(x_s) == evaluate(all) for any configs."""
        model = make_model(seed, k, m, e1, e2, pair)
        rng = np.random.default_rng(seed + 1)
        configs = {
            s: np.exp(1j * rng.uniform(0, 2 * np.pi, model.num_elements(s)))
            for s in model.surface_ids
        }
        form = model.linear_form(sid, configs)
        assert np.allclose(form.evaluate(configs[sid]), model.evaluate(configs))

    @given(st.integers(0, 10 ** 6), st.integers(2, 5))
    @settings(max_examples=25, deadline=None)
    def test_superposition_without_pairs(self, seed, k):
        """Without cascades the model is linear: surfaces superpose."""
        model = make_model(seed, k, 2, 4, 3, with_pair=False)
        rng = np.random.default_rng(seed + 2)
        xa = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
        xb = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
        za, zb = np.zeros(4), np.zeros(3)
        both = model.evaluate({"a": xa, "b": xb})
        only_a = model.evaluate({"a": xa, "b": zb})
        only_b = model.evaluate({"a": za, "b": xb})
        neither = model.evaluate({"a": za, "b": zb})
        assert np.allclose(both, only_a + only_b - neither)


class TestSliceProperties:
    band = st.tuples(st.floats(1e9, 5e9), st.floats(5.1e9, 9e9))

    @st.composite
    def slices(draw, surface=st.sampled_from(["s1", "s2"])):
        n = 8
        mask = draw(
            st.lists(st.booleans(), min_size=n, max_size=n).filter(any)
        )
        lo = draw(st.floats(1e9, 5e9))
        hi = draw(st.floats(5.1e9, 9e9))
        return ResourceSlice(
            surface_id=draw(surface),
            element_mask=np.array(mask),
            band_hz=(lo, hi),
            time_fraction=draw(st.floats(0.1, 1.0)),
            shared_group=draw(st.sampled_from(["", "g1"])),
        )

    @given(slices(), slices())
    @settings(max_examples=60, deadline=None)
    def test_conflict_is_symmetric(self, a, b):
        assert a.conflicts_with(b) == b.conflicts_with(a)

    @given(slices())
    def test_slice_never_conflicts_when_alone_in_group(self, a):
        same_group = ResourceSlice(
            surface_id=a.surface_id,
            element_mask=a.element_mask,
            band_hz=a.band_hz,
            time_fraction=1.0,
            shared_group="shared",
        )
        other = ResourceSlice(
            surface_id=a.surface_id,
            element_mask=a.element_mask,
            band_hz=a.band_hz,
            time_fraction=1.0,
            shared_group="shared",
        )
        assert not same_group.conflicts_with(other)


class TestGeometryProperties:
    @given(
        st.floats(-5, 5),
        st.floats(-5, 5),
        st.floats(0.1, 3.0),
    )
    def test_wall_mirror_involution(self, px, py, pz):
        wall = Wall(start=vec3(0, -4), end=vec3(1, 4), material=CONCRETE)
        p = vec3(px, py, pz)
        assert np.allclose(wall.mirror_point(wall.mirror_point(p)), p)

    @given(st.floats(-5, 5), st.floats(-5, 5), st.floats(0.1, 2.9))
    def test_mirror_preserves_distance_to_plane(self, px, py, pz):
        wall = Wall(start=vec3(0, -4), end=vec3(0, 4), material=CONCRETE)
        p = vec3(px, py, pz)
        m = wall.mirror_point(p)
        # x-coordinate flips sign across the x=0 plane.
        assert m[0] == pytest.approx(-p[0], abs=1e-9)
        assert m[1] == pytest.approx(p[1])
        assert m[2] == pytest.approx(p[2])


class TestCDFProperties:
    samples = st.lists(
        st.floats(-100, 100, allow_nan=False), min_size=1, max_size=50
    )

    @given(samples)
    def test_cdf_monotone_and_bounded(self, values):
        cdf = EmpiricalCDF(np.array(values))
        xs = np.linspace(min(values) - 1, max(values) + 1, 20)
        ys = [cdf.at(x) for x in xs]
        assert all(0.0 <= y <= 1.0 for y in ys)
        assert all(a <= b + 1e-12 for a, b in zip(ys, ys[1:]))
        assert cdf.at(max(values)) == pytest.approx(1.0)

    @given(samples, st.floats(0, 100))
    def test_percentile_within_range(self, values, q):
        cdf = EmpiricalCDF(np.array(values))
        p = cdf.percentile(q)
        assert min(values) - 1e-9 <= p <= max(values) + 1e-9
