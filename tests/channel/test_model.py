"""ChannelModel: evaluation vs linearization consistency."""

import numpy as np
import pytest

from repro.channel import ChannelModel, LinearChannelForm
from repro.core.errors import SimulationError


def random_model(rng, k=5, m=3, surfaces=(("s1", 8), ("s2", 6)), pairs=True):
    ap_to_surface = {
        sid: rng.normal(size=(m, e)) + 1j * rng.normal(size=(m, e))
        for sid, e in surfaces
    }
    surface_to_points = {
        sid: rng.normal(size=(k, e)) + 1j * rng.normal(size=(k, e))
        for sid, e in surfaces
    }
    sts = {}
    if pairs and len(surfaces) > 1:
        (s1, e1), (s2, e2) = surfaces[:2]
        g = rng.normal(size=(e1, e2)) + 1j * rng.normal(size=(e1, e2))
        sts[(s1, s2)] = g
        sts[(s2, s1)] = g.T
    return ChannelModel(
        points=rng.normal(size=(k, 3)),
        direct=rng.normal(size=(k, m)) + 1j * rng.normal(size=(k, m)),
        ap_to_surface=ap_to_surface,
        surface_to_points=surface_to_points,
        surface_to_surface=sts,
        frequency_hz=28e9,
    )


def random_configs(rng, model):
    return {
        sid: np.exp(1j * rng.uniform(0, 2 * np.pi, model.num_elements(sid)))
        for sid in model.surface_ids
    }


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


def test_evaluate_shape(rng):
    model = random_model(rng)
    h = model.evaluate(random_configs(rng, model))
    assert h.shape == (5, 3)


def test_evaluate_zero_configs_gives_direct(rng):
    model = random_model(rng)
    zeros = {sid: np.zeros(model.num_elements(sid)) for sid in model.surface_ids}
    assert np.allclose(model.evaluate(zeros), model.direct)


def test_evaluate_brute_force_match(rng):
    """Matrix evaluation equals the explicit double sum."""
    model = random_model(rng, k=2, m=2, surfaces=(("a", 3), ("b", 4)))
    cfg = random_configs(rng, model)
    h = model.evaluate(cfg)
    for k in range(2):
        for m in range(2):
            expected = model.direct[k, m]
            for sid in model.surface_ids:
                for e in range(model.num_elements(sid)):
                    expected += (
                        model.ap_to_surface[sid][m, e]
                        * cfg[sid][e]
                        * model.surface_to_points[sid][k, e]
                    )
            for (sid, tid), s_st in model.surface_to_surface.items():
                for e in range(model.num_elements(sid)):
                    for f in range(model.num_elements(tid)):
                        expected += (
                            model.ap_to_surface[sid][m, e]
                            * cfg[sid][e]
                            * s_st[e, f]
                            * cfg[tid][f]
                            * model.surface_to_points[tid][k, f]
                        )
            assert h[k, m] == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("sid", ["s1", "s2"])
def test_linear_form_matches_evaluate(rng, sid):
    model = random_model(rng)
    cfg = random_configs(rng, model)
    form = model.linear_form(sid, cfg)
    assert np.allclose(form.evaluate(cfg[sid]), model.evaluate(cfg))


def test_linear_form_is_linear(rng):
    model = random_model(rng)
    cfg = random_configs(rng, model)
    form = model.linear_form("s1", cfg)
    x1 = cfg["s1"]
    x2 = np.exp(1j * rng.uniform(0, 2 * np.pi, x1.shape))
    lhs = form.evaluate(x1 + x2) - form.offset
    rhs = (form.evaluate(x1) - form.offset) + (form.evaluate(x2) - form.offset)
    assert np.allclose(lhs, rhs)


def test_linear_form_three_surfaces(rng):
    model = random_model(
        rng, surfaces=(("a", 3), ("b", 4), ("c", 5)), pairs=False
    )
    # Add one cascade not involving the linearized surface.
    e_b, e_c = 4, 5
    model.surface_to_surface[("b", "c")] = rng.normal(
        size=(e_b, e_c)
    ) + 1j * rng.normal(size=(e_b, e_c))
    cfg = random_configs(rng, model)
    form = model.linear_form("a", cfg)
    assert np.allclose(form.evaluate(cfg["a"]), model.evaluate(cfg))


def test_restricted_points(rng):
    model = random_model(rng)
    cfg = random_configs(rng, model)
    sub = model.restricted([0, 2])
    assert np.allclose(sub.evaluate(cfg), model.evaluate(cfg)[[0, 2]])
    form = model.linear_form("s1", cfg).restricted([1, 3])
    assert np.allclose(
        form.evaluate(cfg["s1"]), model.evaluate(cfg)[[1, 3]]
    )


def test_missing_config_rejected(rng):
    model = random_model(rng)
    cfg = random_configs(rng, model)
    del cfg["s2"]
    with pytest.raises(SimulationError):
        model.evaluate(cfg)


def test_wrong_config_shape_rejected(rng):
    model = random_model(rng)
    cfg = random_configs(rng, model)
    cfg["s1"] = cfg["s1"][:-1]
    with pytest.raises(SimulationError):
        model.evaluate(cfg)


def test_linear_form_validation():
    with pytest.raises(SimulationError):
        LinearChannelForm("x", np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(SimulationError):
        LinearChannelForm("x", np.zeros((2, 2, 3)), np.zeros((2, 3)))


def test_restricted_range_equals_the_gather_and_owns_its_arrays(rng):
    model = random_model(rng)
    form = model.linear_form("s1", random_configs(rng, model))
    k = form.num_points
    for points in (range(1, k - 1), range(0, k), range(2, 2), range(1, k, 2)):
        sub = form.restricted(points)
        gathered = form.restricted(list(points))
        assert sub.coeffs.tobytes() == gathered.coeffs.tobytes()
        assert sub.offset.tobytes() == gathered.offset.tobytes()
        assert sub.coeffs.base is None and sub.offset.base is None
    with pytest.raises(IndexError):
        form.restricted(range(0, k + 1))
