"""Property: the one-pass direct trace equals the per-wall trace bit for bit.

``node_to_points`` prices the direct rays and both legs of every wall
bounce in one penetration call, with the image-method geometry of all
reflective walls computed as one ``(W, S, T)`` pass.  The reference
below is the per-wall formulation it replaced: one image-method pass
and two penetration calls per reflective wall, kept private to this
module.  On random scenes (mixed reflectivity, boxes, panel obstacles,
receive points within ``_EPS`` of a wall) the two must agree exactly.

Scenes have at most seven walls.  Exact agreement rests on NumPy's
``(n, W) @ (W,)`` loss sum giving a row the same bits wherever it sits
in a multi-row call (DESIGN.md, "Row-granular channel legs").  With
OpenBLAS on x86-64 that fails from eight walls on when the losses do
not add exactly: the per-wall formulation's own rows then depend on
their call's layout, so it is no fixed reference there.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import ula_node
from repro.channel.geomkernels import PanelStack, compiled_geometry
from repro.channel.links import node_to_points
from repro.channel.tracer import PanelObstacle, segment_amplitude
from repro.core.units import ghz, wavelength
from repro.em.antenna import ISOTROPIC, PATCH
from repro.geometry import Box
from repro.geometry.environment import Environment
from repro.geometry.materials import BRICK, CONCRETE, DRYWALL, METAL, Material
from repro.surfaces import GENERIC_PASSIVE_28, GENERIC_PROGRAMMABLE_28, SurfacePanel

FREQ = ghz(28)
_EPS = 1e-9
_TINY = 1e-12

#: Just under and exactly at the 0.05 reflectivity cutoff.
MATTE = Material("matte", ((1e9, 3.0), (1e11, 12.0)), reflectivity=0.04)
EDGE = Material("edge", ((1e9, 2.0), (1e11, 9.0)), reflectivity=0.05)
MATERIALS = [DRYWALL, CONCRETE, BRICK, METAL, MATTE, EDGE]


# ----------------------------------------------------------------------
# reference per-wall implementation
# ----------------------------------------------------------------------


def _ref_pattern(sources, boresight, pattern, targets):
    diff = targets[None, :, :] - sources[:, None, :]
    return _ref_pattern_from_diff(diff, boresight, pattern)


def _ref_pattern_pairwise(sources, boresight, pattern, targets):
    diff = targets - sources[:, None, :]
    return _ref_pattern_from_diff(diff, boresight, pattern)


def _ref_pattern_from_diff(diff, boresight, pattern):
    dist = np.linalg.norm(diff, axis=2)
    safe = np.maximum(dist, _TINY)
    cos_theta = np.einsum("stk,k->st", diff, boresight) / safe
    peak = pattern.peak_gain_linear
    if pattern.cos_exponent == 0.0:
        gains = np.full_like(cos_theta, peak)
    else:
        gains = peak * np.clip(np.abs(cos_theta), 0.0, 1.0) ** pattern.cos_exponent
    if pattern.front_only:
        gains = np.where(cos_theta > 0.0, gains, 0.0)
    return np.sqrt(gains)


def _ref_reflection_legs(compiled, wall_index, sources, targets, panels):
    wall = compiled.walls[wall_index]
    n_s, n_t = sources.shape[0], targets.shape[0]
    p = compiled.wall_p[wall_index]
    s = compiled.wall_s[wall_index]
    normal = np.array([-s[1], s[0]]) / np.linalg.norm(s)
    dist = (sources[:, :2] - p[None, :]) @ normal
    mirrored = sources.copy()
    mirrored[:, :2] -= 2.0 * dist[:, None] * normal[None, :]
    r = targets[None, :, :2] - mirrored[:, None, :2]
    denom = r[:, :, 0] * s[1] - r[:, :, 1] * s[0]
    ok = np.abs(denom) > _EPS
    safe = np.where(ok, denom, 1.0)
    ap = p[None, None, :] - mirrored[:, None, :2]
    t = (ap[:, :, 0] * s[1] - ap[:, :, 1] * s[0]) / safe
    u = (ap[:, :, 0] * r[:, :, 1] - ap[:, :, 1] * r[:, :, 0]) / safe
    z = mirrored[:, None, 2] + t * (targets[None, :, 2] - mirrored[:, None, 2])
    valid = (
        ok
        & (t > _EPS)
        & (t < 1.0 - _EPS)
        & (u >= -_EPS)
        & (u <= 1.0 + _EPS)
        & (z >= wall.z_min - _EPS)
        & (z <= wall.z_max + _EPS)
    )
    bounce = np.empty((n_s, n_t, 3))
    bounce[:, :, :2] = mirrored[:, None, :2] + t[:, :, None] * r
    bounce[:, :, 2] = z
    leg1 = np.linalg.norm(bounce - sources[:, None, :], axis=2)
    leg2 = np.linalg.norm(targets[None, :, :] - bounce, axis=2)
    valid &= (leg1 >= _EPS) & (leg2 >= _EPS)
    amplitude = np.zeros((n_s, n_t))
    if valid.any():
        si, ti = np.nonzero(valid)
        exclude = np.full(si.size, wall_index)
        amp1 = compiled.segment_amplitude(
            sources[si], bounce[si, ti], FREQ, panels, exclude
        )
        amp2 = compiled.segment_amplitude(
            bounce[si, ti], targets[ti], FREQ, panels, exclude
        )
        amplitude[si, ti] = wall.material.reflectivity * amp1 * amp2
    faint = amplitude < 1e-8
    valid &= ~faint
    amplitude[faint] = 0.0
    return valid, bounce, leg1 + leg2, amplitude


def _ref_node_to_points(env, node, points, panel_obstacles, include_reflections):
    lam = wavelength(FREQ)
    k_wave = 2.0 * math.pi / lam
    ant = node.positions
    m, k = ant.shape[0], points.shape[0]
    dist = np.linalg.norm(ant[:, None, :] - points[None, :, :], axis=2)
    safe = np.maximum(dist, _TINY)
    tx_amp = _ref_pattern(ant, node.boresight, node.pattern, points)
    pen = segment_amplitude(
        env, np.repeat(ant, k, axis=0), np.tile(points, (m, 1)), FREQ, panel_obstacles
    ).reshape(m, k)
    h = (lam / (4.0 * math.pi * safe)) * tx_amp * 1.0 * pen * np.exp(-1j * k_wave * dist)
    if include_reflections:
        compiled = compiled_geometry(env)
        panels = PanelStack(panel_obstacles) if panel_obstacles else None
        for index in compiled.reflective_wall_indices():
            valid, bounce, length, refl_amp = _ref_reflection_legs(
                compiled, index, ant, points, panels
            )
            if not valid.any():
                continue
            safe_len = np.where(valid, length, 1.0)
            pattern_amp = _ref_pattern_pairwise(ant, node.boresight, node.pattern, bounce)
            amp = (lam / (4.0 * math.pi * safe_len)) * refl_amp * pattern_amp * 1.0
            h += amp * np.exp(-1j * k_wave * length)
    return h.T


# ----------------------------------------------------------------------
# scenes
# ----------------------------------------------------------------------

COORD = st.floats(0.0, 10.0, allow_nan=False)
WALL = st.tuples(COORD, COORD, COORD, COORD, st.sampled_from(MATERIALS))
BOX = st.tuples(COORD, COORD, st.floats(0.2, 2.5), st.sampled_from(MATERIALS))
PANEL = st.tuples(COORD, COORD, st.floats(0.0, 2.0 * math.pi), st.booleans())
#: A receive point: free, or on a wall (index, position along it, offset
#: from its plane in units of ``_EPS``).
POINT = st.tuples(
    COORD,
    COORD,
    st.floats(0.0, 2.5),
    st.one_of(
        st.none(),
        st.tuples(st.integers(0, 6), st.floats(0.0, 1.0), st.floats(-2.0, 2.0)),
    ),
)


def build_env(walls, boxes):
    env = Environment("property", ceiling_height=3.0)
    for x0, y0, x1, y1, material in walls:
        if math.hypot(x1 - x0, y1 - y0) > 0.1:
            env.add_wall_2d((x0, y0), (x1, y1), material)
    for x, y, size, material in boxes:
        env.add_box(Box(lo=(x, y, 0.0), hi=(x + size, y + size, size), material=material))
    return env


def build_obstacles(panels):
    obstacles = []
    for i, (x, y, angle, programmable) in enumerate(panels):
        spec = GENERIC_PROGRAMMABLE_28 if programmable else GENERIC_PASSIVE_28
        normal = (math.cos(angle), math.sin(angle), 0.0)
        panel = SurfacePanel(f"p{i}", spec, 6, 6, (x, y, 1.5), normal)
        obstacles.append(PanelObstacle(panel))
    return obstacles


def build_points(env, points):
    out = []
    for x, y, z, on_wall in points:
        if on_wall is not None and env.walls:
            index, along, offset = on_wall
            wall = env.walls[index % len(env.walls)]
            d = wall.end[:2] - wall.start[:2]
            normal = np.array([-d[1], d[0]]) / np.linalg.norm(d)
            x, y = wall.start[:2] + along * d + offset * _EPS * normal
        out.append((x, y, z))
    return np.array(out, dtype=float)


def assert_matches_reference(env, node, points, obstacles=(), include_reflections=True):
    got = node_to_points(env, node, points, FREQ, obstacles, include_reflections)
    ref = _ref_node_to_points(env, node, points, obstacles, include_reflections)
    assert got.shape == ref.shape
    assert np.array_equal(got, ref)
    return got


@settings(max_examples=100, deadline=None)
@given(
    walls=st.lists(WALL, max_size=7),
    boxes=st.lists(BOX, max_size=3),
    panels=st.lists(PANEL, max_size=3),
    points=st.lists(POINT, min_size=1, max_size=20),
    antennas=st.integers(1, 4),
    center=st.tuples(COORD, COORD, st.floats(0.5, 2.5)),
    heading=st.floats(0.0, 2.0 * math.pi),
    directional=st.booleans(),
    include_reflections=st.booleans(),
)
def test_direct_trace_matches_per_wall_reference(
    walls, boxes, panels, points, antennas, center, heading, directional,
    include_reflections,
):
    env = build_env(walls, boxes)
    node = ula_node(
        "node", center, antennas, FREQ, axis=(0, 0, 1),
        boresight=(math.cos(heading), math.sin(heading), 0.0),
        pattern=PATCH if directional else ISOTROPIC,
    )
    assert_matches_reference(
        env, node, build_points(env, points), build_obstacles(panels),
        include_reflections,
    )


# ----------------------------------------------------------------------
# edge cases
# ----------------------------------------------------------------------


def _node(antennas=4, center=(2.0, 2.0, 1.5)):
    return ula_node("node", center, antennas, FREQ, axis=(0, 0, 1), boresight=(1, 0.2, 0))


POINTS = np.array([[6.0, 3.0, 1.0], [4.5, 1.0, 1.2], [7.5, 4.0, 0.8]])


def test_no_walls():
    env = build_env([], [(3.0, 1.5, 1.0, BRICK)])
    assert_matches_reference(env, _node(), POINTS)


def test_no_wall_reaches_the_reflectivity_cutoff():
    env = build_env([(0, 0, 9, 0, MATTE), (0, 5, 9, 5, MATTE)], [])
    assert compiled_geometry(env).reflective_wall_indices() == ()
    assert_matches_reference(env, _node(), POINTS)


def test_reflections_off():
    env = build_env([(0, 0, 9, 0, CONCRETE), (0, 5, 9, 5, METAL)], [])
    with_bounces = assert_matches_reference(env, _node(), POINTS)
    direct = assert_matches_reference(env, _node(), POINTS, include_reflections=False)
    assert not np.array_equal(with_bounces, direct)


def test_no_valid_bounce():
    # The wall spans x in [0, 1]; every mirror path crosses y = 5 near x = 5.
    env = build_env([(0, 5, 1, 5, METAL)], [])
    node = _node(center=(5.0, 0.0, 1.5))
    points = np.array([[6.0, 0.0, 1.0], [5.5, 1.0, 1.0]])
    _, bounces = compiled_geometry(env).trace_pairs(node.positions, points, FREQ)
    assert bounces.walls.tolist() == [0] and not bounces.valid.any()
    got = assert_matches_reference(env, node, points)
    direct = node_to_points(env, node, points, FREQ, include_reflections=False)
    assert np.array_equal(got, direct)


def test_lone_bounce_priced_alone():
    """A wall's only bounce keeps the bits of its own one-row call."""
    env = build_env(
        [(0, 3, 1, 0, DRYWALL), (1, 0, 0, 1, MATTE), (1, 0, 0, 1, MATTE), (0, 1, 1, 0, BRICK)],
        [],
    )
    node = ula_node("node", (0, 0, 1), 1, FREQ, axis=(0, 0, 1), boresight=(1, 0, 0))
    points = np.array([[0.0, 2.0, 0.0]])
    _, bounces = compiled_geometry(env).trace_pairs(node.positions, points, FREQ)
    assert bounces.valid.sum() == 1
    assert_matches_reference(env, node, points)


def test_one_antenna_node():
    env = build_env([(0, 0, 9, 0, CONCRETE), (0, 5, 9, 5, DRYWALL)], [])
    got = assert_matches_reference(env, _node(antennas=1), POINTS)
    assert got.shape == (len(POINTS), 1)
