"""Golden equivalence: vectorized geometry kernels vs. per-obstacle loops.

The reference implementations below are the pre-vectorization
per-obstacle formulas, kept private to this test module.  Every
compiled kernel must reproduce them to 1e-9 on randomized environments,
including the degenerate geometry the epsilon guards exist for.
"""

import numpy as np
import pytest

from repro.channel.geomkernels import PanelStack, compiled_geometry
from repro.channel.tracer import (
    PanelObstacle,
    reflection_paths,
    segment_amplitude,
    segment_loss_db,
)
from repro.core.units import ghz
from repro.geometry import Box, two_room_apartment
from repro.geometry.environment import Environment
from repro.geometry.materials import BRICK, CONCRETE, DRYWALL

FREQ = ghz(28.0)
TOL = 1e-9
_EPS = 1e-9


# ----------------------------------------------------------------------
# reference per-obstacle implementations (the old scalar loop)
# ----------------------------------------------------------------------


def _ref_wall_mask(wall, a, b):
    p, q = wall.start[:2], wall.end[:2]
    s = q - p
    r = b[:, :2] - a[:, :2]
    denom = r[:, 0] * s[1] - r[:, 1] * s[0]
    ok = np.abs(denom) > _EPS
    safe = np.where(ok, denom, 1.0)
    ap = p[None, :] - a[:, :2]
    t = (ap[:, 0] * s[1] - ap[:, 1] * s[0]) / safe
    u = (ap[:, 0] * r[:, 1] - ap[:, 1] * r[:, 0]) / safe
    z = a[:, 2] + t * (b[:, 2] - a[:, 2])
    return (
        ok
        & (t > _EPS)
        & (t < 1.0 - _EPS)
        & (u >= -_EPS)
        & (u <= 1.0 + _EPS)
        & (z >= wall.z_min - _EPS)
        & (z <= wall.z_max + _EPS)
    )


def _ref_box_mask(box, a, b):
    d = b - a
    t_enter = np.zeros(a.shape[0])
    t_exit = np.ones(a.shape[0])
    inside_slabs = np.ones(a.shape[0], dtype=bool)
    for axis in range(3):
        da = d[:, axis]
        parallel = np.abs(da) < _EPS
        safe = np.where(parallel, 1.0, da)
        t1 = (box.lo[axis] - a[:, axis]) / safe
        t2 = (box.hi[axis] - a[:, axis]) / safe
        lo_t = np.minimum(t1, t2)
        hi_t = np.maximum(t1, t2)
        in_slab = (a[:, axis] >= box.lo[axis] - _EPS) & (
            a[:, axis] <= box.hi[axis] + _EPS
        )
        inside_slabs &= np.where(parallel, in_slab, True)
        t_enter = np.where(parallel, t_enter, np.maximum(t_enter, lo_t))
        t_exit = np.where(parallel, t_exit, np.minimum(t_exit, hi_t))
    return (
        inside_slabs
        & (t_enter < t_exit)
        & (t_exit > _EPS)
        & (t_enter < 1.0 - _EPS)
    )


def _ref_segment_loss_db(env, a, b, freq, panel_obstacles=(), exclude_walls=()):
    loss = np.zeros(a.shape[0])
    excluded = {id(w) for w in exclude_walls}
    for wall in env.walls:
        if id(wall) in excluded:
            continue
        mask = _ref_wall_mask(wall, a, b)
        if mask.any():
            loss[mask] += wall.material.penetration_loss_db(freq)
    for box in env.boxes:
        mask = _ref_box_mask(box, a, b)
        if mask.any():
            loss[mask] += box.material.penetration_loss_db(freq)
    for obstacle in panel_obstacles:
        mask = obstacle.crossing_mask(a, b)
        if mask.any():
            loss[mask] += obstacle.loss_db(freq)
    return loss


def _ref_reflection_paths(env, a, b, freq, panel_obstacles=()):
    a3 = np.asarray(a, dtype=float)
    b3 = np.asarray(b, dtype=float)
    paths = []
    for wall in env.reflective_walls():
        mirrored = wall.mirror_point(a3)
        bounce = wall.intersect_segment(mirrored, b3)
        if bounce is None:
            continue
        leg1 = float(np.linalg.norm(bounce - a3))
        leg2 = float(np.linalg.norm(b3 - bounce))
        if leg1 < _EPS or leg2 < _EPS:
            continue
        amp = wall.material.reflectivity
        for seg in ((a3, bounce), (bounce, b3)):
            loss = _ref_segment_loss_db(
                env,
                seg[0][None, :],
                seg[1][None, :],
                freq,
                panel_obstacles,
                exclude_walls=(wall,),
            )[0]
            amp *= 10.0 ** (-loss / 20.0)
        if amp < 1e-8:
            continue
        paths.append((wall, bounce, leg1 + leg2, amp))
    return paths


# ----------------------------------------------------------------------
# scene builders
# ----------------------------------------------------------------------


def random_environment(seed, num_walls=12, num_boxes=8):
    rng = np.random.default_rng(seed)
    env = Environment(f"golden-{seed}", ceiling_height=3.0)
    mats = [DRYWALL, CONCRETE, BRICK]
    for i in range(num_walls):
        p = rng.uniform(0, 20, 2)
        d = rng.uniform(-6, 6, 2)
        env.add_wall_2d(p, p + d, mats[i % 3], name=f"w{i}")
    for i in range(num_boxes):
        lo = rng.uniform(0, 18, 3) * np.array([1, 1, 0.1])
        size = rng.uniform(0.5, 3.0, 3)
        env.add_box(Box(lo=lo, hi=lo + size, material=mats[i % 3], name=f"b{i}"))
    return env, rng


def random_segments(rng, n=800):
    a = rng.uniform(0, 20, (n, 3)) * np.array([1, 1, 0.15])
    b = rng.uniform(0, 20, (n, 3)) * np.array([1, 1, 0.15])
    return a, b


# ----------------------------------------------------------------------
# golden tests
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 7, 42])
def test_segment_loss_matches_loop_on_random_scene(seed):
    env, rng = random_environment(seed)
    a, b = random_segments(rng)
    ref = _ref_segment_loss_db(env, a, b, FREQ)
    vec = compiled_geometry(env).segment_loss_db(a, b, FREQ)
    np.testing.assert_allclose(vec, ref, atol=TOL, rtol=0)


@pytest.mark.parametrize("seed", [3, 11])
def test_crossing_matrices_match_per_obstacle_masks(seed):
    env, rng = random_environment(seed)
    a, b = random_segments(rng, n=500)
    compiled = compiled_geometry(env)
    walls = compiled.wall_crossing_matrix(a, b)
    for j, wall in enumerate(env.walls):
        np.testing.assert_array_equal(walls[:, j], _ref_wall_mask(wall, a, b))
    boxes = compiled.box_crossing_matrix(a, b)
    for j, box in enumerate(env.boxes):
        np.testing.assert_array_equal(boxes[:, j], _ref_box_mask(box, a, b))


def test_parallel_and_grazing_segments():
    """Epsilon-guarded degeneracies: parallel, collinear, in-plane rays."""
    env = Environment("degenerate", ceiling_height=3.0)
    env.add_wall_2d((2.0, 0.0), (2.0, 4.0), DRYWALL, name="vertical")
    env.add_wall_2d((0.0, 2.0), (4.0, 2.0), CONCRETE, name="horizontal")
    env.add_box(Box(lo=(5.0, 0.0, 0.0), hi=(6.0, 1.0, 2.0), material=BRICK))
    a = np.array(
        [
            [2.0, -1.0, 1.0],  # collinear with the vertical wall's line
            [2.0, 1.0, 0.5],   # runs *inside* the vertical wall plane
            [0.0, 2.0, 1.0],   # collinear with the horizontal wall
            [1.0, 0.0, 1.0],   # parallel to the vertical wall, offset
            [5.5, 0.5, -1.0],  # z-parallel ray up through the box
            [5.5, 0.5, 0.5],   # z-parallel, starting inside the box
            [4.5, 0.5, 0.5],   # z-parallel, outside the box's x-slab
            [2.0, 2.0, 1.0],   # endpoint exactly on both wall lines
            [1.9999999999, 1.0, 1.0],  # grazing the vertical wall plane
        ]
    )
    b = np.array(
        [
            [2.0, 5.0, 1.0],
            [2.0, 3.0, 2.5],
            [4.0, 2.0, 1.0],
            [1.0, 4.0, 1.0],
            [5.5, 0.5, 3.0],
            [5.5, 0.5, 1.5],
            [4.5, 0.5, 1.5],
            [3.0, 3.0, 1.0],
            [2.0000000001, 3.0, 1.0],
        ]
    )
    ref = _ref_segment_loss_db(env, a, b, FREQ)
    vec = compiled_geometry(env).segment_loss_db(a, b, FREQ)
    np.testing.assert_allclose(vec, ref, atol=TOL, rtol=0)
    compiled = compiled_geometry(env)
    for j, wall in enumerate(env.walls):
        np.testing.assert_array_equal(
            compiled.wall_crossing_matrix(a, b)[:, j],
            _ref_wall_mask(wall, a, b),
        )
    for j, box in enumerate(env.boxes):
        np.testing.assert_array_equal(
            compiled.box_crossing_matrix(a, b)[:, j],
            _ref_box_mask(box, a, b),
        )


@pytest.mark.parametrize("seed", [5, 21])
def test_excluded_reflector_walls(seed):
    env, rng = random_environment(seed)
    a, b = random_segments(rng, n=300)
    compiled = compiled_geometry(env)
    exclude = [env.walls[0], env.walls[3]]
    ref = _ref_segment_loss_db(env, a, b, FREQ, exclude_walls=exclude)
    every_segment = np.broadcast_to(compiled.wall_indices(exclude), (len(a), 2))
    vec = compiled.segment_loss_db(
        a, b, FREQ, exclude_wall_indices=every_segment
    )
    np.testing.assert_allclose(vec, ref, atol=TOL, rtol=0)


@pytest.mark.parametrize("seed", [5, 21])
def test_per_segment_excluded_wall(seed):
    """Each segment drops only its own wall; ``-1`` drops none."""
    env, rng = random_environment(seed)
    a, b = random_segments(rng, n=300)
    compiled = compiled_geometry(env)
    exclude = rng.integers(-1, len(env.walls), size=len(a))
    vec = compiled.segment_loss_db(a, b, FREQ, exclude_wall_indices=exclude)
    for i, j in enumerate(exclude):
        skip = () if j < 0 else (env.walls[j],)
        ref = _ref_segment_loss_db(env, a[i : i + 1], b[i : i + 1], FREQ, exclude_walls=skip)
        assert abs(vec[i] - ref[0]) <= TOL
    with pytest.raises(ValueError):
        compiled.segment_loss_db(a, b, FREQ, exclude_wall_indices=exclude[:2])


def test_tracer_wrappers_match_reference(simulator, ap, single_prog):
    """The public tracer API stays loop-equivalent through the kernels."""
    env = simulator.env
    rng = np.random.default_rng(13)
    a = rng.uniform(0.5, 9.5, (200, 3)) * np.array([1, 1, 0.25])
    b = rng.uniform(0.5, 9.5, (200, 3)) * np.array([1, 1, 0.25])
    obstacles = [PanelObstacle(single_prog)]
    ref = _ref_segment_loss_db(env, a, b, FREQ, panel_obstacles=obstacles)
    np.testing.assert_allclose(
        segment_loss_db(env, a, b, FREQ, obstacles), ref, atol=TOL, rtol=0
    )
    np.testing.assert_allclose(
        segment_amplitude(env, a, b, FREQ, obstacles),
        10.0 ** (-ref / 20.0),
        atol=TOL,
        rtol=0,
    )


def test_panel_stack_matches_per_panel_obstacles(small_passive, small_prog):
    obstacles = [PanelObstacle(small_passive), PanelObstacle(small_prog)]
    stack = PanelStack(obstacles)
    rng = np.random.default_rng(17)
    a = rng.uniform(0, 10, (300, 3)) * np.array([1, 1, 0.3])
    b = rng.uniform(0, 10, (300, 3)) * np.array([1, 1, 0.3])
    matrix = stack.crossing_matrix(a, b)
    for j, obstacle in enumerate(obstacles):
        np.testing.assert_array_equal(matrix[:, j], obstacle.crossing_mask(a, b))
    np.testing.assert_allclose(
        stack.losses_db(FREQ),
        [o.loss_db(FREQ) for o in obstacles],
        atol=TOL,
        rtol=0,
    )


def test_reflection_paths_match_reference():
    """The all-walls image method reproduces the per-wall loop for every pair."""
    env = two_room_apartment()
    compiled = compiled_geometry(env)
    rng = np.random.default_rng(23)
    sources = rng.uniform(0.5, 9.5, (4, 3)) * np.array([1, 1, 0.25])
    targets = rng.uniform(0.5, 9.5, (10, 3)) * np.array([1, 1, 0.25])
    direct, bounces = compiled.trace_pairs(sources, targets, FREQ)
    row_of = {id(compiled.walls[index]): w for w, index in enumerate(bounces.walls)}
    for i, a in enumerate(sources):
        for j, b in enumerate(targets):
            loss = _ref_segment_loss_db(env, a[None], b[None], FREQ)[0]
            assert abs(direct[i, j] - 10.0 ** (-loss / 20.0)) < TOL
            ref = _ref_reflection_paths(env, a, b, FREQ)
            assert int(bounces.valid[:, i, j].sum()) == len(ref)
            for wall, bounce, length, amp in ref:
                w = row_of[id(wall)]
                assert bounces.valid[w, i, j]
                np.testing.assert_allclose(bounces.bounce[w, i, j], bounce, atol=TOL)
                assert abs(bounces.length[w, i, j] - length) < TOL
                assert abs(bounces.amplitude[w, i, j] - amp) < TOL
            # The single-pair tracer wrapper runs the same kernel.
            got = reflection_paths(env, a, b, FREQ)
            assert [id(p.wall) for p in got] == [id(r[0]) for r in ref]


def test_batch_matches_per_segment_calls():
    """Chunked tiling is invisible: any split gives identical answers."""
    env, rng = random_environment(31, num_walls=6, num_boxes=4)
    a, b = random_segments(rng, n=64)
    compiled = compiled_geometry(env)
    whole = compiled.segment_loss_db(a, b, FREQ)
    one_by_one = np.concatenate(
        [
            compiled.segment_loss_db(a[i : i + 1], b[i : i + 1], FREQ)
            for i in range(a.shape[0])
        ]
    )
    np.testing.assert_array_equal(whole, one_by_one)


def test_compiled_geometry_recompiles_on_version_bump():
    env, rng = random_environment(37, num_walls=4, num_boxes=2)
    first = compiled_geometry(env)
    assert compiled_geometry(env) is first
    env.add_box(Box(lo=(1, 1, 0), hi=(2, 2, 1), material=DRYWALL))
    second = compiled_geometry(env)
    assert second is not first
    assert second.num_boxes == first.num_boxes + 1
