"""End-to-end channel physics in the apartment scenario."""

import numpy as np
import pytest

from repro.channel import ChannelSimulator, live_configs, single_antenna_node, ula_node
from repro.core.errors import SimulationError
from repro.core.units import ghz
from repro.em import focus_configuration, snr_db_from_channel
from repro.geometry import HUMAN, Box, vec3
from repro.surfaces import GENERIC_PROGRAMMABLE_28, SurfacePanel

FREQ = ghz(28)


def median_snr(model, configs, budget):
    h = model.evaluate(configs)
    return float(np.median([snr_db_from_channel(row, budget) for row in h]))


def test_partition_blocks_most_of_bedroom(simulator, ap, env, budget):
    pts = env.room("bedroom").grid(0.5)
    model = simulator.build(ap, pts, [])
    snrs = np.array(
        [snr_db_from_channel(row, budget) for row in model.evaluate({})]
    )
    # Median blocked, but the doorway leaks a LoS wedge somewhere.
    assert np.median(snrs) < 10.0
    assert snrs.max() > 20.0


def test_living_room_is_covered(simulator, ap, env, budget):
    pts = env.room("living").grid(0.8)
    model = simulator.build(ap, pts, [])
    snrs = [snr_db_from_channel(row, budget) for row in model.evaluate({})]
    assert np.median(snrs) > 20.0


def test_focused_surface_beats_flat(simulator, ap, env, single_prog, budget):
    pts = env.room("bedroom").grid(1.0)
    model = simulator.build(ap, pts, [single_prog])
    target_idx = len(pts) // 2
    h_flat = model.evaluate(live_configs([single_prog]))[target_idx]
    cfg = focus_configuration(
        single_prog.element_positions(),
        single_prog.shape,
        ap.centroid,
        pts[target_idx],
        FREQ,
    )
    single_prog.actuate(cfg)
    h_focused = model.evaluate(live_configs([single_prog]))[target_idx]
    flat = snr_db_from_channel(h_flat, budget)
    focused = snr_db_from_channel(h_focused, budget)
    assert focused > flat + 10.0


def test_focus_peak_at_target(simulator, ap, env, single_prog, budget):
    """The focused beam peaks at (or adjacent to) its target point."""
    pts = env.room("bedroom").grid(0.5)
    model = simulator.build(ap, pts, [single_prog])
    target = pts[len(pts) // 2]
    cfg = focus_configuration(
        single_prog.element_positions(),
        single_prog.shape,
        ap.centroid,
        target,
        FREQ,
    )
    x = {"s1": cfg.coefficients().reshape(-1)}
    # Surface-only contribution: subtract the direct leak through the
    # doorway, which can dominate a small panel at some grid points.
    h_surface = model.evaluate(x) - model.direct
    powers = np.sum(np.abs(h_surface) ** 2, axis=1)
    peak = pts[int(np.argmax(powers))]
    assert np.linalg.norm(peak - target) <= 0.75


def test_cache_hits_on_repeat_build(simulator, ap, bedroom_points, single_prog):
    simulator.build(ap, bedroom_points, [single_prog])
    misses0 = simulator.cache_stats[1]
    simulator.build(ap, bedroom_points, [single_prog])
    hits, misses = simulator.cache_stats
    assert hits >= 1 and misses == misses0


def test_cache_invalidated_by_environment_change(
    simulator, env, ap, bedroom_points, single_prog
):
    simulator.build(ap, bedroom_points, [single_prog])
    env.add_dynamic_box(
        "person", Box(vec3(6, 2, 0), vec3(6.5, 2.5, 1.8), HUMAN)
    )
    simulator.build(ap, bedroom_points, [single_prog])
    assert simulator.cache_stats[1] == 2


def test_cache_missed_after_panel_move(simulator, ap, bedroom_points, single_prog):
    simulator.build(ap, bedroom_points, [single_prog])
    single_prog.center = single_prog.center + np.array([0.0, 0.3, 0.0])
    simulator.build(ap, bedroom_points, [single_prog])
    hits, misses = simulator.cache_stats
    assert hits == 0 and misses == 2


def test_invalidate_resets_cache(simulator, ap, bedroom_points, single_prog):
    simulator.build(ap, bedroom_points, [single_prog])
    simulator.build(ap, bedroom_points, [single_prog])
    assert simulator.cache_stats == (1, 1)
    simulator.invalidate()
    # Local stats restart; the next identical build re-traces from scratch.
    assert simulator.cache_stats == (0, 0)
    simulator.build(ap, bedroom_points, [single_prog])
    assert simulator.cache_stats == (0, 1)
    assert simulator.telemetry.get_counter("channel.cache_invalidations") == 1
    # The monotonic telemetry counters keep the full history.
    assert simulator.telemetry.get_counter("channel.cache_misses") == 2


def test_lru_evicts_oldest_entry(env, ap, single_prog):
    sim = ChannelSimulator(env, FREQ, cache_size=2)
    pts = [np.array([[6.0 + 0.1 * i, 2.0, 1.0]]) for i in range(3)]
    for p in pts:
        sim.build(ap, p, [single_prog])
    assert sim.telemetry.get_counter("channel.cache_evictions") == 1
    assert sim.telemetry.snapshot().gauges["channel.cache_size"] == 2
    # Newest two still hit; the evicted oldest misses again.
    sim.build(ap, pts[2], [single_prog])
    sim.build(ap, pts[1], [single_prog])
    assert sim.cache_stats == (2, 3)
    sim.build(ap, pts[0], [single_prog])
    assert sim.cache_stats == (2, 4)


def test_stale_versions_purged_eagerly(env, ap, bedroom_points, single_prog):
    sim = ChannelSimulator(env, FREQ)
    sim.build(ap, bedroom_points, [single_prog])
    env.add_dynamic_box(
        "person", Box(vec3(6, 2, 0), vec3(6.5, 2.5, 1.8), HUMAN)
    )
    # The next build purges the stale-version entry before caching anew.
    sim.build(ap, bedroom_points, [single_prog])
    assert sim.telemetry.get_counter("channel.cache_stale_evictions") == 1
    assert sim.telemetry.snapshot().gauges["channel.cache_size"] == 1


def test_cache_stats_mirrored_in_telemetry(
    simulator, ap, bedroom_points, single_prog
):
    simulator.build(ap, bedroom_points, [single_prog])
    simulator.build(ap, bedroom_points, [single_prog])
    hits, misses = simulator.cache_stats
    assert simulator.telemetry.get_counter("channel.cache_hits") == hits == 1
    assert simulator.telemetry.get_counter("channel.cache_misses") == misses == 1
    # A miss traces the channel; the span wraps per-leg trace events
    # (identical for the serial and pooled paths).
    spans = simulator.telemetry.snapshot().spans
    assert spans["channel-trace"].count == 1
    legs = simulator.telemetry.events("leg-trace")
    assert legs and legs[0].attrs["kind"] == "direct"
    assert legs[0].attrs["wall_trace_s"] > 0.0


def test_human_blockage_reduces_snr(env, ap, budget, sites):
    panel = SurfacePanel(
        "s1",
        GENERIC_PROGRAMMABLE_28,
        16,
        16,
        sites.single_surface_center,
        sites.single_surface_normal,
    )
    point = np.array([[6.5, 1.0, 1.0]])
    sim = ChannelSimulator(env, FREQ)
    cfg = focus_configuration(
        panel.element_positions(), panel.shape, ap.centroid, point[0], FREQ
    )
    panel.actuate(cfg)
    before = median_snr(
        sim.build(ap, point, [panel]), live_configs([panel]), budget
    )
    # A person standing between the surface and the client.
    env.add_dynamic_box(
        "person", Box(vec3(6.3, 2.0, 0.0), vec3(6.9, 2.8, 1.9), HUMAN)
    )
    after = median_snr(
        sim.build(ap, point, [panel]), live_configs([panel]), budget
    )
    assert after < before - 10.0


def test_duplicate_panel_ids_rejected(simulator, ap, bedroom_points, single_prog):
    clone = SurfacePanel(
        "s1",
        GENERIC_PROGRAMMABLE_28,
        8,
        8,
        single_prog.center + np.array([0.5, 0, 0]),
        single_prog.normal,
    )
    with pytest.raises(SimulationError):
        simulator.build(ap, bedroom_points, [single_prog, clone])


def test_point_channel_uses_live_config(simulator, ap, single_prog):
    model = simulator.build(ap, vec3(7, 2, 1)[None, :], [single_prog])
    h = model.evaluate(live_configs([single_prog]))[0]
    assert h.shape == (4,)
    assert np.all(np.isfinite(h))


def test_reciprocal_surface_pair_gains(simulator, ap, bedroom_points, small_passive, small_prog):
    model = simulator.build(ap, bedroom_points, [small_passive, small_prog])
    key_fwd = ("passive", "prog")
    key_rev = ("prog", "passive")
    assert key_fwd in model.surface_to_surface
    assert np.allclose(
        model.surface_to_surface[key_fwd],
        model.surface_to_surface[key_rev].T,
    )


def test_bad_frequency_rejected(env):
    with pytest.raises(SimulationError):
        ChannelSimulator(env, 0.0)
