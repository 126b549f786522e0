"""Incremental leg-level channel caching: golden equivalence + telemetry.

The contract under test: any sequence of client moves, panel changes,
and attributed environment mutations served through the leg cache must
produce a :class:`ChannelModel` bit-identical (asserted at exact 0.0,
accepted up to 1e-12) to a from-scratch monolithic build, while
re-tracing strictly fewer legs than the total.
"""

from collections import OrderedDict

import numpy as np
import pytest

from repro.channel import ChannelSimulator, ula_node
from repro.core.units import ghz
from repro.geometry import HUMAN, Box, apartment_sites, two_room_apartment, vec3
from repro.surfaces import (
    GENERIC_PASSIVE_28,
    GENERIC_PROGRAMMABLE_28,
    SurfacePanel,
)

FREQ = ghz(28)


def make_panels():
    sites = apartment_sites()
    return [
        SurfacePanel(
            "s1",
            GENERIC_PROGRAMMABLE_28,
            12,
            12,
            sites.single_surface_center,
            sites.single_surface_normal,
        ),
        SurfacePanel(
            "passive",
            GENERIC_PASSIVE_28,
            10,
            10,
            sites.passive_center,
            sites.passive_normal,
        ),
        SurfacePanel(
            "prog",
            GENERIC_PROGRAMMABLE_28,
            8,
            8,
            sites.programmable_center,
            sites.programmable_normal,
        ),
    ]


def make_ap():
    sites = apartment_sites()
    return ula_node(
        "ap", sites.ap_position, 4, FREQ, axis=(0, 0, 1), boresight=(1, 0.3, 0)
    )


def model_max_diff(a, b):
    """Max abs difference across every leg tensor of two models."""
    assert set(a.ap_to_surface) == set(b.ap_to_surface)
    assert set(a.surface_to_surface) == set(b.surface_to_surface)
    diffs = [float(np.abs(a.direct - b.direct).max())]
    for sid in a.ap_to_surface:
        diffs.append(
            float(np.abs(a.ap_to_surface[sid] - b.ap_to_surface[sid]).max())
        )
        diffs.append(
            float(
                np.abs(
                    a.surface_to_points[sid] - b.surface_to_points[sid]
                ).max()
            )
        )
    for key in a.surface_to_surface:
        diffs.append(
            float(
                np.abs(
                    a.surface_to_surface[key] - b.surface_to_surface[key]
                ).max()
            )
        )
    return max(diffs)


def monolithic_model(points, mutate=None):
    """A from-scratch build on a fresh environment/panels/simulator."""
    env = two_room_apartment()
    panels = make_panels()
    sim = ChannelSimulator(env, FREQ, leg_cache_size=0)
    if mutate is not None:
        mutate(env, panels)
    return sim.build(make_ap(), points, panels)


@pytest.fixture()
def points(env):
    return env.room("bedroom").grid(1.0)


class TestGoldenEquivalence:
    def test_client_move_reuses_surface_legs(self, env, points):
        sim = ChannelSimulator(env, FREQ)
        panels = make_panels()
        ap = make_ap()
        first = sim.build(ap, points, panels)
        total = first.num_legs
        moved = points + np.array([0.4, 0.25, 0.0])
        model = sim.build(ap, moved, panels)
        retraced = sim.leg_cache_stats[1] - total
        # direct + one surface→points leg per panel change; the
        # AP→surface and surface→surface legs all come from cache.
        assert retraced == 1 + len(panels)
        assert retraced < total
        golden = monolithic_model(moved)
        assert model_max_diff(model, golden) <= 1e-12

    def test_single_panel_mutation_partial_retrace(self, env, points):
        sim = ChannelSimulator(env, FREQ)
        panels = make_panels()
        ap = make_ap()
        first = sim.build(ap, points, panels)
        total = first.num_legs
        offset = np.array([0.0, 0.25, 0.0])

        def moved_panel(template):
            return SurfacePanel(
                template.panel_id,
                template.spec,
                template.shape[0],
                template.shape[1],
                np.asarray(template.center) + offset,
                template.normal,
            )

        panels[2] = moved_panel(panels[2])

        def mutate(env2, panels2):
            panels2[2] = moved_panel(panels2[2])

        model = sim.build(ap, points, panels)
        retraced = sim.leg_cache_stats[1] - total
        assert 0 < retraced < total
        golden = monolithic_model(points, mutate)
        assert model_max_diff(model, golden) <= 1e-12

    def test_far_obstacle_mutation_keeps_surface_legs(self, env, points):
        sim = ChannelSimulator(env, FREQ)
        panels = make_panels()
        ap = make_ap()
        total = sim.build(ap, points, panels).num_legs
        box = Box(vec3(0.2, 0.2, 0), vec3(0.7, 0.7, 1.8), HUMAN)
        env.add_dynamic_box("far-person", box)

        model = sim.build(ap, points, panels)
        retraced = sim.leg_cache_stats[1] - total
        # Only the reflection-enriched direct leg (unbounded corridor)
        # is purged; every surface leg survives the far-away mutation.
        assert retraced == 1
        golden = monolithic_model(
            points, lambda env2, _: env2.add_dynamic_box("far-person", box)
        )
        assert model_max_diff(model, golden) == 0.0

    def test_corridor_obstacle_mutation_retraces_crossed_legs(
        self, env, points
    ):
        sim = ChannelSimulator(env, FREQ)
        panels = make_panels()
        ap = make_ap()
        total = sim.build(ap, points, panels).num_legs
        box = Box(vec3(6, 2, 0), vec3(6.5, 2.5, 1.8), HUMAN)
        env.add_dynamic_box("person", box)

        model = sim.build(ap, points, panels)
        retraced = sim.leg_cache_stats[1] - total
        assert 0 < retraced < total
        golden = monolithic_model(
            points, lambda env2, _: env2.add_dynamic_box("person", box)
        )
        assert model_max_diff(model, golden) <= 1e-12

    def test_unattributed_mutation_full_purge(self, env, points):
        sim = ChannelSimulator(env, FREQ)
        panels = make_panels()
        ap = make_ap()
        total = sim.build(ap, points, panels).num_legs
        env.record_mutation()  # no region: everything must go
        sim.build(ap, points, panels)
        assert sim.leg_cache_stats[1] == 2 * total
        assert sim.telemetry.get_counter("channel.leg_cache_full_purges") == 1


class TestIncrementalRebuild:
    @pytest.mark.parametrize(
        "shift", [(-0.3, 0.1, 0.0), (0.2, -0.35, 0.0), (0.0, 0.0, 0.5)]
    )
    def test_rebuild_after_move_equals_monolithic(self, env, points, shift):
        sim = ChannelSimulator(env, FREQ)
        ap = make_ap()
        panels = make_panels()
        sim.build(ap, points, panels)
        moved = points + np.array(shift)
        model = sim.build(ap, moved, panels)
        assert model_max_diff(model, monolithic_model(moved)) == 0.0


class TestLegCacheTelemetry:
    def test_counters_across_move_rebuild_invalidate(self, env, points):
        sim = ChannelSimulator(env, FREQ)
        tel = sim.telemetry
        panels = make_panels()
        ap = make_ap()
        total = sim.build(ap, points, panels).num_legs
        assert tel.get_counter("channel.legs_retraced") == total
        assert tel.get_counter("channel.leg_cache_hits") == 0

        # Client move: partial rebuild, surface legs served from cache.
        moved = points + np.array([0.4, 0.25, 0.0])
        sim.build(ap, moved, panels)
        reused = total - (1 + len(panels))
        assert tel.get_counter("channel.leg_cache_hits") == reused
        assert tel.get_counter("channel.legs_retraced") == total + 1 + len(panels)
        assert tel.get_counter("channel.partial_rebuilds") == 1
        # The gauge counts cache entries: one per AP→surface and
        # surface→surface leg, plus one per receive-point row of the
        # direct and surface→points legs of both point sets.
        whole_legs = total - (1 + len(panels))
        rows_per_set = len(points) * (1 + len(panels))
        assert tel.snapshot().gauges["channel.leg_cache_size"] == (
            whole_legs + 2 * rows_per_set
        )
        assert tel.get_counter("channel.rows_traced") == 2 * rows_per_set
        assert tel.get_counter("channel.rows_hit") == 0

        # Environment mutation: stale model purged eagerly, affected
        # legs purged from the leg cache.
        env.add_dynamic_box(
            "person", Box(vec3(6, 2, 0), vec3(6.5, 2.5, 1.8), HUMAN)
        )
        sim.build(ap, moved, panels)
        assert tel.get_counter("channel.cache_stale_evictions") == 2
        assert tel.get_counter("channel.legs_purged") > 0

        # Invalidate: epoch reset, monotonic counters keep history.
        invalidations_before = tel.get_counter("channel.cache_invalidations")
        sim.invalidate()
        assert sim.leg_cache_stats == (0, 0)
        assert tel.get_counter("channel.cache_invalidations") == (
            invalidations_before + 1
        )
        assert tel.snapshot().gauges["channel.leg_cache_size"] == 0
        retraced_before = tel.get_counter("channel.legs_retraced")
        sim.build(ap, moved, panels)
        assert tel.get_counter("channel.legs_retraced") == retraced_before + total

    def test_lru_bound_on_legs(self, env, points):
        sim = ChannelSimulator(env, FREQ, leg_cache_size=4)
        sim.build(make_ap(), points, make_panels())
        assert len(sim._legs) <= 4
        assert sim.telemetry.get_counter("channel.leg_cache_evictions") > 0

    def test_leg_cache_disabled_is_monolithic(self, env, points):
        sim = ChannelSimulator(env, FREQ, leg_cache_size=0)
        ap = make_ap()
        panels = make_panels()
        total = sim.build(ap, points, panels).num_legs
        sim.build(ap, points + np.array([0.4, 0.0, 0.0]), panels)
        assert sim.leg_cache_stats == (0, 2 * total)
        assert sim.telemetry.get_counter("channel.leg_cache_hits") == 0

    def test_sim_only_export_deterministic(self, points):
        def run():
            sim = ChannelSimulator(two_room_apartment(), FREQ)
            ap = make_ap()
            panels = make_panels()
            sim.build(ap, points, panels)
            sim.build(ap, points + np.array([0.4, 0.25, 0.0]), panels)
            sim.env.add_dynamic_box(
                "person", Box(vec3(6, 2, 0), vec3(6.5, 2.5, 1.8), HUMAN)
            )
            sim.build(ap, points, panels)
            return sim.telemetry.export_jsonl(sim_only=True)

        assert run() == run()


class TestModelCacheEviction:
    def test_evicts_before_insert(self, env, points, single_prog):
        """The model cache never transiently exceeds its bound."""
        observed = []

        class Watched(OrderedDict):
            def __setitem__(self, key, value):
                super().__setitem__(key, value)
                observed.append(len(self))

        sim = ChannelSimulator(env, FREQ, cache_size=1)
        sim._cache = Watched()
        ap = make_ap()
        sim.build(ap, points, [single_prog])
        sim.build(ap, points + np.array([0.3, 0.0, 0.0]), [single_prog])
        sim.build(ap, points + np.array([0.6, 0.0, 0.0]), [single_prog])
        assert max(observed) == 1
        assert sim.telemetry.get_counter("channel.cache_evictions") == 2

    def test_reinserted_entry_still_hits(self, env, points, single_prog):
        sim = ChannelSimulator(env, FREQ, cache_size=1)
        ap = make_ap()
        sim.build(ap, points, [single_prog])
        sim.build(ap, points, [single_prog])
        assert sim.telemetry.get_counter("channel.cache_hits") == 1
        assert sim.telemetry.get_counter("channel.cache_misses") == 1
