"""Speculative leg prefetch: warm-only semantics, telemetry, identity.

The contract: ``prefetch`` only warms the leg LRU.  A build whose plan
lands on warmed keys serves them as ordinary leg-cache hits (counted
once as ``channel.prefetch_hits``); warmed legs invalidated or evicted
before any build consumes them count as ``channel.prefetch_wasted``;
and assembled models are bit-identical whether legs were traced
speculatively or inline.
"""

import numpy as np
import pytest

import repro.channel.simulator as simulator_module
from repro.channel import ChannelSimulator
from repro.core.errors import SimulationError
from repro.core.units import ghz
from repro.geometry import HUMAN, Box, two_room_apartment, vec3
from repro.surfaces import GENERIC_PROGRAMMABLE_28, SurfacePanel

FREQ = ghz(28)


def test_prefetch_then_build_retraces_nothing(
    simulator, ap, bedroom_points, single_prog
):
    traced = simulator.prefetch(
        ap, bedroom_points, [single_prog], legs=("direct", "a2s", "s2p", "s2s")
    )
    assert traced > 0
    retraced_before = simulator.leg_cache_stats[1]
    simulator.build(ap, bedroom_points, [single_prog])
    # Every leg the build needed was speculatively warmed.
    assert simulator.leg_cache_stats[1] == retraced_before
    prefetched, hits, wasted = simulator.prefetch_stats
    assert prefetched == traced
    assert wasted == 0
    assert hits > 0
    assert simulator.telemetry.get_counter("channel.prefetch_hits") == hits
    assert simulator.telemetry.get_counter("channel.prefetch_legs") == traced


def test_prefetch_hits_counted_once(simulator, ap, bedroom_points, single_prog):
    simulator.prefetch(ap, bedroom_points, [single_prog])
    simulator.build(ap, bedroom_points, [single_prog])
    hits_after_first = simulator.prefetch_stats[1]
    # A second identical build is a model-cache hit and must not
    # double-count the speculative legs.
    simulator.build(ap, bedroom_points, [single_prog])
    assert simulator.prefetch_stats[1] == hits_after_first


def test_prefetch_is_bit_identical_to_inline(env, ap, bedroom_points, single_prog):
    warm = ChannelSimulator(env, FREQ)
    warm.prefetch(ap, bedroom_points, [single_prog])
    a = warm.build(ap, bedroom_points, [single_prog])
    cold = ChannelSimulator(two_room_apartment(), FREQ)
    b = cold.build(ap, bedroom_points, [single_prog])
    assert float(np.abs(a.direct - b.direct).max()) == 0.0
    sid = single_prog.panel_id
    assert (
        float(np.abs(a.surface_to_points[sid] - b.surface_to_points[sid]).max())
        == 0.0
    )
    assert (
        float(np.abs(a.ap_to_surface[sid] - b.ap_to_surface[sid]).max()) == 0.0
    )


def test_unused_prefetched_legs_wasted_on_purge(
    simulator, env, ap, bedroom_points, single_prog
):
    simulator.prefetch(ap, bedroom_points, [single_prog])
    # A person appears before any build consumes the warmed legs: the
    # attributed mutation purges at least the unbounded direct leg.
    env.add_dynamic_box(
        "person", Box(vec3(6, 2, 0), vec3(6.5, 2.5, 1.8), HUMAN)
    )
    simulator.build(ap, bedroom_points, [single_prog])
    _, _, wasted = simulator.prefetch_stats
    assert wasted > 0
    assert (
        simulator.telemetry.get_counter("channel.prefetch_wasted") == wasted
    )


def test_unused_prefetched_legs_wasted_on_eviction(env, ap, single_prog):
    sim = ChannelSimulator(env, FREQ, leg_cache_size=4)
    target = np.array([[6.5, 2.0, 1.0]])
    sim.prefetch(ap, target, [single_prog])
    # Churn through enough other point sets to evict the warmed legs.
    for i in range(4):
        sim.build(ap, np.array([[6.0 + 0.1 * i, 2.5, 1.0]]), [single_prog])
    assert sim.prefetch_stats[2] > 0


def test_prefetch_noop_without_leg_cache(env, ap, bedroom_points, single_prog):
    sim = ChannelSimulator(env, FREQ, leg_cache_size=0)
    assert sim.prefetch(ap, bedroom_points, [single_prog]) == 0
    assert sim.prefetch_stats == (0, 0, 0)


def test_prefetch_skips_already_cached_legs(
    simulator, ap, bedroom_points, single_prog
):
    simulator.build(ap, bedroom_points, [single_prog])
    assert simulator.prefetch(ap, bedroom_points, [single_prog]) == 0


def test_prefetch_leg_family_selection(simulator, ap, bedroom_points, single_prog):
    traced = simulator.prefetch(
        ap, bedroom_points, [single_prog], legs=("s2p",)
    )
    assert traced == 1  # one panel: exactly its surface→points leg
    kinds = {
        e.attrs["kind"] for e in simulator.telemetry.events("leg-trace")
    }
    assert kinds == {"surface-to-points"}


def test_prefetch_marks_traces_speculative(simulator, ap, bedroom_points, single_prog):
    simulator.prefetch(
        ap, bedroom_points, [single_prog], legs=("direct", "a2s", "s2p", "s2s")
    )
    events = simulator.telemetry.events("leg-trace")
    assert events and all(e.attrs["speculative"] for e in events)
    simulator.build(ap, bedroom_points, [single_prog])
    inline = [
        e
        for e in simulator.telemetry.events("leg-trace")
        if not e.attrs["speculative"]
    ]
    assert not inline  # nothing left to trace inline


def test_prefetch_rejects_duplicate_panel_ids(simulator, ap, bedroom_points, single_prog):
    clone = SurfacePanel(
        single_prog.panel_id,
        GENERIC_PROGRAMMABLE_28,
        8,
        8,
        single_prog.center + np.array([0.5, 0.0, 0.0]),
        single_prog.normal,
    )
    with pytest.raises(SimulationError):
        simulator.prefetch(ap, bedroom_points, [single_prog, clone])


def test_invalidate_resets_prefetch_stats(simulator, ap, bedroom_points, single_prog):
    simulator.prefetch(ap, bedroom_points, [single_prog])
    simulator.build(ap, bedroom_points, [single_prog])
    simulator.invalidate()
    assert simulator.prefetch_stats == (0, 0, 0)


def _count_plans(sim, monkeypatch):
    calls = []
    plan_legs = sim._plan_legs

    def counting(*args):
        calls.append(args)
        return plan_legs(*args)

    monkeypatch.setattr(sim, "_plan_legs", counting)
    return calls


def _assert_same_model(a, b):
    assert a.direct.tobytes() == b.direct.tobytes()
    for legs in ("ap_to_surface", "surface_to_points", "surface_to_surface"):
        mine, theirs = getattr(a, legs), getattr(b, legs)
        assert list(mine) == list(theirs)
        assert all(mine[k].tobytes() == theirs[k].tobytes() for k in mine)


def test_build_reuses_the_prefetch_plan(
    simulator, ap, bedroom_points, small_passive, small_prog, monkeypatch
):
    panels = [small_passive, small_prog]
    calls = _count_plans(simulator, monkeypatch)
    simulator.prefetch(ap, bedroom_points, panels)
    model = simulator.build(ap, bedroom_points, panels)
    assert len(calls) == 1
    assert model.surface_to_surface  # the plan covers the cascade legs too
    fresh = ChannelSimulator(two_room_apartment(), FREQ)
    _assert_same_model(model, fresh.build(ap, bedroom_points, panels))


def test_plan_does_not_alias_the_callers_points(
    simulator, ap, bedroom_points, small_prog
):
    points = bedroom_points.copy()
    # Warm no point rows, so the build traces them through the plan.
    simulator.prefetch(ap, points, [small_prog], legs=("a2s",))
    points += 0.25
    model = simulator.build(ap, bedroom_points, [small_prog])
    fresh = ChannelSimulator(two_room_apartment(), FREQ)
    _assert_same_model(model, fresh.build(ap, bedroom_points, [small_prog]))


def test_changed_environment_version_replans(
    simulator, env, ap, bedroom_points, single_prog, monkeypatch
):
    calls = _count_plans(simulator, monkeypatch)
    simulator.prefetch(ap, bedroom_points, [single_prog])
    env.add_dynamic_box("person", Box(vec3(6, 2, 0), vec3(6.5, 2.5, 1.8), HUMAN))
    model = simulator.build(ap, bedroom_points, [single_prog])
    assert len(calls) == 2
    moved = two_room_apartment()
    moved.add_dynamic_box("person", Box(vec3(6, 2, 0), vec3(6.5, 2.5, 1.8), HUMAN))
    fresh = ChannelSimulator(moved, FREQ)
    _assert_same_model(model, fresh.build(ap, bedroom_points, [single_prog]))


def test_a_build_digests_the_ap_and_each_panel_once(
    simulator, ap, bedroom_points, small_passive, small_prog, monkeypatch
):
    counts = {"_panel_digest": 0, "_node_digest": 0}
    for name in counts:
        digest = getattr(simulator_module, name)

        def counting(node, name=name, digest=digest):
            counts[name] += 1
            return digest(node)

        monkeypatch.setattr(simulator_module, name, counting)
    panels = [small_passive, small_prog]
    calls = _count_plans(simulator, monkeypatch)
    model = simulator.build(ap, bedroom_points, panels)
    # A model-cache miss that plans: the key and the plan share digests.
    assert simulator.telemetry.get_counter("channel.cache_misses") == 1
    assert len(calls) == 1
    assert counts == {"_panel_digest": 2, "_node_digest": 1}
    monkeypatch.undo()
    fresh = ChannelSimulator(two_room_apartment(), FREQ)
    _assert_same_model(model, fresh.build(ap, bedroom_points, panels))


@pytest.mark.parametrize(
    "legs", [("direct",), ("a2s", "s2p"), ("direct", "a2s", "s2p", "s2s")]
)
def test_prefetch_then_build_repeats_identically(ap, bedroom_points, single_prog, legs):
    def run():
        sim = ChannelSimulator(two_room_apartment(), FREQ)
        traced = sim.prefetch(ap, bedroom_points, [single_prog], legs=legs)
        model = sim.build(ap, bedroom_points, [single_prog])
        kinds = [e.attrs["kind"] for e in sim.telemetry.events("leg-trace")]
        return traced, model, kinds, sim.prefetch_stats

    traced_a, a, kinds_a, stats_a = run()
    traced_b, b, kinds_b, stats_b = run()
    assert traced_a == traced_b > 0
    _assert_same_model(a, b)
    assert kinds_a == kinds_b
    assert stats_a == stats_b
