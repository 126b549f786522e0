"""Property: a leg-cached channel build equals a monolithic build bit for bit.

The leg cache keys the point-dependent legs per receive-point row, so a
build may assemble its ``direct`` and ``surface→points`` matrices from
rows traced by many earlier builds and prefetches, with obstacle moves
in between.  Whatever the history, every tensor of the assembled model
must equal a ``leg_cache_size=0`` build of the same scene exactly.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import ChannelSimulator, ula_node
from repro.core.units import ghz
from repro.geometry import HUMAN, Box, apartment_sites, two_room_apartment, vec3
from repro.surfaces import GENERIC_PASSIVE_28, GENERIC_PROGRAMMABLE_28, SurfacePanel

FREQ = ghz(28)

#: Receive points a build's point set is drawn from (with repeats).
POOL = np.array(
    [
        [5.6, 1.4, 1.0],
        [6.5, 1.5, 1.0],
        [7.8, 3.4, 1.0],
        [5.6, 2.4, 1.0],
        [6.9, 2.9, 1.2],
        [2.0, 2.0, 1.0],
        [3.1, 3.3, 1.1],
        [7.2, 1.1, 0.8],
    ]
)

#: Where the dynamic obstacle may stand: in corridors and far away.
BOX_SITES = [(6.0, 2.0), (0.2, 0.2), (6.6, 2.8), (3.0, 2.5)]

#: Leg families a prefetch may warm.
FAMILIES = st.sets(st.sampled_from(["direct", "a2s", "s2p", "s2s"]), min_size=1)

POINT_SET = st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=8)

STEP = st.tuples(
    POINT_SET,
    # Change before the build: none, place/move the person, remove
    # them, an unattributed mutation, or shift/restore one panel.
    st.sampled_from(["none", "place", "remove", "unattributed", "panel"]),
    st.integers(0, len(BOX_SITES) - 1),
    # Optional prefetch before the build: the build's own set or another.
    st.one_of(st.none(), st.tuples(st.booleans(), POINT_SET, FAMILIES)),
)


def make_scene(include_reflections):
    env = two_room_apartment()
    sites = apartment_sites()
    ap = ula_node(
        "ap", sites.ap_position, 4, FREQ, axis=(0, 0, 1), boresight=(1, 0.3, 0)
    )
    panels = [
        SurfacePanel(
            "s1", GENERIC_PROGRAMMABLE_28, 6, 6,
            sites.single_surface_center, sites.single_surface_normal,
        ),
        SurfacePanel(
            "passive", GENERIC_PASSIVE_28, 4, 4,
            sites.passive_center, sites.passive_normal,
        ),
        SurfacePanel(
            "prog", GENERIC_PROGRAMMABLE_28, 4, 4,
            sites.programmable_center, sites.programmable_normal,
        ),
    ]
    sim = ChannelSimulator(env, FREQ, include_reflections=include_reflections)
    return env, ap, panels, sim


def assert_models_equal(a, b):
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.direct, b.direct)
    assert set(a.ap_to_surface) == set(b.ap_to_surface)
    assert set(a.surface_to_surface) == set(b.surface_to_surface)
    for sid in a.ap_to_surface:
        assert np.array_equal(a.ap_to_surface[sid], b.ap_to_surface[sid])
        assert np.array_equal(a.surface_to_points[sid], b.surface_to_points[sid])
    for key in a.surface_to_surface:
        assert np.array_equal(a.surface_to_surface[key], b.surface_to_surface[key])


@given(
    steps=st.lists(STEP, min_size=1, max_size=5),
    include_reflections=st.booleans(),
    leg_cache_size=st.sampled_from([6, 512]),
)
@settings(max_examples=30, deadline=None)
def test_leg_cached_build_equals_monolithic(
    steps, include_reflections, leg_cache_size
):
    env, ap, panels, sim = make_scene(include_reflections)
    sim.leg_cache_size = leg_cache_size
    person = False
    home = panels[2]
    away = SurfacePanel(
        "prog", GENERIC_PROGRAMMABLE_28, 4, 4, (1.15, 1.6, 1.5), (-1, 0, 0)
    )
    for indices, change, site, prefetch in steps:
        if change == "place":
            x, y = BOX_SITES[site]
            env.add_dynamic_box(
                "person", Box(vec3(x, y, 0), vec3(x + 0.5, y + 0.5, 1.8), HUMAN)
            )
            person = True
        elif change == "remove" and person:
            env.remove_dynamic_box("person")
            person = False
        elif change == "unattributed":
            env.record_mutation()
        elif change == "panel":
            # Panels are obstacles to each other's legs: the away site
            # sits on the direct ray from the AP to POOL[5].
            panels[2] = away if panels[2] is home else home
        points = POOL[indices]
        if prefetch is not None:
            own, other, families = prefetch
            warm = points if own else POOL[other]
            sim.prefetch(ap, warm, panels, legs=tuple(sorted(families)))
        model = sim.build(ap, points, panels)
        golden = ChannelSimulator(
            env, FREQ, include_reflections=include_reflections, leg_cache_size=0
        ).build(ap, points, panels)
        assert_models_equal(model, golden)
    prefetched, hits, wasted = sim.prefetch_stats
    assert hits + wasted <= prefetched
