"""Clock, events, dynamics."""

import numpy as np
import pytest

from repro.geometry import Environment, CONCRETE, vec3
from repro.hwmgr import ClientDevice
from repro.mobility import WaypointWalker
from repro.runtime import (
    EndpointMoved,
    Event,
    EventBus,
    EnvironmentDynamics,
    HumanMoved,
    SimClock,
    Walker,
)


class TestClock:
    def test_advance_and_now(self):
        clock = SimClock()
        clock.advance(2.5)
        assert clock.now == pytest.approx(2.5)

    def test_callbacks_fire_in_order(self):
        clock = SimClock()
        fired = []
        clock.schedule(2.0, lambda: fired.append("b"))
        clock.schedule(1.0, lambda: fired.append("a"))
        clock.schedule(5.0, lambda: fired.append("c"))
        assert clock.advance(3.0) == 2
        assert fired == ["a", "b"]
        assert clock.pending() == 1

    def test_callback_sees_its_scheduled_time(self):
        clock = SimClock()
        seen = []
        clock.schedule(1.5, lambda: seen.append(clock.now))
        clock.advance(10.0)
        assert seen == [1.5]
        assert clock.now == 10.0

    def test_validation(self):
        clock = SimClock(start=5.0)
        with pytest.raises(ValueError):
            clock.schedule(1.0, lambda: None)
        with pytest.raises(ValueError):
            clock.advance(-1.0)


class TestEventBus:
    def test_publish_subscribe(self):
        bus = EventBus()
        seen = []
        bus.subscribe(HumanMoved, seen.append)
        bus.publish(HumanMoved(time=1.0, key="p", position=(1, 2, 0)))
        bus.publish(EndpointMoved(time=2.0, client_id="phone", position=(1, 0, 0)))
        assert len(seen) == 1

    def test_base_class_subscription_sees_subclasses(self):
        bus = EventBus()
        seen = []
        bus.subscribe(Event, seen.append)
        bus.publish(HumanMoved(time=1.0))
        bus.publish(EndpointMoved(time=2.0))
        assert len(seen) == 2

    def test_log_and_filter(self):
        bus = EventBus()
        bus.publish(HumanMoved(time=1.0))
        bus.publish(EndpointMoved(time=2.0))
        assert len(bus.log) == 2
        assert len(bus.events_of(HumanMoved)) == 1


class TestWalker:
    def test_walks_along_legs(self):
        walker = Walker("p", model=WaypointWalker([(0, 0), (10, 0)], speed_mps=1.0))
        pos = walker.step(3.0)
        assert pos[0] == pytest.approx(3.0)

    def test_loops_back(self):
        walker = Walker("p", model=WaypointWalker([(0, 0), (2, 0)], speed_mps=1.0))
        walker.step(3.0)  # 2 to the end, 1 back along the return leg
        assert walker.position()[0] == pytest.approx(1.0)

    def test_box_follows_position(self):
        walker = Walker("p", model=WaypointWalker([(0, 0), (4, 0)], speed_mps=2.0))
        walker.step(1.0)
        box = walker.box()
        assert box.center[0] == pytest.approx(2.0)
        assert box.hi[2] == pytest.approx(1.8)

    def test_peek_predicts_step_without_advancing(self):
        walker = Walker("p", WaypointWalker([(0, 0), (3, 4)], speed_mps=1.5))
        walker.step(0.7)
        before = walker.position().tobytes()
        predicted = walker.peek(1.3)
        assert walker.position().tobytes() == before
        assert walker.step(1.3).tobytes() == predicted.tobytes()

    def test_waypoint_signature_is_gone(self):
        with pytest.raises(TypeError):
            Walker("p", [(0, 0), (1, 0)], 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            WaypointWalker([(0, 0)])
        with pytest.raises(ValueError):
            WaypointWalker([(0, 0), (1, 0)], speed_mps=0.0)


class TestDynamics:
    @pytest.fixture()
    def env(self):
        e = Environment(name="dyn")
        e.add_wall_2d((0, 0), (10, 0), CONCRETE)
        return e

    def test_walker_mutates_environment(self, env):
        dyn = EnvironmentDynamics(env)
        dyn.add_walker(
            Walker("p", model=WaypointWalker([(1, 1), (5, 1)], speed_mps=1.0))
        )
        v0 = env.version
        published = dyn.step(1.0)
        assert published == 1
        assert env.version > v0
        assert len(dyn.bus.events_of(HumanMoved)) == 1

    def test_furniture_and_endpoint_moves(self, env):
        from repro.geometry import Box, WOOD

        dyn = EnvironmentDynamics(env)
        env.add_dynamic_box("sofa", Box(vec3(1, 1, 0), vec3(2, 2, 1), WOOD))
        v0 = env.version
        moved = env.move_dynamic_box("sofa", (1, 0, 0))
        assert np.allclose(moved.lo, [2, 1, 0])
        assert env.version > v0
        client = ClientDevice("phone", vec3(0, 0, 1))
        dyn.move_endpoint(client, (3, 3, 1))
        assert np.allclose(client.position, [3, 3, 1])
        assert len(dyn.bus.events_of(EndpointMoved)) == 1

    def test_step_validation(self, env):
        dyn = EnvironmentDynamics(env)
        with pytest.raises(ValueError):
            dyn.step(0.0)
