"""Design database, site enumeration, and the deployment planner."""

import numpy as np
import pytest

from repro.autodesign import (
    DeploymentGoal,
    DeploymentPlanner,
    DesignQuery,
    adapt_design,
    enumerate_sites,
    find_design,
    select_designs,
    sites_facing_room,
    sites_seeing_point,
)
from repro.core.errors import ServiceError
from repro.core.units import ghz
from repro.experiments import build_scenario
from repro.orchestrator import Adam
from repro.surfaces import SignalProperty


class TestDesignDB:
    def test_band_filtering(self):
        specs = select_designs(DesignQuery(frequency_hz=ghz(2.4)))
        names = {s.design for s in specs}
        assert "LAIA" in names
        assert "mmWall" not in names

    def test_reconfigurable_filter(self):
        passive = select_designs(
            DesignQuery(frequency_hz=ghz(60), reconfigurable=False)
        )
        assert {s.design for s in passive} == {"MilliMirror", "AutoMS"}
        assert all(s.is_passive for s in passive)

    def test_cost_ceiling(self):
        cheap = select_designs(
            DesignQuery(
                frequency_hz=ghz(60), max_cost_per_element_usd=0.001
            )
        )
        assert {s.design for s in cheap} == {"AutoMS"}

    def test_property_filter(self):
        pol = select_designs(
            DesignQuery(
                frequency_hz=ghz(2.4),
                properties=(SignalProperty.POLARIZATION,),
            )
        )
        assert {s.design for s in pol} == {"LLAMA"}

    def test_sorted_by_unit_cost(self):
        specs = select_designs(DesignQuery(frequency_hz=ghz(24)))
        costs = [s.cost_per_element_usd for s in specs]
        assert costs == sorted(costs)

    def test_adapt_design_shifts_band(self):
        spec = adapt_design(DesignQuery(frequency_hz=ghz(10)))
        assert spec.in_band(ghz(10))
        assert "adapted" in spec.notes
        assert "@10GHz" in spec.design

    def test_find_design_prefers_catalog(self):
        spec = find_design(DesignQuery(frequency_hz=ghz(60)))
        assert "@" not in spec.design

    def test_adapt_rejects_impossible(self):
        with pytest.raises(ServiceError):
            adapt_design(
                DesignQuery(
                    frequency_hz=ghz(10), max_cost_per_element_usd=1e-9
                )
            )

    def test_query_validation(self):
        with pytest.raises(ServiceError):
            DesignQuery(frequency_hz=0.0)
        with pytest.raises(ServiceError):
            DesignQuery(frequency_hz=ghz(5), properties=())


class TestSites:
    @pytest.fixture()
    def scenario(self):
        return build_scenario()

    def test_enumerate_covers_walls(self, scenario):
        sites = enumerate_sites(scenario.env, spacing_m=1.0)
        assert len(sites) > 10
        names = {s.wall_name for s in sites}
        assert "north-exterior" in names
        # Normals point into the floor plan.
        lo, hi = scenario.env.bounds()
        interior = (lo + hi) / 2.0
        for site in sites:
            assert float(np.dot(interior - site.center, site.normal)) > -2.0

    def test_mount_height(self, scenario):
        sites = enumerate_sites(scenario.env, height_m=1.7)
        assert all(s.center[2] == pytest.approx(1.7) for s in sites)

    def test_facing_room_filter(self, scenario):
        sites = enumerate_sites(scenario.env, spacing_m=1.0)
        facing = sites_facing_room(scenario.env, sites, "bedroom")
        assert facing
        assert len(facing) < len(sites)
        # Sites on the far west wall can't see much of the bedroom.
        for site in facing:
            assert site.wall_name != "west-exterior"

    def test_seeing_point_filter(self, scenario):
        sites = enumerate_sites(scenario.env, spacing_m=1.0)
        hearing = sites_seeing_point(
            scenario.env, sites, scenario.ap.position, max_loss_db=10.0
        )
        assert hearing
        assert len(hearing) < len(sites)

    def test_spacing_validation(self, scenario):
        with pytest.raises(ValueError):
            enumerate_sites(scenario.env, spacing_m=0.0)


class TestPlanner:
    @pytest.fixture()
    def planner(self):
        scenario = build_scenario()
        return scenario, DeploymentPlanner(
            scenario.env,
            scenario.ap,
            optimizer=Adam(max_iterations=50),
            size_ladder=(8, 16, 32),
            max_sites=3,
            grid_spacing_m=1.0,
        )

    def test_plans_meet_reachable_target(self, planner):
        scenario, p = planner
        goal = DeploymentGoal(
            room_id="bedroom",
            target_median_snr_db=15.0,
            frequency_hz=ghz(28),
            require_reconfigurable=True,
        )
        plans = p.plan(goal)
        assert plans[0].meets_target
        assert plans[0].predicted_median_snr_db >= 15.0
        # Ranked by cost among target-meeting plans.
        meeting = [x for x in plans if x.meets_target]
        costs = [x.cost_usd for x in meeting]
        assert costs == sorted(costs)

    def test_best_effort_when_target_unreachable(self, planner):
        scenario, p = planner
        goal = DeploymentGoal(
            room_id="bedroom",
            target_median_snr_db=80.0,  # impossible
            frequency_hz=ghz(28),
            require_reconfigurable=True,
        )
        plans = p.plan(goal)
        assert all(not x.meets_target for x in plans)

    def test_constraints_bind(self, planner):
        scenario, p = planner
        goal = DeploymentGoal(
            room_id="bedroom",
            target_median_snr_db=15.0,
            frequency_hz=ghz(28),
            require_reconfigurable=True,
            max_cost_usd=200.0,  # only the 8x8 fits ($160)
        )
        plans = p.plan(goal)
        assert all(x.cost_usd <= 200.0 for x in plans)

    def test_describe(self, planner):
        scenario, p = planner
        goal = DeploymentGoal(
            room_id="bedroom",
            target_median_snr_db=10.0,
            frequency_hz=ghz(28),
            require_reconfigurable=True,
        )
        text = p.plan(goal)[0].describe()
        assert "dB median" in text and "$" in text

    def test_goal_validation(self):
        with pytest.raises(ServiceError):
            DeploymentGoal("r", 20.0, frequency_hz=0.0)
        with pytest.raises(ServiceError):
            DeploymentGoal("r", 20.0, frequency_hz=ghz(28), max_cost_usd=0.0)
        with pytest.raises(ServiceError):
            DeploymentGoal("r", 20.0, frequency_hz=ghz(28), max_area_m2=0.0)
