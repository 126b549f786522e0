"""Extension bench — §5 design & deployment automation.

"The abstraction layers of SurfOS make it easy to streamline and
automate the entire process [design + deployment] for generalized
hardware types and use cases."  The planner compiles a coverage goal
into (design, site, size) plans; this bench checks the automation finds
a target-meeting plan and that its site choice genuinely matters.
"""

from conftest import run_once

from repro.analysis.tables import render_table
from repro.autodesign import DeploymentGoal, DeploymentPlanner
from repro.core.units import ghz
from repro.experiments import build_scenario
from repro.orchestrator import Adam


def run_planning():
    scenario = build_scenario()
    planner = DeploymentPlanner(
        scenario.env,
        scenario.ap,
        optimizer=Adam(max_iterations=60),
        size_ladder=(8, 12, 16, 24),
        max_sites=4,
        grid_spacing_m=0.9,
    )
    goal = DeploymentGoal(
        room_id="bedroom",
        target_median_snr_db=20.0,
        frequency_hz=ghz(28),
        require_reconfigurable=True,
    )
    return planner.plan(goal, max_plans=8)


def test_bench_autodesign(benchmark):
    plans = run_once(benchmark, run_planning)
    print()
    print(
        render_table(
            ("rank", "plan"),
            [(i + 1, p.describe()) for i, p in enumerate(plans)],
            title="Deployment automation: plans for 20 dB median in the bedroom",
        )
    )
    best = plans[0]
    # The automation finds a target-meeting plan …
    assert best.meets_target
    assert best.predicted_median_snr_db >= 20.0
    # … at a sane hardware bill (well under the naive biggest-panel buy).
    assert best.cost_usd < 1500.0
    # Placement matters: the plan spread spans several dB or different
    # hardware sizes across candidate sites.
    medians = [p.predicted_median_snr_db for p in plans]
    sides = {p.side_elements for p in plans}
    assert max(medians) - min(medians) > 2.0 or len(sides) > 1
