"""Property: a seeded daemon run exports byte-identical sim-only telemetry.

The determinism contract: one seed gives the same sim-only JSONL across
repeats and across channel-worker counts.  Each example drives a short
apartment run (a mobile client, an obstacle walker, optionally a panel
death, fixed or adaptive solve budgets) through the daemon's one
reaction path, three times — serial twice and with two channel workers
once — and compares the exports.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SurfOS
from repro.broker.calls import reset_request_counter
from repro.faults import FaultInjector
from repro.hwmgr import ClientDevice
from repro.mobility import WaypointWalker
from repro.orchestrator import RandomSearch, SolveBudgetConfig
from repro.orchestrator.tasks import reset_task_counter
from repro.runtime import Walker

RUN = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**16),
        "steps": st.integers(1, 6),
        "client_speed": st.floats(0.2, 2.0),
        "walker_speed": st.floats(0.5, 2.0),
        # None, or (panel index, death time) for a surface-degraded cycle.
        "death": st.one_of(
            st.none(), st.tuples(st.integers(0, 1), st.floats(0.0, 3.0))
        ),
        # Drift-aware budgets with solution memory and early stop.
        "adaptive": st.booleans(),
    }
)


def export(run, channel_workers):
    reset_task_counter()
    reset_request_counter()
    injector = FaultInjector(seed=run["seed"])
    system = SurfOS.from_scene(
        "apartment",
        panel_size=4,
        optimizer=RandomSearch(
            max_iterations=3,
            seed=run["seed"],
            early_stop_eps=1e-3 if run["adaptive"] else None,
        ),
        grid_spacing_m=1.0,
        fault_injector=injector,
        channel_workers=channel_workers,
        solve_budget=(
            SolveBudgetConfig(enabled=True) if run["adaptive"] else None
        ),
    )
    scene = system.scene
    if run["death"] is not None:
        index, at = run["death"]
        injector.kill_panel(scene.panel_sites[index].panel_id, at_time=at)
    loop = scene.client_loops[0]
    client = system.add_client(ClientDevice("c0", tuple(map(float, loop[0]))))
    system.dynamics.attach_client(
        client, WaypointWalker(loop, speed_mps=run["client_speed"])
    )
    system.dynamics.add_walker(
        Walker(
            "person",
            model=WaypointWalker(
                [(5.6, 3.2), (8.0, 1.0)], speed_mps=run["walker_speed"]
            ),
        )
    )
    system.orchestrator.optimize_coverage(scene.observe_room)
    system.orchestrator.enhance_link("c0", snr=20.0)
    system.orchestrator.reoptimize(now=0.0)
    system.daemon.run(steps=run["steps"], dt=0.5)
    system.pipeline.close()
    return system.telemetry.export_jsonl(sim_only=True)


@settings(max_examples=4, deadline=None)
@given(run=RUN)
def test_daemon_run_is_deterministic(run):
    first = export(run, channel_workers=0)
    # The mobile client moves every cycle, so every cycle reacts.
    assert first.count('"name": "daemon.reaction"') == run["steps"]
    assert export(run, channel_workers=0) == first
    assert export(run, channel_workers=2) == first
