"""No objective or loss pack outlives its unit's task set.

Each solve unit keeps one objective per panel across reactions while
its signature holds (the members' task ids, services, point counts and
weights, and the optimizable panels and their amplitudes).  Each
objective builds its loss pack, and the pack its buffer plans, on first
evaluation; later reactions refit them in place.  A reaction keeps only
its own units' objectives, so a changed task set or panel set frees the
old ones.  A recording optimizer keeps weak references to every
objective and pack; the cyclic collector is switched off while the
freed ones are checked, so a reference cycle or a lingering strong
reference fails the test.
"""

import gc
import weakref

import numpy as np
import pytest

from repro import SurfOS
from repro.core.configuration import SurfaceConfiguration
from repro.faults import FaultInjector
from repro.hwmgr import ClientDevice
from repro.mobility import WaypointWalker
from repro.orchestrator import RandomSearch, objectives
from repro.orchestrator.solvebudget import SolveBudgetConfig


class RecordingSearch(RandomSearch):
    """RandomSearch that weakly records every objective and its pack."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.refs = []

    def optimize(self, objective, initial_phases, projection=None, budget=None):
        result = super().optimize(objective, initial_phases, projection, budget)
        assert objective._pack is not None
        self.refs.append((weakref.ref(objective), weakref.ref(objective._pack)))
        return result


@pytest.fixture()
def built(monkeypatch):
    """Every loss pack built while the test runs."""
    packs = []

    class CountingPack(objectives._LossPack):
        def __init__(self, parts):
            packs.append(weakref.ref(self))
            super().__init__(parts)

    monkeypatch.setattr(objectives, "_LossPack", CountingPack)
    return packs


def _system(injector=None):
    search = RecordingSearch(max_iterations=4, seed=0, early_stop_eps=1e-3)
    system = SurfOS.from_scene(
        "apartment",
        panel_size=4,
        optimizer=search,
        fault_injector=injector,
        solve_budget=SolveBudgetConfig(enabled=True, floor=2),
    )
    loop = system.scene.client_loops[0]
    client = system.add_client(ClientDevice("c0", tuple(map(float, loop[0]))))
    system.dynamics.attach_client(client, WaypointWalker(loop, speed_mps=1.0))
    system.add_client(ClientDevice("c1", tuple(map(float, loop[2]))))
    system.orchestrator.optimize_coverage(system.scene.observe_room)
    system.orchestrator.enhance_link("c0", snr=20.0)
    return system, search


def _step(system):
    # The client moves every cycle, so every cycle reacts.
    record = system.daemon.step(dt=0.5)
    assert record is not None


def test_warm_steps_of_one_task_set_build_one_pack_per_unit_and_panel(built):
    system, search = _system()
    orch = system.orchestrator
    for _ in range(10):
        _step(system)
    panels = len(orch._optimizable_panels())
    assert panels == 2
    # One joint unit (coverage + link): one pack per panel, all run.
    assert len(built) == panels
    assert len(orch._kept) == panels
    assert {id(ref()) for _, ref in search.refs} == {id(ref()) for ref in built}
    warm = system.telemetry.get_counter("solver.warm_hits")
    assert warm >= 9 * panels


def _end_task(system, extra):
    system.orchestrator.complete_task(extra.task_id)


def _admit_task(system, extra):
    system.orchestrator.enhance_link("c1", snr=15.0)


def _panel_death(system, extra):
    system.hardware.faults.kill_panel("rs-north", at_time=system.daemon.clock.now)


def _amplitude_change(system, extra):
    panel = system.hardware.panel("rs-east")
    config = panel.configuration
    panel.impair(SurfaceConfiguration(
        phases=config.phases, amplitudes=np.full(config.shape, 0.5)
    ))


@pytest.mark.parametrize(
    "change", [_end_task, _admit_task, _panel_death, _amplitude_change],
    ids=["end-task", "admit-task", "panel-death", "amplitude-change"],
)
def test_a_changed_task_set_or_panel_set_frees_the_kept_state(built, change):
    system, search = _system(injector=FaultInjector(seed=0))
    orch = system.orchestrator
    extra = None
    if change is not _admit_task:
        extra = orch.enhance_link("c1", snr=15.0)
    for _ in range(3):
        _step(system)
    before = len(built)
    old = list(orch._kept.values())
    assert len(old) == 2
    old_refs = [
        (weakref.ref(objective), weakref.ref(objective._pack))
        for _, objective in old
    ]
    del old
    change(system, extra)
    gc.collect()
    gc.disable()
    try:
        search.refs.clear()
        _step(system)
        assert [(o(), p()) for o, p in old_refs] == [(None, None)] * len(old_refs)
        # The new state is the latest reaction's units, one per panel.
        panels = len(orch._optimizable_panels())
        assert panels == (1 if change is _panel_death else 2)
        assert len(orch._kept) == panels
        assert len(built) == before + panels
    finally:
        gc.enable()
