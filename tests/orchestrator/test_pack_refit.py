"""A task set builds one loss pack per (unit, panel) and refits it per round.

On the two-panel apartment, the panels' cascade legs put the other
panel's phases into a linear form's coefficients as well as its offset,
so a later block-coordinate round changes both.  A refitted objective
must score every phase vector and batch bit for bit as an objective
built fresh on the new form.
"""

import numpy as np
import pytest

from repro import SurfOS
from repro.core.errors import OptimizationError
from repro.hwmgr import ClientDevice
from repro.orchestrator import RandomSearch, objectives
from repro.orchestrator.objectives import (
    CoverageObjective,
    JointObjective,
    PoweringObjective,
)
from repro.orchestrator.solvebudget import SolveBudgetConfig
from repro.services import connectivity, security


@pytest.fixture(scope="module")
def system():
    system = SurfOS.from_scene(
        "apartment", panel_size=4, optimizer=RandomSearch(max_iterations=4, seed=0)
    )
    client = ClientDevice("c0", tuple(map(float, system.scene.client_loops[0][0])))
    system.add_client(client)
    return system


def _forms(system, seed):
    """Two rounds' linear forms of one panel under different other-panel phases."""
    orch = system.orchestrator
    panels = orch.hardware.panels()
    points = orch._room_points(system.scene.observe_room)
    model = orch.simulator.build(orch.ap.node(), points, panels)
    assert len(model.surface_to_surface) == 2
    rng = np.random.default_rng(seed)
    sid, other = panels[0].panel_id, panels[1].panel_id
    size = model.num_elements(other)
    first, second = (
        model.linear_form(sid, {other: np.exp(1j * rng.uniform(0, 6.3, size))})
        for _ in range(2)
    )
    # The cascade terms move the coefficients, not only the offset.
    assert not np.array_equal(first.coeffs, second.coeffs)
    assert not np.array_equal(first.offset, second.offset)
    return first, second


def _kernel_parts(form, amplitudes):
    link = connectivity.link_objective(form, 3, amplitudes=amplitudes)
    return [
        (CoverageObjective(form, amplitudes=amplitudes), 0.5),
        (link, 0.3),
        (PoweringObjective(form.restricted(range(4)), amplitudes=amplitudes), 0.2),
    ]


def _assert_same_losses(refitted, fresh, rng):
    for rows in (1, 16):
        batch = rng.uniform(0, 2 * np.pi, (rows, fresh.dim))
        assert refitted.value_many(batch).tobytes() == fresh.value_many(batch).tobytes()
        assert refitted.value(batch[0]) == fresh.value(batch[0])
    value, grad = refitted.value_and_gradient(batch[0])
    fresh_value, fresh_grad = fresh.value_and_gradient(batch[0])
    assert value == fresh_value and grad.tobytes() == fresh_grad.tobytes()


@pytest.mark.parametrize("kind", ["coverage", "powering", "joint", "joint-loose"])
def test_refitted_losses_equal_fresh_objectives_bit_for_bit(system, kind):
    first, second = _forms(system, seed=1)
    rng = np.random.default_rng(2)
    amplitudes = rng.uniform(0.5, 1.0, first.num_elements)

    def build(form):
        if kind == "coverage":
            return CoverageObjective(form, amplitudes=amplitudes)
        if kind == "powering":
            return PoweringObjective(form, amplitudes=amplitudes)
        parts = _kernel_parts(form, amplitudes)
        if kind == "joint-loose":
            parts.append((security.security_objective(form, [0, 1], [5]), 0.1))
        return JointObjective(parts)

    objective = build(first)
    pack_before = objective._pack
    _assert_same_losses(objective, build(first), rng)  # builds the pack and plans
    pack = objective._pack
    assert pack is not None and pack_before is None
    plans = dict(pack._plans)
    assert set(plans) == {1, 16}

    if isinstance(objective, JointObjective):
        # Kernel parts are re-pointed; the loose part is built anew.
        new_parts = [
            part.refit(form)
            for (part, _), form in zip(
                objective.parts[:3], [second, second, second.restricted(range(4))]
            )
        ]
        if kind == "joint-loose":
            new_parts.append(security.security_objective(second, [0, 1], [5]))
        assert objective.refit(new_parts) is objective
    else:
        assert objective.refit(second) is objective

    assert objective._pack is pack and pack._plans == plans
    _assert_same_losses(objective, build(second), rng)


def test_refit_rejects_a_changed_structure(system):
    first, _ = _forms(system, seed=3)
    coverage = CoverageObjective(first)
    with pytest.raises(OptimizationError):
        coverage.refit(first.restricted(range(4)))
    joint = JointObjective(_kernel_parts(first, None))
    with pytest.raises(OptimizationError):
        joint.refit([part for part, _ in joint.parts][::-1])


class RecordingSearch(RandomSearch):
    """RandomSearch that records each solve's objective and pack."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.calls = []

    def optimize(self, objective, initial_phases, projection=None, budget=None):
        result = super().optimize(objective, initial_phases, projection, budget)
        self.calls.append((objective, objective._pack))
        return result


def test_reactions_of_one_task_set_build_one_pack_per_unit_and_panel(monkeypatch):
    built = []

    class CountingPack(objectives._LossPack):
        def __init__(self, parts):
            built.append(self)
            super().__init__(parts)

    monkeypatch.setattr(objectives, "_LossPack", CountingPack)
    search = RecordingSearch(max_iterations=4, seed=0)
    system = SurfOS.from_scene("apartment", panel_size=4, optimizer=search)
    loop = system.scene.client_loops[0]
    system.add_client(ClientDevice("c0", tuple(map(float, loop[0]))))
    orch = system.orchestrator
    orch.optimize_coverage(system.scene.observe_room)
    orch.enhance_link("c0", snr=20.0)
    for _ in range(3):
        orch.reoptimize(rounds=3)
    panels = len(orch._optimizable_panels())
    assert panels == 2
    objectives_seen = {id(objective) for objective, _ in search.calls}
    # Three reactions of three rounds over each (unit, panel), one
    # objective and pack each, refitted in every later round.
    assert len(objectives_seen) == panels
    assert len(search.calls) == 3 * 3 * panels
    assert len(built) == panels
    assert {id(pack) for _, pack in search.calls} == {id(pack) for pack in built}


@pytest.mark.parametrize("kind", ["coverage", "joint"])
def test_a_refit_forgets_the_remembered_score(system, kind):
    first, second = _forms(system, seed=4)
    rng = np.random.default_rng(5)
    phases = rng.uniform(0, 2 * np.pi, first.num_elements)

    def build(form):
        if kind == "coverage":
            return CoverageObjective(form)
        return JointObjective(_kernel_parts(form, None))

    objective = build(first)
    objective.value_many(phases[None])  # builds the pack
    pack = objective._pack
    before = pack.value(phases)
    assert pack._scored[0] == phases.tobytes() and pack._scored[1] == before
    assert pack.value(phases.copy()) == before
    if kind == "coverage":
        objective.refit(second)
    else:
        forms = [second, second, second.restricted(range(4))]
        objective.refit([
            part.refit(form) for (part, _), form in zip(objective.parts, forms)
        ])
    assert pack._scored[0] is None
    fresh = build(second)
    fresh.value_many(phases[None])
    assert pack.value(phases) == fresh._pack.value(phases) != before


def test_a_repeated_form_reuses_the_objective_as_it_is(monkeypatch):
    refits = []
    refit = JointObjective.refit

    def counting(self, parts):
        refits.append(self)
        return refit(self, parts)

    monkeypatch.setattr(JointObjective, "refit", counting)
    search = RecordingSearch(max_iterations=4, seed=0)
    system = SurfOS.from_scene("two-room", panel_size=4, optimizer=search)
    loop = system.scene.client_loops[0]
    system.add_client(ClientDevice("c0", tuple(map(float, loop[0]))))
    orch = system.orchestrator
    orch.optimize_coverage(system.scene.observe_room)
    orch.enhance_link("c0", snr=20.0)
    search.calls.clear()
    orch.reoptimize(rounds=2)
    # One panel: its form depends on no other panel's phases, so the
    # second round finds the same form and the same objective.
    assert len(orch._optimizable_panels()) == 1
    assert len(search.calls) == 2
    assert search.calls[0][0] is search.calls[1][0]
    assert isinstance(search.calls[0][0], JointObjective)
    assert refits == []


def test_a_warm_solve_scores_its_start_once(monkeypatch):
    scalar_passes = []
    run_pass = objectives._LossPack._pass

    def counting(self, phases):
        if phases.ndim == 1:
            scalar_passes.append(phases.tobytes())
        return run_pass(self, phases)

    monkeypatch.setattr(objectives._LossPack, "_pass", counting)
    search = RecordingSearch(max_iterations=4, seed=0)
    system = SurfOS.from_scene(
        "apartment", panel_size=4, optimizer=search,
        solve_budget=SolveBudgetConfig(enabled=True, floor=2),
    )
    loop = system.scene.client_loops[0]
    system.add_client(ClientDevice("c0", tuple(map(float, loop[0]))))
    orch = system.orchestrator
    orch.optimize_coverage(system.scene.observe_room)
    orch.enhance_link("c0", snr=20.0)
    orch.reoptimize(rounds=1)  # cold: stores the solutions
    scalar_passes.clear()
    evaluations = system.telemetry.get_counter("optimizer.objective_evaluations")
    result = orch.reoptimize(rounds=1)
    solves = len(orch._optimizable_panels())
    assert result.solver["warm_hits"] == solves
    # The drift probe and the solve's first incumbent share one pass;
    # the projected final answer takes the other.
    assert len(scalar_passes) == 2 * solves
    # Counters still count the incumbent and the final answer.
    spent = system.telemetry.get_counter("optimizer.objective_evaluations")
    used = result.solver["used_iterations"]
    assert spent - evaluations == used * search.population + 2 * solves
