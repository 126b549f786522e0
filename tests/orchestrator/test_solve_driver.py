"""The orchestrator's one block-coordinate driver over solve units.

A reoptimize pass solves the co-served (joint) group as one unit and
each time-division slot as its own unit, all through the same driver.
The digests below are sha1s of sim-only telemetry. Apart from the
channel leg-cache counters, they match the earlier implementation,
which had a separate driver for the joint group and for the slots; the
merged driver must reproduce them byte for byte: same span order and
attributes, counters, warm starts and solution-store keys.
"""

import hashlib

import numpy as np
import pytest

from repro import SurfOS, ghz
from repro.channel import LinearChannelForm
from repro.geometry import apartment_sites, two_room_apartment
from repro.hwmgr import AccessPoint, ClientDevice
from repro.orchestrator import (
    MultiplexStrategy,
    RandomSearch,
    SimulatedAnnealing,
    SolveBudgetConfig,
)
from repro.orchestrator.objectives import CoverageObjective
from repro.orchestrator.tasks import reset_task_counter
from repro.pipeline import BatchEvaluator
from repro.surfaces import GENERIC_PROGRAMMABLE_28, SurfacePanel

FREQ = ghz(28)
CLIENTS = {
    "phone": (6.5, 1.5, 1.0),
    "tv": (7.8, 3.4, 1.0),
    "laptop": (5.6, 2.4, 1.0),
}

#: sha1 of one seeded NumPy evaluation on the host the digests were
#: recorded on.  Sim-only telemetry carries raw float losses, so the
#: digests only hold where NumPy's exp/log/matmul round the same way.
FLOAT_CANARY = "9ee1fc4aaae6ca66bfa37065b98acfeaf32df7c6"

#: Sim-only JSONL sha1 per case, for two ``reoptimize(rounds=2)`` passes.
GOLDEN = {
    "joint-adaptive": "493954666a27791b397a1451a21248b9f50a9e3c",
    "mixed-random": "927a655468ded48e246cd9d36f97f4c9c34ca9c6",
    "mixed-anneal": "ae7c7d92b1bc1ffb2c29732268c6809fb2112f65",
}


def build(optimizer, solve_budget=None, slotted=False):
    """Two panels; a joint coverage+link group, plus 3 TIME slots."""
    reset_task_counter()
    sites = apartment_sites()
    system = SurfOS(
        two_room_apartment(),
        frequency_hz=FREQ,
        optimizer=optimizer,
        grid_spacing_m=1.0,
        solve_budget=solve_budget,
    )
    system.add_access_point(
        AccessPoint("ap", sites.ap_position, 4, FREQ, boresight=(1, 0.3, 0))
    )
    system.add_surface(
        SurfacePanel(
            "s1", GENERIC_PROGRAMMABLE_28, 6, 6,
            sites.single_surface_center, sites.single_surface_normal,
        )
    )
    system.add_surface(
        SurfacePanel(
            "s2", GENERIC_PROGRAMMABLE_28, 6, 6,
            sites.programmable_center, sites.programmable_normal,
        )
    )
    for client_id, position in CLIENTS.items():
        system.add_client(ClientDevice(client_id, position))
    system.boot()
    orch = system.orchestrator
    joint_fraction = 0.15 if slotted else None
    orch.optimize_coverage("bedroom", time_fraction=joint_fraction)
    orch.enhance_link("phone", snr=25.0, time_fraction=joint_fraction)
    if slotted:
        for client_id in CLIENTS:
            orch.enhance_link(
                client_id, strategy=MultiplexStrategy.TIME, time_fraction=0.2
            )
    return system


CASES = {
    "joint-adaptive": lambda: build(
        RandomSearch(
            max_iterations=10, population=6, seed=0,
            early_stop_eps=1e-3, early_stop_patience=2,
        ),
        solve_budget=SolveBudgetConfig(enabled=True),
    ),
    "mixed-random": lambda: build(
        RandomSearch(max_iterations=8, population=6, seed=1), slotted=True
    ),
    "mixed-anneal": lambda: build(
        SimulatedAnnealing(steps=40, speculation=4, seed=2), slotted=True
    ),
}


def float_canary() -> str:
    rng = np.random.default_rng(11)
    coeffs = 1e-4 * (
        rng.normal(size=(4, 2, 36)) + 1j * rng.normal(size=(4, 2, 36))
    )
    offset = 1e-4 * (rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))
    objective = CoverageObjective(
        LinearChannelForm("s", coeffs, offset),
        amplitudes=rng.uniform(0.3, 1.0, 36),
    )
    batch = rng.uniform(0, 2 * np.pi, (8, 36))
    return hashlib.sha1(objective.value_many(batch).tobytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_sim_only_jsonl_matches_golden(case):
    if float_canary() != FLOAT_CANARY:
        pytest.skip("NumPy float kernels round differently on this host")
    system = CASES[case]()
    system.reoptimize(rounds=2)
    system.reoptimize(rounds=2)
    text = system.telemetry.export_jsonl(sim_only=True)
    assert hashlib.sha1(text.encode()).hexdigest() == GOLDEN[case]


def test_adaptive_case_exercises_warm_starts():
    system = CASES["joint-adaptive"]()
    first = system.reoptimize(rounds=2)
    second = system.reoptimize(rounds=2)
    assert first.solver["cold_starts"] == 2
    assert second.solver["warm_hits"] == 2


def _slot_phases(result):
    return {
        task_id: {sid: cfg.flat_phases().tobytes() for sid, cfg in entry.items()}
        for task_id, entry in result.slots.items()
    }


@pytest.mark.parametrize(
    "make",
    [
        lambda: RandomSearch(max_iterations=8, population=6, seed=1),
        lambda: SimulatedAnnealing(steps=40, speculation=4, seed=2),
    ],
    ids=["random", "anneal"],
)
def test_slotted_phases_equal_with_evaluator_pool(make):
    # A 2-row chunk splits every candidate batch across both workers.
    serial = build(make(), slotted=True).reoptimize(rounds=2)
    pooled_system = build(make(), slotted=True)
    with BatchEvaluator(parallelism=2, chunk=2) as evaluator:
        pooled_system.orchestrator.optimizer.bind_evaluator(evaluator)
        pooled = pooled_system.reoptimize(rounds=2)
        pooled_system.orchestrator.optimizer.unbind_evaluator()
    assert len(serial.slots) == 3
    assert _slot_phases(pooled) == _slot_phases(serial)
    assert pooled.joint.keys() == serial.joint.keys() == {"s1", "s2"}
    for sid in ("s1", "s2"):
        assert (
            pooled.joint[sid].flat_phases().tobytes()
            == serial.joint[sid].flat_phases().tobytes()
        )


class CountingRandomSearch(RandomSearch):
    """Counts ``optimize`` calls and the unit count per ``optimize_many``."""

    def optimize(self, objective, initial_phases, projection=None, budget=None):
        self.optimize_calls += 1
        return super().optimize(objective, initial_phases, projection, budget)

    def optimize_many(self, objectives, initial_phases, projection=None,
                      budgets=None):
        self.many_sizes.append(len(objectives))
        return super().optimize_many(
            objectives, initial_phases, projection, budgets
        )


def test_one_optimize_many_call_per_round_and_panel():
    optimizer = CountingRandomSearch(max_iterations=4, population=4, seed=0)
    optimizer.optimize_calls = 0
    optimizer.many_sizes = []
    system = build(optimizer, slotted=True)
    system.reoptimize(rounds=2)
    # 2 rounds × 2 panels for the joint unit, then for the 3 slots.
    assert optimizer.many_sizes == [1] * 4 + [3] * 4
    # One optimize() per unit: 4 joint + 4 × 3 slot solves.
    assert optimizer.optimize_calls == 16
