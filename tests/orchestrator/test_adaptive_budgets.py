"""Adaptive solve budgets through the orchestrator: warm starts, kept
solve records, solver accounting, and the feature-off byte-identity
contract."""

import gc
import weakref

import numpy as np
import pytest

from repro import SurfOS, ghz
from repro.core.configuration import SurfaceConfiguration
from repro.core.errors import ServiceError
from repro.geometry import apartment_sites, two_room_apartment
from repro.hwmgr import AccessPoint, ClientDevice
from repro.orchestrator import RandomSearch, SolveBudgetConfig
from repro.orchestrator.orchestrator import _SolveRecord
from repro.orchestrator.solvebudget import group_key
from repro.surfaces import GENERIC_PROGRAMMABLE_28, SurfacePanel

FREQ = ghz(28)


class SpyRandomSearch(RandomSearch):
    """Records every (initial phases, budget) pair it is handed."""

    def optimize(self, objective, initial_phases, projection=None, budget=None):
        self.calls.append(
            (np.asarray(initial_phases, dtype=float).copy(), budget)
        )
        return super().optimize(objective, initial_phases, projection, budget)


class KeepingSearch(RandomSearch):
    """Keeps every phase array it returns, for the caller to scribble on."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.returned = []

    def optimize(self, objective, initial_phases, projection=None, budget=None):
        result = super().optimize(objective, initial_phases, projection, budget)
        self.returned.append(result.phases)
        return result


def build_system(solve_budget=None, optimizer=None):
    sites = apartment_sites()
    if optimizer is None:
        optimizer = RandomSearch(
            max_iterations=12, population=6, seed=0, early_stop_eps=None
        )
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
            "s1",
            GENERIC_PROGRAMMABLE_28,
            8,
            8,
            sites.single_surface_center,
            sites.single_surface_normal,
        )
    )
    system.add_client(ClientDevice("phone", (6.5, 1.5, 1.0)))
    return system.boot()


def spy_system(solve_budget=None):
    spy = SpyRandomSearch(max_iterations=12, population=6, seed=0)
    spy.calls = []
    return build_system(solve_budget=solve_budget, optimizer=spy), spy


class TestWarmStartSeeding:
    def test_disabled_seeds_from_live_panel_config(self):
        # The pre-adaptive contract: every solve starts from the phases
        # the hardware is actually running, with no budget cap.
        system, spy = spy_system()
        system.orchestrator.optimize_coverage("bedroom")
        expected = (
            system.hardware.panel("s1").configuration.flat_phases().copy()
        )
        system.reoptimize(rounds=1)
        assert spy.calls, "optimizer never invoked"
        initial, budget = spy.calls[0]
        np.testing.assert_array_equal(initial, expected)
        assert budget is None

    def test_enabled_second_pass_warm_starts_from_cached_solution(self):
        system, spy = spy_system(SolveBudgetConfig(enabled=True))
        system.orchestrator.optimize_coverage("bedroom")
        system.reoptimize(rounds=1)
        first_pass_calls = len(spy.calls)
        cached = system.hardware.panel("s1").configuration.flat_phases().copy()
        system.reoptimize(rounds=1)
        initial, budget = spy.calls[first_pass_calls]
        # Pass 2 starts from pass 1's pushed optimum, not from scratch,
        # and the unchanged environment earns the floor budget.
        np.testing.assert_array_equal(initial, cached)
        assert budget == SolveBudgetConfig().floor

    def test_cold_pass_gets_full_budget(self):
        system, spy = spy_system(SolveBudgetConfig(enabled=True))
        system.orchestrator.optimize_coverage("bedroom")
        system.reoptimize(rounds=1)
        assert spy.calls[0][1] is None  # cold start: no cap


class TestSolverAccounting:
    def test_disabled_result_has_empty_solver_stats(self):
        system = build_system()
        system.orchestrator.optimize_coverage("bedroom")
        result = system.reoptimize(rounds=1)
        assert result.solver == {}
        counters = system.telemetry.snapshot().counters
        assert not any(name.startswith("solver.") for name in counters)

    def test_enabled_tracks_budgets_and_warm_hits(self):
        system = build_system(SolveBudgetConfig(enabled=True))
        system.orchestrator.optimize_coverage("bedroom")
        cold = system.reoptimize(rounds=1)
        assert cold.solver["cold_starts"] >= 1
        assert cold.solver["budgeted_iterations"] >= cold.solver[
            "used_iterations"
        ]
        warm = system.reoptimize(rounds=1)
        assert warm.solver["warm_hits"] >= 1
        assert warm.solver["drift_probes"] == warm.solver["warm_hits"]
        # Still drift: the floor budget is far below the cold budget.
        assert (
            warm.solver["budgeted_iterations"]
            < cold.solver["budgeted_iterations"]
        )
        counters = system.telemetry.snapshot().counters
        assert counters["solver.warm_hits"] == warm.solver["warm_hits"]

    def test_completing_a_task_purges_its_solutions(self):
        system = build_system(SolveBudgetConfig(enabled=True))
        task = system.orchestrator.optimize_coverage("bedroom")
        system.reoptimize(rounds=1)
        assert len(system.orchestrator._records) > 0
        system.orchestrator.complete_task(task.task_id)
        assert len(system.orchestrator._records) == 0


class TestKeptRecords:
    """A record's phases and its objective live for different spans."""

    def test_joint_unit_warm_starts_from_phases_kept_before_a_guest(self):
        system, spy = spy_system(SolveBudgetConfig(enabled=True))
        orch = system.orchestrator
        task = orch.optimize_coverage("bedroom")
        system.reoptimize(rounds=1)
        record = orch._records[(group_key([task.task_id]), "s1")]
        kept = record.phases.copy()
        # The guest's reaction solves joint:A+G and skips joint:A, whose
        # objective goes while its phases stay.
        guest = orch.enhance_link("phone", snr=25.0)
        system.reoptimize(rounds=1)
        orch.complete_task(guest.task_id)
        assert list(orch._records) == [(group_key([task.task_id]), "s1")]
        assert record.objective is None
        live = system.hardware.panel("s1").configuration.flat_phases()
        assert not np.array_equal(live, kept)
        calls = len(spy.calls)
        result = system.reoptimize(rounds=1)
        initial, budget = spy.calls[calls]
        np.testing.assert_array_equal(initial, kept)
        assert result.solver["drift_probes"] == 1
        assert result.solver.get("cold_starts", 0) == 0
        assert budget < orch.optimizer.full_budget

    def test_failed_reaction_keeps_warm_phases_and_frees_objectives(self):
        system, spy = spy_system(SolveBudgetConfig(enabled=True))
        orch = system.orchestrator
        orch.optimize_coverage("bedroom")
        system.reoptimize(rounds=1)
        (record,) = orch._records.values()
        kept = record.phases.copy()
        objective = weakref.ref(record.objective)
        system.hardware.quarantine("s1")
        with pytest.raises(ServiceError, match="no optimizable surfaces"):
            system.reoptimize(rounds=1)
        gc.collect()
        assert objective() is None
        assert list(orch._records.values()) == [record]
        np.testing.assert_array_equal(record.phases, kept)
        system.hardware.reinstate("s1")
        calls = len(spy.calls)
        result = system.reoptimize(rounds=1)
        np.testing.assert_array_equal(spy.calls[calls][0], kept)
        assert result.solver["warm_hits"] == 1
        assert result.solver["drift_probes"] == 1

    def test_record_keeps_the_converged_phases_and_loss(self):
        system = build_system(SolveBudgetConfig(enabled=True))
        orch = system.orchestrator
        task = orch.optimize_coverage("bedroom")
        system.reoptimize(rounds=1)
        record = orch._records[(group_key([task.task_id]), "s1")]
        assert record.members == (task.task_id,)
        live = system.hardware.panel("s1").configuration.flat_phases()
        np.testing.assert_array_equal(record.phases, live)
        assert record.loss == pytest.approx(
            float(record.objective.value(record.phases)), rel=1e-9
        )

    def test_completing_a_task_drops_its_singleton_and_group_records(self):
        # Members are read from the record, not parsed from its key.
        orch = build_system(SolveBudgetConfig(enabled=True)).orchestrator
        for key, sid, members in [
            ("t1", "s1", ("t1",)),
            (group_key(["t1", "t2"]), "s1", ("t1", "t2")),
            ("t2", "s2", ("t2",)),
        ]:
            orch._records[(key, sid)] = _SolveRecord(
                members, ((), ()), np.zeros(2), 0.0
            )
        orch._forget_task("t1")
        assert list(orch._records) == [("t2", "s2")]

    def test_changed_amplitudes_rebuild_the_objective_and_stay_warm(self):
        # The common part of the signature (link budget, panel
        # amplitudes) gates only the kept objective; the kept phases
        # still seed a probed warm start.
        system, spy = spy_system(SolveBudgetConfig(enabled=True))
        orch = system.orchestrator
        orch.optimize_coverage("bedroom")
        system.reoptimize(rounds=1)
        (record,) = orch._records.values()
        kept = record.phases.copy()
        objective = record.objective
        panel = system.hardware.panel("s1")
        config = panel.configuration
        panel.impair(SurfaceConfiguration(
            phases=config.phases, amplitudes=np.full(config.shape, 0.5)
        ))
        calls = len(spy.calls)
        result = system.reoptimize(rounds=1)
        np.testing.assert_array_equal(spy.calls[calls][0], kept)
        assert result.solver["warm_hits"] == 1
        assert "cold_starts" not in result.solver
        assert list(orch._records.values()) == [record]
        assert record.objective is not None
        assert record.objective is not objective
        assert system.telemetry.gauges["solver.drift"] > 0.0

    @pytest.mark.parametrize("change", ["points", "weight", "elements"])
    def test_changed_members_or_element_count_starts_cold(self, change):
        # Channel coefficients may drift under kept phases (the probe
        # measures that); a changed problem shape may not.
        system = build_system(SolveBudgetConfig(enabled=True))
        orch = system.orchestrator
        task = orch.optimize_coverage("bedroom")
        system.reoptimize(rounds=1)
        (record,) = orch._records.values()
        if change == "points":
            ctx = orch._contexts[task.task_id]
            ctx.points = ctx.points[:-1]
        elif change == "weight":
            orch._contexts[task.task_id].weight *= 0.5
        else:
            record.phases = record.phases[:-1]
        result = system.reoptimize(rounds=1)
        assert result.solver["cold_starts"] == 1
        assert "warm_hits" not in result.solver

    def test_kept_phases_are_the_records_own_copy(self):
        search = KeepingSearch(max_iterations=12, population=6, seed=0)
        system = build_system(SolveBudgetConfig(enabled=True), optimizer=search)
        system.orchestrator.optimize_coverage("bedroom")
        system.reoptimize(rounds=1)
        (record,) = system.orchestrator._records.values()
        kept = record.phases.copy()
        for phases in search.returned:
            phases[...] = 0.0
        np.testing.assert_array_equal(record.phases, kept)


def sim_only_export(system, tmp_path, name):
    path = tmp_path / name
    system.telemetry.export_jsonl(str(path), sim_only=True)
    return path.read_text()


class TestByteIdentity:
    def test_default_matches_explicit_disabled(self, tmp_path):
        # solve_budget=None and SolveBudgetConfig(enabled=False) must
        # be indistinguishable down to the exported telemetry bytes.
        exports = []
        for i, budget in enumerate([None, SolveBudgetConfig(enabled=False)]):
            system = build_system(solve_budget=budget)
            system.orchestrator.optimize_coverage("bedroom")
            system.orchestrator.enhance_link("phone", snr=25.0)
            system.reoptimize(rounds=2)
            exports.append(sim_only_export(system, tmp_path, f"off{i}.jsonl"))
        assert exports[0] == exports[1]

    def test_enabled_repeats_are_byte_identical(self, tmp_path):
        exports = []
        for i in range(2):
            system = build_system(
                SolveBudgetConfig(enabled=True),
                optimizer=RandomSearch(
                    max_iterations=12, population=6, seed=0,
                    early_stop_eps=1e-3, early_stop_patience=2,
                ),
            )
            system.orchestrator.optimize_coverage("bedroom")
            system.reoptimize(rounds=1)
            system.reoptimize(rounds=1)
            exports.append(sim_only_export(system, tmp_path, f"on{i}.jsonl"))
        assert exports[0] == exports[1]
        assert '"solver.warm_hits"' in exports[0]
