"""Adaptive solve budgets through the orchestrator: warm starts,
solver accounting, and the feature-off byte-identity contract."""

import numpy as np

from repro import SurfOS, ghz
from repro.geometry import apartment_sites, two_room_apartment
from repro.hwmgr import AccessPoint, ClientDevice
from repro.orchestrator import RandomSearch, SolveBudgetConfig
from repro.surfaces import GENERIC_PROGRAMMABLE_28, SurfacePanel

FREQ = ghz(28)


class SpyRandomSearch(RandomSearch):
    """Records every (initial phases, budget) pair it is handed."""

    def optimize(self, objective, initial_phases, projection=None, budget=None):
        self.calls.append(
            (np.asarray(initial_phases, dtype=float).copy(), budget)
        )
        return super().optimize(objective, initial_phases, projection, budget)


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
        assert len(system.orchestrator._solutions) > 0
        system.orchestrator.complete_task(task.task_id)
        assert len(system.orchestrator._solutions) == 0


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
