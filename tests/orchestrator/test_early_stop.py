"""Adaptive budgets and convergence early-stop on the optimizers.

The determinism contract under test: budgets only ever *shorten* a run,
early stop is a pure function of the loss stream, and a multi-task
``optimize_many`` equals one ``optimize`` per task even when budgets
and early stops retire tasks at different iterations.
"""

import numpy as np
import pytest

from repro.core.errors import OptimizationError
from repro.orchestrator import (
    Adam,
    GradientDescent,
    RandomSearch,
    SimulatedAnnealing,
)
from repro.orchestrator.objectives import Objective


class Quadratic(Objective):
    """Convex test loss: ||phi - target||^2."""

    def __init__(self, target):
        self.target = np.asarray(target, dtype=float)
        self.dim = self.target.size

    def value_and_gradient(self, phases):
        phases = np.asarray(phases, dtype=float).reshape(-1)
        diff = phases - self.target
        return float(diff @ diff), 2.0 * diff


class Constant(Objective):
    """A flat loss surface — nothing ever improves."""

    def __init__(self, dim=4, level=3.0):
        self.dim = dim
        self.level = float(level)

    def value_and_gradient(self, phases):
        return self.level, np.zeros(self.dim)


def result_fingerprint(result):
    """Everything the determinism contract promises, comparable."""
    return (
        result.phases.tobytes(),
        result.loss,
        tuple(result.history),
        result.iterations,
        result.evaluations,
        result.budget,
        result.early_stopped,
    )


class TestBudgetCaps:
    @pytest.mark.parametrize(
        "optimizer, budget",
        [
            (GradientDescent(learning_rate=0.1, max_iterations=100), 7),
            (Adam(max_iterations=100), 7),
            (RandomSearch(max_iterations=100, population=4, seed=0), 7),
            (SimulatedAnnealing(steps=100, speculation=4, seed=0), 7),
        ],
    )
    def test_budget_caps_iterations(self, optimizer, budget):
        result = optimizer.optimize(
            Quadratic(np.ones(5)), np.zeros(5), budget=budget
        )
        assert result.iterations <= budget
        assert result.budget == budget

    def test_budget_never_raises_the_limit(self):
        optimizer = RandomSearch(max_iterations=5, population=4, seed=0)
        result = optimizer.optimize(
            Quadratic(np.ones(4)), np.zeros(4), budget=500
        )
        assert result.budget == 5

    def test_none_budget_is_the_full_run(self):
        optimizer = RandomSearch(max_iterations=9, population=4, seed=0)
        capped = optimizer.optimize(Quadratic(np.ones(4)), np.zeros(4))
        assert capped.budget == 9
        assert capped.iterations == 9

    def test_budget_list_length_must_match(self):
        optimizer = RandomSearch(max_iterations=5, seed=0)
        with pytest.raises(OptimizationError):
            optimizer.optimize_many(
                [Quadratic(np.ones(3))], [np.zeros(3)], budgets=[1, 2]
            )

    def test_budgeted_prefix_matches_full_run(self):
        # A budget is a pure truncation: the capped run replays the
        # full run's RNG stream and loss trajectory, just shorter.
        optimizer = RandomSearch(max_iterations=20, population=5, seed=4)
        objective = Quadratic(np.ones(6))
        full = optimizer.optimize(objective, np.zeros(6))
        capped = optimizer.optimize(objective, np.zeros(6), budget=8)
        assert capped.history == full.history[: len(capped.history)]


class TestEarlyStop:
    def test_flat_loss_stops_at_patience(self):
        optimizer = RandomSearch(
            max_iterations=50, population=4, seed=0,
            early_stop_eps=1e-3, early_stop_patience=3,
        )
        result = optimizer.optimize(Constant(), np.zeros(4))
        assert result.early_stopped
        assert result.iterations == 3

    def test_eps_none_never_stops(self):
        optimizer = RandomSearch(
            max_iterations=12, population=4, seed=0, early_stop_eps=None
        )
        result = optimizer.optimize(Constant(), np.zeros(4))
        assert not result.early_stopped
        assert result.iterations == 12

    def test_stop_is_relative_to_loss_scale(self):
        # The same trajectory shifted by 1000x must stop identically:
        # eps is relative, not absolute.
        kwargs = dict(
            max_iterations=40, population=6, seed=1,
            early_stop_eps=1e-2, early_stop_patience=2,
        )
        small = RandomSearch(**kwargs).optimize(
            Quadratic(np.full(4, 0.01)), np.zeros(4)
        )
        large = RandomSearch(**kwargs).optimize(
            Quadratic(np.full(4, 0.01)), np.zeros(4), budget=None
        )
        assert small.iterations == large.iterations

    def test_annealing_stops_in_whole_blocks(self):
        # SA draws a whole speculative block before evaluating, so the
        # stop lands on a block boundary.  Starting at the optimum with
        # a frozen temperature rejects every proposal: blocks run to
        # completion and the stop fires after exactly `patience` blocks.
        optimizer = SimulatedAnnealing(
            steps=64, speculation=8, seed=0,
            early_stop_eps=1e-3, early_stop_patience=2,
            initial_temperature=1e-12, cooling=1.0,
        )
        result = optimizer.optimize(Quadratic(np.zeros(6)), np.zeros(6))
        assert result.early_stopped
        assert result.iterations == 2 * 8

    def test_deterministic_across_repeats(self):
        optimizer = RandomSearch(
            max_iterations=30, population=5, seed=7,
            early_stop_eps=1e-2, early_stop_patience=2,
        )
        a = optimizer.optimize(Quadratic(np.ones(5)), np.zeros(5))
        b = optimizer.optimize(Quadratic(np.ones(5)), np.zeros(5))
        assert result_fingerprint(a) == result_fingerprint(b)


class TestOptimizeMany:
    """``optimize_many`` is one ``optimize(budget=b)`` call per task."""

    def targets(self):
        rng = np.random.default_rng(11)
        return [rng.normal(size=6) for _ in range(3)]

    def check_matches_per_task(self, optimizer, budgets):
        objectives = [Quadratic(t) for t in self.targets()]
        initials = [np.zeros(6) for _ in objectives]
        many = optimizer.optimize_many(objectives, initials, budgets=budgets)
        per_task = [
            optimizer.optimize(objective, initial, budget=budget)
            for objective, initial, budget in zip(
                objectives, initials, budgets or [None] * len(objectives)
            )
        ]
        for got, want in zip(many, per_task):
            assert result_fingerprint(got) == result_fingerprint(want)
        return many

    def test_random_search_mixed_budgets_and_early_stop(self):
        optimizer = RandomSearch(
            max_iterations=30, population=5, seed=3,
            early_stop_eps=1e-2, early_stop_patience=2,
        )
        results = self.check_matches_per_task(optimizer, [5, None, 12])
        assert results[0].budget == 5
        assert results[1].budget == 30
        # Tasks retire at different iterations.
        assert len({r.iterations for r in results}) > 1

    def test_annealing_mixed_budgets_and_early_stop(self):
        optimizer = SimulatedAnnealing(
            steps=60, speculation=5, seed=2,
            early_stop_eps=1e-2, early_stop_patience=1,
        )
        results = self.check_matches_per_task(optimizer, [17, None, 30])
        assert results[0].iterations <= 17

    def test_random_search_no_budgets(self):
        optimizer = RandomSearch(max_iterations=15, population=4, seed=9)
        results = self.check_matches_per_task(optimizer, None)
        assert all(not r.early_stopped for r in results)
        assert all(r.budget == 15 for r in results)

    def test_annealing_no_budgets(self):
        optimizer = SimulatedAnnealing(steps=40, speculation=6, seed=5)
        self.check_matches_per_task(optimizer, None)

    def test_single_task_equals_optimize(self):
        optimizer = RandomSearch(max_iterations=6, population=4, seed=1)
        (target,) = self.targets()[:1]
        (many,) = optimizer.optimize_many([Quadratic(target)], [np.zeros(6)])
        one = optimizer.optimize(Quadratic(target), np.zeros(6))
        assert result_fingerprint(many) == result_fingerprint(one)

    @pytest.mark.parametrize(
        "optimizer",
        [
            GradientDescent(max_iterations=20, learning_rate=0.1),
            Adam(max_iterations=20, learning_rate=0.1),
        ],
        ids=["gradient", "adam"],
    )
    def test_gradient_optimizers_mixed_budgets(self, optimizer):
        results = self.check_matches_per_task(optimizer, [4, None, 9])
        assert [r.budget for r in results] == [4, 20, 9]

    def test_length_mismatch_raises(self):
        optimizer = RandomSearch(max_iterations=3, seed=0)
        with pytest.raises(OptimizationError):
            optimizer.optimize_many([Quadratic(np.ones(6))], [])
