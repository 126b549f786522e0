"""Properties of the four optimizers' budget and multi-task contracts.

``optimize_many`` is one ``optimize(budget=b)`` call per task, so every
result field must match the per-task run.  A budget only shortens a
run: with the early stop off, a budgeted history is a prefix of the
full-budget history.  Simulated annealing is the one exception.  It
draws a whole speculative block (proposals, then acceptance uniforms)
before evaluating it, and a budget that cuts the last block short
draws that block's uniforms from a different point of the RNG stream.
Its histories therefore agree only up to the start of that block:
the first ``budget - speculation + 2`` entries at least, which is the
whole run when ``speculation == 1``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import LinearChannelForm
from repro.orchestrator.objectives import CoverageObjective
from repro.orchestrator.optimizers import (
    Adam,
    GradientDescent,
    RandomSearch,
    SimulatedAnnealing,
)

DIM = 8
#: Full budgets stay small so each example solves in milliseconds.
FULL = 12


def _pool():
    rng = np.random.default_rng(29)
    objectives, initials = [], []
    for _ in range(4):
        shape = (3, 2, DIM)
        coeffs = 1e-4 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        offset = 1e-4 * (
            rng.normal(size=shape[:2]) + 1j * rng.normal(size=shape[:2])
        )
        objectives.append(
            CoverageObjective(
                LinearChannelForm("s", coeffs, offset),
                amplitudes=rng.uniform(0.3, 1.0, DIM),
            )
        )
        initials.append(rng.uniform(0, 2 * np.pi, DIM))
    return objectives, initials


OBJECTIVES, INITIALS = _pool()

KINDS = ["gradient", "adam", "random", "anneal"]

EPS = st.one_of(st.none(), st.sampled_from([1e-6, 1e-3, 1e-2, 0.1]))


def make(kind, seed=0, eps=None, patience=2, speculation=4):
    if kind == "gradient":
        return GradientDescent(max_iterations=FULL, learning_rate=0.5)
    if kind == "adam":
        return Adam(max_iterations=FULL, learning_rate=0.3)
    if kind == "random":
        return RandomSearch(
            max_iterations=FULL, population=4, seed=seed,
            early_stop_eps=eps, early_stop_patience=patience,
        )
    return SimulatedAnnealing(
        steps=FULL, speculation=speculation, seed=seed,
        early_stop_eps=eps, early_stop_patience=patience,
    )


def fingerprint(result):
    return (
        result.phases.tobytes(),
        result.loss,
        tuple(result.history),
        result.iterations,
        result.evaluations,
        result.budget,
        result.early_stopped,
    )


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 3),
    budgets=st.lists(
        st.one_of(st.none(), st.integers(0, FULL + 3)), min_size=1, max_size=4
    ),
    eps=EPS,
    patience=st.integers(1, 3),
    speculation=st.integers(1, 5),
)
def test_optimize_many_equals_per_task_optimize(
    kind, seed, budgets, eps, patience, speculation
):
    optimizer = make(kind, seed, eps, patience, speculation)
    tasks = range(len(budgets))
    objectives = [OBJECTIVES[t] for t in tasks]
    initials = [INITIALS[t] for t in tasks]
    many = optimizer.optimize_many(objectives, initials, budgets=budgets)
    assert len(many) == len(budgets)
    for objective, initial, budget, got in zip(
        objectives, initials, budgets, many
    ):
        want = optimizer.optimize(objective, initial, budget=budget)
        assert fingerprint(got) == fingerprint(want)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 3),
    task=st.integers(0, len(OBJECTIVES) - 1),
    budget=st.integers(0, FULL),
    speculation=st.integers(1, 5),
)
def test_budgeted_history_is_prefix_of_full_run(
    kind, seed, task, budget, speculation
):
    optimizer = make(kind, seed, speculation=speculation)
    objective, initial = OBJECTIVES[task], INITIALS[task]
    full = optimizer.optimize(objective, initial).history
    cut = optimizer.optimize(objective, initial, budget=budget).history
    assert len(cut) <= len(full)
    if kind == "anneal":
        agreed = max(1, budget - speculation + 2)
        assert cut[:agreed] == full[:agreed]
    else:
        assert cut == full[: len(cut)]
