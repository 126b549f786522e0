"""Properties of the loss pack and of RandomSearch's reused draws.

A joint objective's ``value_many`` and ``value`` run every coverage
and powering part through one loss pack.  On random joints — weighted
and unweighted coverage, powering, loose localization, security and
nested joints, over random shapes and shared or distinct amplitude
rows — both must equal, bit for bit, the per-part formulation: each
part's own loss accumulated as ``total += w_i · v_i`` in part order.

``RandomSearch`` reseeds on every solve and reuses one cached block of
standard normals per ``(seed, population, dim)``.  Every result field
must equal a run of the per-iteration ``rng.normal(scale=…)`` loop.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.channel import LinearChannelForm
from repro.em import LinkBudget
from repro.orchestrator.objectives import (
    CoverageGoal,
    CoverageObjective,
    JointObjective,
    PoweringObjective,
)
from repro.orchestrator.optimizers import RandomSearch, _EarlyStop
from repro.services.security import security_objective
from repro.services.sensing import SurfaceAoAObjective

from ..orchestrator.test_joint_grouped import reference_value_many

# ----------------------------------------------------------------------
# random joints
# ----------------------------------------------------------------------

KINDS = ["coverage", "weighted", "powering", "localization", "security", "nested"]


def _form(rng, k, m, e):
    coeffs = 1e-4 * (rng.normal(size=(k, m, e)) + 1j * rng.normal(size=(k, m, e)))
    offset = 1e-4 * (rng.normal(size=(k, m)) + 1j * rng.normal(size=(k, m)))
    return LinearChannelForm("s", coeffs, offset)


def _leaf(rng, kind, k, m, e, amplitudes):
    if kind in ("coverage", "weighted"):
        goal = None
        if kind == "weighted":
            goal = CoverageGoal(budget=LinkBudget(), weights=rng.uniform(0.1, 1.0, k))
        return CoverageObjective(_form(rng, k, m, e), amplitudes=amplitudes, goal=goal)
    if kind == "powering":
        return PoweringObjective(_form(rng, k, m, e), amplitudes=amplitudes)
    if kind == "localization":
        angles = 5
        steering = rng.normal(size=(angles, e)) + 1j * rng.normal(size=(angles, e))
        wavefronts = rng.normal(size=(k, e)) + 1j * rng.normal(size=(k, e))
        return SurfaceAoAObjective(
            wavefronts,
            SimpleNamespace(steering=steering),
            rng.integers(0, angles, k),
            amplitudes=amplitudes,
        )
    if kind == "security":
        return security_objective(
            _form(rng, max(k, 2), m, e),
            legit_indices=[0],
            eavesdropper_indices=[1],
            amplitudes=amplitudes,
            nulling_weight=0.4,
        )
    inner = [
        _leaf(rng, "coverage", k, m, e, amplitudes),
        _leaf(rng, "powering", max(1, k // 2), m, e, amplitudes),
        _leaf(rng, "coverage", 1, m, e, amplitudes),
    ]
    return JointObjective(list(zip(inner, rng.uniform(0.05, 1.0, len(inner)))))


@st.composite
def joints(draw):
    """A random joint and a candidate batch for it."""
    e = draw(st.integers(6, 100))
    shared_m = draw(st.one_of(st.none(), st.integers(1, 4)))
    amplitude_rows = draw(st.integers(1, 3))  # 1: every part shares one row
    specs = draw(
        st.lists(
            st.tuples(
                st.sampled_from(KINDS),
                st.integers(1, 12),
                st.integers(1, 4),
                st.integers(0, amplitude_rows - 1),
            ),
            min_size=1,
            max_size=14,
        )
    )
    rows = draw(st.sampled_from([1, 2, 7, 16]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amplitudes = rng.uniform(0.3, 1.0, (amplitude_rows, e))
    parts = [
        # Each part gets its own copy: equal rows must still pack as one.
        _leaf(rng, kind, k, shared_m or m, e, amplitudes[a].copy())
        for kind, k, m, a in specs
    ]
    weights = rng.uniform(0.05, 1.0, len(parts)) * rng.choice([-1.0, 1.0], len(parts))
    joint = JointObjective(list(zip(parts, weights)))
    return joint, rng.uniform(0, 2 * np.pi, (rows, e))


def reference_value(objective, phases):
    """One phase vector's per-part loss: ``total += w_i · v_i`` over each
    part's own ``value``, nested joints included."""
    if type(objective) is JointObjective:
        total = 0.0
        for part, weight in objective.parts:
            total += weight * reference_value(part, phases)
        return total
    return objective.value(phases)


def bits(value):
    return np.asarray(value, dtype=np.float64).tobytes()


@settings(max_examples=150, deadline=None)
@given(case=joints())
def test_pack_equals_per_part_reference(case):
    joint, batch = case
    assert bits(joint.value_many(batch)) == bits(reference_value_many(joint, batch))
    for phases in batch[:2]:
        value = joint.value(phases)
        assert bits(value) == bits(reference_value(joint, phases))
        assert bits(value) == bits(joint.value_and_gradient(phases)[0])


# ----------------------------------------------------------------------
# RandomSearch's reused draws
# ----------------------------------------------------------------------

FULL = 12
DIMS = (8, 13)


def _pool():
    rng = np.random.default_rng(31)
    pool = {}
    for e in DIMS:
        parts = [
            CoverageObjective(_form(rng, k, 2, e), amplitudes=rng.uniform(0.3, 1.0, e))
            for k in (3, 1, 1)
        ]
        joint = JointObjective(list(zip(parts, rng.uniform(0.05, 1.0, 3))))
        pool[e] = (joint, rng.uniform(0, 2 * np.pi, e))
    return pool


POOL = _pool()


def reference_search(optimizer, objective, initial, budget):
    """``RandomSearch.optimize`` with a fresh ``rng.normal`` per iteration."""
    rng = np.random.default_rng(optimizer.seed)
    phases = np.asarray(initial, dtype=float).reshape(-1).copy()
    best_loss = float(objective.value(phases))
    evaluations = 1
    history = [best_loss]
    scale = optimizer.initial_scale
    limit = optimizer._limit(budget)
    stop = _EarlyStop(optimizer.early_stop_eps, optimizer.early_stop_patience)
    for _ in range(limit):
        offsets = rng.normal(scale=scale, size=(optimizer.population, phases.size))
        candidates = phases[None, :] + offsets
        losses = objective.value_many(candidates)
        evaluations += optimizer.population
        previous = best_loss
        j = int(np.argmin(losses))
        if losses[j] < best_loss:
            best_loss, phases = float(losses[j]), candidates[j].copy()
        else:
            scale *= optimizer.decay
        history.append(best_loss)
        if stop.update(previous, best_loss):
            break
    return (
        phases.tobytes(),
        bits(objective.value(phases)),
        bits(history),
        len(history) - 1,
        evaluations + 1,  # the final evaluation
        limit,
        stop.stopped,
    )


def fingerprint(result):
    return (
        result.phases.tobytes(),
        bits(result.loss),
        bits(result.history),
        result.iterations,
        result.evaluations,
        result.budget,
        result.early_stopped,
    )


CALLS = st.lists(
    st.tuples(
        st.sampled_from(DIMS),
        st.one_of(st.none(), st.integers(0, FULL + 3)),
        st.one_of(st.none(), st.integers(0, 5)),  # new seed
        st.one_of(st.none(), st.integers(1, 6)),  # new population
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 5),
    eps=st.one_of(st.none(), st.sampled_from([1e-3, 1e-2, 0.1])),
    calls=CALLS,
)
# A budget larger than the first call's, on one element count.
@example(seed=0, eps=None, calls=[(8, 2, None, None), (8, None, None, None)])
# Two element counts interleaved, early stop on.
@example(seed=1, eps=1e-2, calls=[(8, 5, None, None), (13, None, None, None), (8, None, None, None)])
# Seed and population changed between calls.
@example(seed=2, eps=None, calls=[(13, 4, None, None), (13, 4, 3, None), (13, 6, None, 5)])
def test_reused_draws_equal_per_iteration_draws(seed, eps, calls):
    optimizer = RandomSearch(
        max_iterations=FULL, population=4, seed=seed,
        early_stop_eps=eps, early_stop_patience=2,
    )
    for dim, budget, new_seed, new_population in calls:
        if new_seed is not None:
            optimizer.seed = new_seed
        if new_population is not None:
            optimizer.population = new_population
        objective, initial = POOL[dim]
        got = optimizer.optimize(objective, initial, budget=budget)
        want = reference_search(optimizer, objective, initial, budget)
        assert fingerprint(got) == want
