"""Grouped joint evaluation must be bit-identical to a per-part loop.

:meth:`JointObjective.value_many` groups same-shaped coverage/powering
parts into one batched GEMM per group.  Every loss must still equal,
bit for bit, the per-part formulation it replaced: one ``tensordot``
channel evaluation and one pass of loss math per part, accumulated as
``total += w_i · v_i`` in part order.  ``value_and_gradient`` takes one
Wirtinger accumulation per group, and must equal each part's own
forward and ``einsum("km,kme->e")`` backward pass, accumulated as
``grad += w_i · g_i``.  The references below re-derive both
formulations in the test, independently of the shared kernels.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.channel import LinearChannelForm
from repro.core.errors import OptimizationError
from repro.em import LinkBudget
from repro.orchestrator import objectives
from repro.orchestrator.objectives import (
    CoverageGoal,
    CoverageObjective,
    JointObjective,
    PoweringObjective,
)
from repro.orchestrator.optimizers import RandomSearch, SimulatedAnnealing
from repro.services.security import security_objective
from repro.services.sensing import SurfaceAoAObjective

# The admit-churn joint group's shapes: a 64-element panel, a 4-antenna
# AP, one 12-point coverage part and K=1 link parts.
E = 64
M = 4


def random_form(rng, k, m=M, e=E, scale=1e-4):
    coeffs = scale * (
        rng.normal(size=(k, m, e)) + 1j * rng.normal(size=(k, m, e))
    )
    offset = scale * (rng.normal(size=(k, m)) + 1j * rng.normal(size=(k, m)))
    return LinearChannelForm("s", coeffs, offset)


def coverage(rng, k, weighted=False):
    goal = None
    if weighted:
        goal = CoverageGoal(budget=LinkBudget(), weights=rng.uniform(0.1, 1.0, k))
    return CoverageObjective(
        random_form(rng, k), amplitudes=rng.uniform(0.3, 1.0, E), goal=goal
    )


def powering(rng, k):
    return PoweringObjective(
        random_form(rng, k), amplitudes=rng.uniform(0.3, 1.0, E)
    )


def localization(rng, k=3, angles=5):
    # The AoA loss reads only the estimator's steering hypotheses.
    steering = rng.normal(size=(angles, E)) + 1j * rng.normal(size=(angles, E))
    wavefronts = rng.normal(size=(k, E)) + 1j * rng.normal(size=(k, E))
    return SurfaceAoAObjective(
        wavefronts,
        SimpleNamespace(steering=steering),
        rng.integers(0, angles, k),
        amplitudes=rng.uniform(0.3, 1.0, E),
    )


def security(rng):
    return security_objective(
        random_form(rng, 3),
        legit_indices=[0],
        eavesdropper_indices=[2],
        amplitudes=rng.uniform(0.3, 1.0, E),
        nulling_weight=0.4,
    )


# ----------------------------------------------------------------------
# the per-part reference loop
# ----------------------------------------------------------------------


def reference_value_many(objective, batch):
    """Per-part losses of ``batch``, one ``tensordot`` pass per part."""
    if type(objective) is JointObjective:
        total = np.zeros(batch.shape[0])
        for part, weight in objective.parts:
            total += weight * reference_value_many(part, batch)
        return total
    if type(objective) is CoverageObjective:
        budget = objective.goal.budget
        x = objective.amplitudes[None, :] * np.exp(1j * batch)
        h = objective.form.evaluate_many(x)
        power = np.sum(np.abs(h) ** 2, axis=2)
        snr = budget.tx_power_watts * power / budget.noise_watts
        return -np.sum(objective._weights[None, :] * np.log2(1.0 + snr), axis=1)
    if type(objective) is PoweringObjective:
        x = objective.amplitudes[None, :] * np.exp(1j * batch)
        h = objective.form.evaluate_many(x)
        power = np.sum(np.abs(h) ** 2, axis=2)
        return -10.0 * np.log10(np.mean(power, axis=1) + 1e-30)
    return np.asarray(objective.value_many(batch))


def reference_value_and_gradient(objective, phases):
    """One phase vector's per-part loss and gradient.

    Each kernel part runs its own ``form.evaluate`` forward pass and
    ``einsum("km,kme->e")`` backward pass; a joint adds its parts'
    results as ``total += w_i · v_i`` and ``grad += w_i · g_i``.
    """
    if type(objective) is JointObjective:
        total, grad = 0.0, np.zeros(objective.dim)
        for part, weight in objective.parts:
            value, g = reference_value_and_gradient(part, phases)
            total += weight * value
            grad += weight * g
        return total, grad
    if type(objective) not in (CoverageObjective, PoweringObjective):
        return objective.value_and_gradient(phases)
    x = objective.amplitudes * np.exp(1j * phases)
    h = objective.form.evaluate(x)  # (K, M)
    power = np.sum(np.abs(h) ** 2, axis=1)  # ‖h_k‖²
    if type(objective) is CoverageObjective:
        budget = objective.goal.budget
        snr = budget.tx_power_watts * power / budget.noise_watts
        loss = -float(np.sum(objective._weights * np.log2(1.0 + snr)))
        dloss_dpower = -(
            objective._weights
            * (budget.tx_power_watts / budget.noise_watts)
            / ((1.0 + snr) * math.log(2.0))
        )[:, None]
    else:
        mean_power = float(np.mean(power)) + 1e-30
        loss = -10.0 * math.log10(mean_power)
        k = objective.form.num_points
        dloss_dpower = -10.0 / (math.log(10.0) * mean_power * k)
    # ∂P_k/∂h_km (Wirtinger) = conj(h_km); accumulate through C.
    acc = np.einsum("km,kme->e", dloss_dpower * np.conj(h), objective.form.coeffs)
    return loss, -2.0 * np.imag(x * acc)


def refit_to_new_forms(objective, rng):
    """Refit every kernel part, nested ones too, to a fresh form of its shape."""
    if type(objective) is JointObjective:
        return objective.refit(
            [refit_to_new_forms(part, rng) for part, _ in objective.parts]
        )
    if type(objective) in (CoverageObjective, PoweringObjective):
        k, m, e = objective.form.coeffs.shape
        return objective.refit(random_form(rng, k, m, e))
    return objective


def assert_same_bits(got, want):
    (value, grad), (want_value, want_grad) = got, want
    assert np.float64(value).tobytes() == np.float64(want_value).tobytes()
    assert grad.tobytes() == want_grad.tobytes()


def weights_for(rng, n):
    return rng.uniform(0.05, 1.0, n)


def churn_joint(rng, links, k_links=1):
    """One 12-point coverage part plus ``links`` link parts."""
    parts = [coverage(rng, 12)] + [coverage(rng, k_links) for _ in range(links)]
    return JointObjective(list(zip(parts, weights_for(rng, len(parts)))))


def security_joint(rng):
    """A link part beside a nested security joint (itself two parts)."""
    parts = [coverage(rng, 1), security(rng), coverage(rng, 1)]
    return JointObjective(list(zip(parts, weights_for(rng, len(parts)))))


def localization_joint(rng):
    """Grouped coverage parts beside a loose localization part."""
    parts = [coverage(rng, 12), localization(rng), coverage(rng, 1)]
    return JointObjective(list(zip(parts, weights_for(rng, len(parts)))))


@pytest.fixture()
def rng():
    return np.random.default_rng(2024)


class TestGroupedBitIdentity:
    @pytest.mark.parametrize("links", range(13))
    @pytest.mark.parametrize("rows", [1, 8, 16])
    def test_coverage_plus_links(self, rng, links, rows):
        joint = churn_joint(rng, links)
        batch = rng.uniform(0, 2 * np.pi, (rows, E))
        assert np.array_equal(
            joint.value_many(batch), reference_value_many(joint, batch)
        )

    @pytest.mark.parametrize("rows", [1, 8, 16])
    def test_powering_parts_group_apart_from_coverage(self, rng, rows):
        parts = [
            powering(rng, 4),
            coverage(rng, 4, weighted=True),
            powering(rng, 4),
            powering(rng, 1),
            coverage(rng, 4),
        ]
        joint = JointObjective(list(zip(parts, weights_for(rng, len(parts)))))
        batch = rng.uniform(0, 2 * np.pi, (rows, E))
        assert np.array_equal(
            joint.value_many(batch), reference_value_many(joint, batch)
        )

    @pytest.mark.parametrize("rows", [1, 8, 16])
    def test_nested_security_and_localization_evaluate_loose(self, rng, rows):
        parts = [
            coverage(rng, 12),
            security(rng),
            coverage(rng, 1),
            localization(rng),
            powering(rng, 2),
            coverage(rng, 1, weighted=True),
        ]
        joint = JointObjective(list(zip(parts, weights_for(rng, len(parts)))))
        batch = rng.uniform(0, 2 * np.pi, (rows, E))
        assert np.array_equal(
            joint.value_many(batch), reference_value_many(joint, batch)
        )

    @pytest.mark.parametrize("rows", [1, 8, 16])
    def test_lone_objectives_match_reference(self, rng, rows):
        batch = rng.uniform(0, 2 * np.pi, (rows, E))
        for objective in (
            coverage(rng, 12),
            coverage(rng, 1, weighted=True),
            powering(rng, 3),
            security(rng),
        ):
            assert np.array_equal(
                objective.value_many(batch),
                reference_value_many(objective, batch),
            )

    @pytest.mark.parametrize("rows", [1, 8])
    def test_tasks_with_own_batches_match_reference(self, rng, rows):
        # Co-scheduled tasks are solved one at a time, each feeding its
        # own candidate batch to its own kernel pack.
        parts = [coverage(rng, 1) for _ in range(3)] + [
            powering(rng, 2),
            churn_joint(rng, 2),
        ]
        batches = [rng.uniform(0, 2 * np.pi, (rows, E)) for _ in parts]
        for part, batch in zip(parts, batches):
            assert np.array_equal(
                part.value_many(batch), reference_value_many(part, batch)
            )

    def test_lone_objective_reuses_one_pack(self, rng):
        for objective in (coverage(rng, 4), powering(rng, 3)):
            batch = rng.uniform(0, 2 * np.pi, (4, E))
            assert objective._pack is None
            first = objective.value_many(batch)
            packed = objective._pack
            assert packed is not None
            second = objective.value_many(batch)
            assert objective._pack is packed
            assert first.tobytes() == second.tobytes()

    def test_value_many_rejects_wrong_width(self, rng):
        batch = rng.uniform(0, 2 * np.pi, (4, E - 1))
        for objective in (coverage(rng, 4), powering(rng, 3), churn_joint(rng, 2)):
            with pytest.raises(OptimizationError):
                objective.value_many(batch)

    def test_repeat_calls_reuse_one_pack(self, rng):
        joint = churn_joint(rng, 5)
        batch = rng.uniform(0, 2 * np.pi, (8, E))
        first = joint.value_many(batch)
        pack = joint._pack
        assert joint.value_many(batch).tobytes() == first.tobytes()
        assert joint._pack is pack
        assert pack.loose == []
        # Rows are already in part order, so a group's rows are its parts.
        assert pack.order is None
        assert [
            list(range(group.row, group.row + group.size)) for group in pack.groups
        ] == [[0], [1, 2, 3, 4, 5]]


class TestRowStability:
    """One 16-row pass equals its multi-row splits, row for row.

    The loss math never mixes rows, so this pins the BLAS property that
    makes a row's loss independent of its batch: a GEMM row's bits do
    not depend on how many rows share the call.  A one-row batch is not a GEMM — BLAS
    takes its matrix-vector path, which rounds differently — so it is
    checked against the per-part reference (same path) instead.
    """

    @pytest.mark.parametrize(
        "build",
        [
            lambda rng: coverage(rng, 12),
            lambda rng: powering(rng, 4),
            lambda rng: churn_joint(rng, 12),
            security_joint,
            localization_joint,
        ],
        ids=["coverage", "powering", "coverage+12links", "security", "localization"],
    )
    @pytest.mark.parametrize("sizes", [(8, 8), (2,) * 8, (5, 11)])
    def test_sixteen_rows_equal_smaller_splits(self, rng, build, sizes):
        objective = build(rng)
        batch = rng.uniform(0, 2 * np.pi, (16, E))
        bounds = np.cumsum((0,) + sizes)
        split = np.concatenate(
            [
                objective.value_many(batch[start:stop])
                for start, stop in zip(bounds[:-1], bounds[1:])
            ]
        )
        assert np.array_equal(objective.value_many(batch), split)


class TestAmplitudePacking:
    """A group packs one amplitude row when its parts share amplitudes."""

    @staticmethod
    def amplitude_shapes(joint):
        pack = joint._pack
        return [pack.amplitudes[group.amplitudes].shape for group in pack.groups]

    @pytest.mark.parametrize("rows", [1, 8, 16])
    def test_equal_amplitudes_collapse_to_one_row(self, rng, rows):
        # Every part on a panel gets the panel's amplitudes; equal
        # copies (not one shared array) must still collapse.
        amps = rng.uniform(0.3, 1.0, E)
        parts = [
            CoverageObjective(random_form(rng, k), amplitudes=amps.copy())
            for k in [12] + [1] * 12
        ] + [
            PoweringObjective(random_form(rng, 2), amplitudes=amps.copy())
            for _ in range(2)
        ]
        joint = JointObjective(list(zip(parts, weights_for(rng, len(parts)))))
        batch = rng.uniform(0, 2 * np.pi, (rows, E))
        assert np.array_equal(
            joint.value_many(batch), reference_value_many(joint, batch)
        )
        assert self.amplitude_shapes(joint) == [(1, E), (1, E), (1, E)]

    @pytest.mark.parametrize("rows", [1, 8, 16])
    def test_unequal_amplitudes_keep_one_row_per_part(self, rng, rows):
        amps = rng.uniform(0.3, 1.0, E)
        odd = amps.copy()
        odd[7] *= 0.5
        parts = [
            CoverageObjective(random_form(rng, 1), amplitudes=a)
            for a in (amps, amps, odd, amps)
        ]
        joint = JointObjective(list(zip(parts, weights_for(rng, len(parts)))))
        batch = rng.uniform(0, 2 * np.pi, (rows, E))
        assert np.array_equal(
            joint.value_many(batch), reference_value_many(joint, batch)
        )
        assert self.amplitude_shapes(joint) == [(4, E)]

    def test_lone_tasks_with_shared_amplitudes(self, rng):
        amps = rng.uniform(0.3, 1.0, E)
        parts = [
            CoverageObjective(random_form(rng, 1), amplitudes=amps)
            for _ in range(3)
        ]
        batches = [rng.uniform(0, 2 * np.pi, (8, E)) for _ in parts]
        for part, batch in zip(parts, batches):
            assert np.array_equal(
                part.value_many(batch), reference_value_many(part, batch)
            )
        assert [part._pack.amplitudes.shape for part in parts] == [(1, E)] * 3


class TestOneCallPerIteration:
    def test_random_search_makes_one_call_per_iteration(self, rng):
        calls = []

        class SpyJoint(JointObjective):
            def value_many(self, phases_batch):
                calls.append(np.shape(phases_batch)[0])
                return super().value_many(phases_batch)

        joint = churn_joint(rng, 3)
        spy = SpyJoint(joint.parts)
        optimizer = RandomSearch(max_iterations=5, seed=0)
        result = optimizer.optimize(spy, rng.uniform(0, 2 * np.pi, E))
        assert result.iterations == 5
        assert calls == [optimizer.population] * 5

    @pytest.mark.parametrize("population", [1, 5, 16, 17, 32, 64])
    def test_random_search_sends_its_whole_population(self, rng, population):
        # No batch is split, however wide the population.
        calls = []

        class SpyJoint(JointObjective):
            def value_many(self, phases_batch):
                calls.append(np.shape(phases_batch)[0])
                return super().value_many(phases_batch)

        spy = SpyJoint(churn_joint(rng, 2).parts)
        optimizer = RandomSearch(max_iterations=3, population=population, seed=4)
        result = optimizer.optimize(spy, rng.uniform(0, 2 * np.pi, E))
        assert calls == [population] * 3
        assert result.evaluations == 1 + 3 * population + 1

    @pytest.mark.parametrize("speculation", [1, 3, 8, 16])
    def test_annealing_sends_whole_blocks(self, rng, speculation):
        calls = []

        class SpyJoint(JointObjective):
            def value_many(self, phases_batch):
                calls.append(np.shape(phases_batch)[0])
                return super().value_many(phases_batch)

        spy = SpyJoint(churn_joint(rng, 2).parts)
        optimizer = SimulatedAnnealing(steps=20, speculation=speculation, seed=6)
        result = optimizer.optimize(spy, rng.uniform(0, 2 * np.pi, E))
        assert result.iterations == 20
        assert calls[0] == min(speculation, 20)
        assert max(calls) <= speculation
        assert result.evaluations == 1 + sum(calls) + 1


class TestLossPackPlans:
    """A pack keeps one plan per batch row count and refills it."""

    @pytest.mark.parametrize(
        "build",
        [lambda rng: coverage(rng, 12), lambda rng: churn_joint(rng, 4)],
        ids=["coverage", "joint"],
    )
    @pytest.mark.parametrize("rows", [1, 2, 7, 16, 33])
    def test_one_plan_per_row_count(self, rng, build, rows):
        objective = build(rng)
        batch = rng.uniform(0, 2 * np.pi, (rows, E))
        first = objective.value_many(batch)
        plans = dict(objective._pack._plans)
        second = objective.value_many(batch)
        assert list(plans) == [rows]
        assert objective._pack._plans == plans
        assert objective._pack._plans[rows] is plans[rows]
        assert first.tobytes() == second.tobytes()

    def test_scalar_value_shares_the_one_row_plan(self, rng):
        joint = churn_joint(rng, 4)
        phases = rng.uniform(0, 2 * np.pi, E)
        joint.value(phases)
        plan = joint._pack._plans[1]
        joint.value_many(phases[None])
        joint.value(phases)
        assert list(joint._pack._plans) == [1]
        assert joint._pack._plans[1] is plan


class TestReusedBuffers:
    """RandomSearch refills one candidate buffer per solve."""

    @staticmethod
    def search(population=16):
        from repro.telemetry import Telemetry

        optimizer = RandomSearch(max_iterations=8, population=population, seed=3)
        optimizer.bind_telemetry(Telemetry())
        return optimizer

    def test_later_solve_leaves_earlier_phases(self, rng):
        optimizer = self.search()
        first_joint, second_joint = churn_joint(rng, 3), churn_joint(rng, 6)
        first = optimizer.optimize(first_joint, rng.uniform(0, 2 * np.pi, E))
        assert first.history[-1] < first.history[0]  # the incumbent moved
        kept = first.phases.tobytes()
        optimizer.optimize(second_joint, rng.uniform(0, 2 * np.pi, E))
        optimizer.optimize(first_joint, rng.uniform(0, 2 * np.pi, E))
        assert first.phases.tobytes() == kept
        assert first.loss == first_joint.value(first.phases)

    @pytest.mark.parametrize("population", [1, 8, 16, 20, 33])
    def test_counts_keep_their_totals(self, rng, population):
        optimizer = self.search(population=population)
        result = optimizer.optimize(churn_joint(rng, 3), rng.uniform(0, 2 * np.pi, E))
        assert result.iterations == 8
        assert result.evaluations == 1 + 8 * population + 1
        assert optimizer.telemetry.get_counter("optimizer.objective_evaluations") == (
            result.evaluations
        )


BUILDS = [
    lambda rng: coverage(rng, 12),
    lambda rng: coverage(rng, 1, weighted=True),
    lambda rng: powering(rng, 4),
    localization,
    security,
    lambda rng: churn_joint(rng, 4),
    lambda rng: JointObjective(
        [(security(rng), 0.5), (localization(rng), 0.2), (powering(rng, 2), 0.3)]
    ),
]
BUILD_IDS = [
    "coverage", "weighted-link", "powering", "localization", "security",
    "coverage+4links", "security+localization+powering",
]


class TestGradientFreeValue:
    @pytest.mark.parametrize("build", BUILDS)
    def test_value_equals_value_and_gradient(self, rng, build):
        objective = build(rng)
        for _ in range(3):
            phases = rng.uniform(0, 2 * np.pi, E)
            value = objective.value(phases)
            reference = objective.value_and_gradient(phases)[0]
            assert np.float64(value).tobytes() == np.float64(reference).tobytes()

    def test_a_lone_objective_scores_repeated_phases_in_one_pass(self, rng, monkeypatch):
        passes = []
        run = objectives._LossPack._pass

        def counted(pack, *args):
            passes.append(pack)
            return run(pack, *args)

        monkeypatch.setattr(objectives._LossPack, "_pass", counted)
        for objective in (coverage(rng, 12), powering(rng, 3)):
            phases = rng.uniform(0, 2 * np.pi, E)
            first = objective.value(phases)
            assert objective.value(phases.copy()) == first
            assert passes == [objective._pack]
            passes.clear()


class TestGradientBitIdentity:
    """``value_and_gradient`` equals the per-part reference bit for bit."""

    @pytest.mark.parametrize("build", BUILDS, ids=BUILD_IDS)
    def test_value_and_gradient_equal_the_per_part_reference(self, rng, build):
        objective = build(rng)
        for _ in range(3):
            phases = rng.uniform(0, 2 * np.pi, E)
            assert_same_bits(
                objective.value_and_gradient(phases),
                reference_value_and_gradient(objective, phases),
            )

    @pytest.mark.parametrize("build", BUILDS, ids=BUILD_IDS)
    def test_refitted_gradient_equals_the_per_part_reference(self, rng, build):
        objective = build(rng)
        phases = rng.uniform(0, 2 * np.pi, E)
        objective.value_and_gradient(phases)  # build the pack and its gradient buffers
        for _ in range(2):
            objective = refit_to_new_forms(objective, rng)
            assert_same_bits(
                objective.value_and_gradient(phases),
                reference_value_and_gradient(objective, phases),
            )

    @pytest.mark.parametrize("links", range(13))
    def test_churn_joint_gradient_equals_the_per_part_reference(self, rng, links):
        joint = churn_joint(rng, links)
        for _ in range(2):
            phases = rng.uniform(0, 2 * np.pi, E)
            assert_same_bits(
                joint.value_and_gradient(phases),
                reference_value_and_gradient(joint, phases),
            )
