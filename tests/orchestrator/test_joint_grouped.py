"""Grouped joint evaluation must be bit-identical to a per-part loop.

:meth:`JointObjective.value_many` groups same-shaped coverage/powering
parts into one batched GEMM per group.  Every loss must still equal,
bit for bit, the per-part formulation it replaced: one ``tensordot``
channel evaluation and one pass of loss math per part, accumulated as
``total += w_i · v_i`` in part order.  The reference below re-derives
that formulation in the test, independently of the shared kernels.
"""

import sys
from types import SimpleNamespace

import numpy as np
import pytest

from repro.channel import LinearChannelForm
from repro.core.errors import OptimizationError
from repro.em import LinkBudget
from repro.orchestrator.objectives import (
    CoverageGoal,
    CoverageObjective,
    JointObjective,
    PoweringObjective,
)
from repro.orchestrator.optimizers import RandomSearch
from repro.pipeline import BatchEvaluator, RequestPipeline
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


def chunked_reference(objective, batch, chunk):
    """The reference on the evaluator's fixed chunk grid."""
    return np.concatenate(
        [
            reference_value_many(objective, batch[i : i + chunk])
            for i in range(0, batch.shape[0], chunk)
        ]
    )


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

    The loss math never mixes rows, so this pins the BLAS property the
    16-row default chunk relies on: a GEMM row's bits do not depend on
    how many rows share the call.  A one-row batch is not a GEMM — BLAS
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


class TestEvaluatorRouting:
    @pytest.mark.parametrize("parallelism", [1, 2])
    @pytest.mark.parametrize("rows", [1, 8, 16])
    def test_batch_evaluator_matches_chunked_reference(
        self, rng, parallelism, rows
    ):
        parts = [
            coverage(rng, 12),
            *[coverage(rng, 1) for _ in range(6)],
            security(rng),
            localization(rng),
            powering(rng, 1),
        ]
        joint = JointObjective(list(zip(parts, weights_for(rng, len(parts)))))
        batch = rng.uniform(0, 2 * np.pi, (rows, E))
        with BatchEvaluator(parallelism=parallelism, chunk=8) as evaluator:
            got = evaluator.value_many(joint, batch)
        assert np.array_equal(got, chunked_reference(joint, batch, 8))

    def test_default_pipeline_makes_one_call_per_iteration(self, rng):
        calls = []

        class SpyJoint(JointObjective):
            def value_many(self, phases_batch):
                calls.append(np.shape(phases_batch)[0])
                return super().value_many(phases_batch)

        joint = churn_joint(rng, 3)
        spy = SpyJoint(joint.parts)
        optimizer = RandomSearch(max_iterations=5, seed=0)
        broker = SimpleNamespace(
            orchestrator=SimpleNamespace(optimizer=optimizer), telemetry=None
        )
        pipeline = RequestPipeline(broker)
        try:
            assert optimizer.evaluator is pipeline.evaluator
            result = optimizer.optimize(spy, rng.uniform(0, 2 * np.pi, E))
        finally:
            pipeline.close()
        assert result.iterations == 5
        assert calls == [optimizer.population] * 5

    def test_fresh_objectives_pack_safely_under_threads(self, rng):
        # Workers race to build a fresh objective's packed operands on
        # their first chunks; whichever pack is kept must give the same
        # bits.  More workers than cores and a short switch interval
        # make the race likely.
        batch = rng.uniform(0, 2 * np.pi, (64, E))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with BatchEvaluator(parallelism=8, chunk=8) as evaluator:
                for _ in range(10):
                    joint = churn_joint(rng, 12)
                    got = evaluator.value_many(joint, batch)
                    assert np.array_equal(got, chunked_reference(joint, batch, 8))
        finally:
            sys.setswitchinterval(interval)


class TestReusedBuffers:
    """RandomSearch refills one candidate buffer per solve, and a batch of
    at most one chunk goes to the objective without a split."""

    @staticmethod
    def bound_search(parallelism=1, population=16, chunk=16):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        evaluator = BatchEvaluator(parallelism=parallelism, chunk=chunk)
        evaluator.bind_telemetry(telemetry)
        optimizer = RandomSearch(max_iterations=8, population=population, seed=3)
        optimizer.bind_telemetry(telemetry)
        optimizer.bind_evaluator(evaluator)
        return optimizer

    def test_later_solve_leaves_earlier_phases(self, rng):
        optimizer = self.bound_search()
        first_joint, second_joint = churn_joint(rng, 3), churn_joint(rng, 6)
        first = optimizer.optimize(first_joint, rng.uniform(0, 2 * np.pi, E))
        assert first.history[-1] < first.history[0]  # the incumbent moved
        kept = first.phases.tobytes()
        optimizer.optimize(second_joint, rng.uniform(0, 2 * np.pi, E))
        optimizer.optimize(first_joint, rng.uniform(0, 2 * np.pi, E))
        assert first.phases.tobytes() == kept
        assert first.loss == first_joint.value(first.phases)

    @pytest.mark.parametrize("population, chunk, chunks", [(16, 16, 1), (20, 16, 2), (16, 8, 2)])
    def test_counts_keep_their_totals(self, rng, population, chunk, chunks):
        optimizer = self.bound_search(population=population, chunk=chunk)
        result = optimizer.optimize(churn_joint(rng, 3), rng.uniform(0, 2 * np.pi, E))
        evaluator, telemetry = optimizer.evaluator, optimizer.telemetry
        assert result.iterations == 8
        assert result.evaluations == 1 + 8 * population + 1
        assert telemetry.get_counter("optimizer.objective_evaluations") == result.evaluations
        assert evaluator.batches == telemetry.get_counter("evaluator.batches") == 8
        assert evaluator.chunks_evaluated == telemetry.get_counter("evaluator.chunks") == 8 * chunks

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_one_chunk_path_equals_chunked_path(self, rng, parallelism):
        joint = churn_joint(rng, 6)
        batch = rng.uniform(0, 2 * np.pi, (16, E))
        with BatchEvaluator(parallelism=parallelism, chunk=16) as evaluator:
            straight = evaluator.value_many(joint, batch)  # one chunk
            chunked = evaluator.value_many(joint, np.concatenate([batch, batch[::-1]]))
            assert evaluator.chunks_evaluated == 1 + 2
        assert straight.tobytes() == chunked[:16].tobytes()
        assert straight[::-1].tobytes() == chunked[16:].tobytes()
        assert straight.tobytes() == joint.value_many(batch).tobytes()


class TestGradientFreeValue:
    @pytest.mark.parametrize(
        "build",
        [
            lambda rng: coverage(rng, 12),
            lambda rng: coverage(rng, 1, weighted=True),
            lambda rng: powering(rng, 4),
            localization,
            security,
            lambda rng: churn_joint(rng, 4),
            lambda rng: JointObjective(
                [(security(rng), 0.5), (localization(rng), 0.2), (powering(rng, 2), 0.3)]
            ),
        ],
    )
    def test_value_equals_value_and_gradient(self, rng, build):
        objective = build(rng)
        for _ in range(3):
            phases = rng.uniform(0, 2 * np.pi, E)
            value = objective.value(phases)
            reference = objective.value_and_gradient(phases)[0]
            assert np.float64(value).tobytes() == np.float64(reference).tobytes()
