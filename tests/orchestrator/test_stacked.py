"""Stacked cross-task evaluation must be bit-identical to per-task.

The lockstep multi-task drivers and the :class:`StackedObjective`
batched kernels exist purely for throughput — every loss they produce
must match the serial per-task path bit for bit, or the determinism
contract (same seed → same trajectory at any worker count)
breaks silently.
"""

import numpy as np
import pytest

from repro.channel import LinearChannelForm
from repro.core.errors import OptimizationError
from repro.em import LinkBudget
from repro.orchestrator.objectives import (
    CoverageGoal,
    CoverageObjective,
    JointObjective,
    LocalizationObjective,
    PoweringObjective,
    StackedObjective,
)
from repro.orchestrator.optimizers import RandomSearch, SimulatedAnnealing


def random_form(rng, k=4, m=2, e=6, scale=1e-4):
    coeffs = scale * (
        rng.normal(size=(k, m, e)) + 1j * rng.normal(size=(k, m, e))
    )
    offset = scale * (rng.normal(size=(k, m)) + 1j * rng.normal(size=(k, m)))
    return LinearChannelForm("s", coeffs, offset)


def coverage_part(rng, weighted=False, e=6):
    form = random_form(rng, e=e)
    goal = None
    if weighted:
        goal = CoverageGoal(
            budget=LinkBudget(), weights=rng.uniform(0.1, 1.0, 4)
        )
    return CoverageObjective(
        form, amplitudes=rng.uniform(0.3, 1.0, e), goal=goal
    )


def localization_part(rng, e=6):
    form = random_form(rng, k=3, m=1, e=e)
    predictions = rng.normal(size=(4, 1, e)) + 1j * rng.normal(size=(4, 1, e))
    return LocalizationObjective(
        form, predictions=predictions, true_angle_indices=[0, 1, 2]
    )


@pytest.fixture()
def rng():
    return np.random.default_rng(11)


class TestStackedBitIdentity:
    def test_coverage_stack_matches_per_task(self, rng):
        parts = [coverage_part(rng) for _ in range(4)]
        parts.append(coverage_part(rng, weighted=True))
        stacked = StackedObjective(parts)
        batches = [rng.uniform(0, 2 * np.pi, (7, 6)) for _ in parts]
        got = stacked.value_many_segments(batches)
        for part, batch, values in zip(parts, batches, got):
            assert values.tobytes() == part.value_many(batch).tobytes()

    def test_mixed_kinds_and_fallback_parts(self, rng):
        cov = coverage_part(rng)
        pow_part = PoweringObjective(
            random_form(rng), amplitudes=rng.uniform(0.3, 1.0, 6)
        )
        joint = JointObjective(
            [(coverage_part(rng), 1.0), (PoweringObjective(random_form(rng)), 0.3)]
        )
        loc = localization_part(rng)  # no batched kernel: falls back
        parts = [cov, pow_part, joint, loc]
        stacked = StackedObjective(parts)
        assert stacked.num_parts == 4
        assert stacked.stacked_parts == 3
        batches = [rng.uniform(0, 2 * np.pi, (5, 6)) for _ in parts]
        got = stacked.value_many_segments(batches)
        for part, batch, values in zip(parts, batches, got):
            assert values.tobytes() == part.value_many(batch).tobytes()

    def test_none_batches_skip_tasks(self, rng):
        parts = [coverage_part(rng) for _ in range(3)]
        stacked = StackedObjective(parts)
        batches = [rng.uniform(0, 2 * np.pi, (4, 6)), None,
                   rng.uniform(0, 2 * np.pi, (2, 6))]
        got = stacked.value_many_segments(batches)
        assert got[1] is None
        assert got[0].shape == (4,)
        assert got[2].shape == (2,)

    def test_unequal_row_counts_stay_bit_identical(self, rng):
        parts = [coverage_part(rng) for _ in range(3)]
        stacked = StackedObjective(parts)
        batches = [rng.uniform(0, 2 * np.pi, (p, 6)) for p in (3, 5, 3)]
        got = stacked.value_many_segments(batches)
        for part, batch, values in zip(parts, batches, got):
            assert values.tobytes() == part.value_many(batch).tobytes()

    def test_packed_operand_cache_reused_across_calls(self, rng):
        parts = [coverage_part(rng) for _ in range(3)]
        stacked = StackedObjective(parts)
        batches = [rng.uniform(0, 2 * np.pi, (4, 6)) for _ in parts]
        first = stacked.value_many_segments(batches)
        assert len(stacked._packed) == 1
        second = stacked.value_many_segments(batches)
        assert len(stacked._packed) == 1
        for a, b in zip(first, second):
            assert a.tobytes() == b.tobytes()


class TestStackedValidation:
    def test_scalar_entry_points_raise(self, rng):
        stacked = StackedObjective([coverage_part(rng)])
        phases = np.zeros(6)
        with pytest.raises(OptimizationError):
            stacked.value(phases)
        with pytest.raises(OptimizationError):
            stacked.value_and_gradient(phases)
        with pytest.raises(OptimizationError):
            stacked.value_many(phases[None, :])

    def test_dimension_mismatch_raises(self, rng):
        with pytest.raises(OptimizationError):
            StackedObjective(
                [coverage_part(rng, e=6), coverage_part(rng, e=8)]
            )

    def test_empty_parts_raise(self):
        with pytest.raises(OptimizationError):
            StackedObjective([])

    def test_batch_count_mismatch_raises(self, rng):
        stacked = StackedObjective([coverage_part(rng)])
        with pytest.raises(OptimizationError):
            stacked.value_many_segments([None, None])


class TestLockstepDrivers:
    def _serial_results(self, optimizer_cls, parts, rng, **kw):
        initials = [rng.uniform(0, 2 * np.pi, p.dim) for p in parts]
        serial = optimizer_cls(lockstep=False, **kw)
        serial_results = serial.optimize_many(parts, initials)
        lockstep = optimizer_cls(lockstep=True, **kw)
        lockstep_results = lockstep.optimize_many(parts, initials)
        return serial_results, lockstep_results

    def test_random_search_lockstep_bitwise(self, rng):
        parts = [coverage_part(rng) for _ in range(4)]
        serial, lockstep = self._serial_results(
            RandomSearch, parts, rng, max_iterations=12, seed=3, population=5
        )
        for a, b in zip(serial, lockstep):
            assert a.phases.tobytes() == b.phases.tobytes()
            assert a.loss == b.loss
            assert a.evaluations == b.evaluations
            assert a.iterations == b.iterations

    def test_simulated_annealing_lockstep_bitwise(self, rng):
        # Different dims would break stacking; same dim, varied parts.
        parts = [coverage_part(rng) for _ in range(3)]
        parts.append(localization_part(rng))
        serial, lockstep = self._serial_results(
            SimulatedAnnealing, parts, rng, steps=40, seed=9, speculation=8
        )
        for a, b in zip(serial, lockstep):
            assert a.phases.tobytes() == b.phases.tobytes()
            assert a.loss == b.loss
            assert a.evaluations == b.evaluations

    def test_single_task_falls_back_to_serial(self, rng):
        part = coverage_part(rng)
        initial = rng.uniform(0, 2 * np.pi, part.dim)
        opt = RandomSearch(max_iterations=6, seed=1)
        (many,) = opt.optimize_many([part], [initial])
        one = RandomSearch(max_iterations=6, seed=1).optimize(part, initial)
        assert many.phases.tobytes() == one.phases.tobytes()

    def test_length_mismatch_raises(self, rng):
        opt = RandomSearch(max_iterations=3, seed=0)
        with pytest.raises(OptimizationError):
            opt.optimize_many([coverage_part(rng)], [])
