"""BatchEvaluator: worker-pool evaluation must be bit-identical to serial."""

import numpy as np
import pytest

from repro.pipeline import BatchEvaluator


class SummingObjective:
    """A nonlinear reduction where operand order matters in floats."""

    def value_many(self, batch):
        batch = np.atleast_2d(batch)
        return np.sin(batch).sum(axis=1) + np.cumsum(
            batch * 1e-8, axis=1
        )[:, -1]


@pytest.mark.parametrize("rows", [1, 3, 8, 17, 64])
def test_parallel_bit_identical_to_serial(rows):
    rng = np.random.default_rng(42)
    batch = rng.normal(size=(rows, 24))
    objective = SummingObjective()
    serial = BatchEvaluator(parallelism=1, chunk=8)
    with BatchEvaluator(parallelism=4, chunk=8) as parallel:
        a = serial.value_many(objective, batch)
        b = parallel.value_many(objective, batch)
    # Bit-identical, not approximately equal: the chunk grid depends
    # only on the chunk size, so no float ever sums across a worker
    # boundary.
    assert a.tobytes() == b.tobytes()


def test_chunk_grid_independent_of_parallelism():
    rng = np.random.default_rng(0)
    batch = rng.normal(size=(20, 4))
    objective = SummingObjective()
    results = []
    for workers in (1, 2, 3, 8):
        with BatchEvaluator(parallelism=workers, chunk=6) as ev:
            results.append(ev.value_many(objective, batch).tobytes())
    assert len(set(results)) == 1


def test_counters_and_shapes():
    ev = BatchEvaluator(parallelism=1, chunk=4)
    out = ev.value_many(SummingObjective(), np.zeros((10, 3)))
    assert out.shape == (10,)
    assert ev.batches == 1
    assert ev.chunks_evaluated == 3  # 4 + 4 + 2

    single = ev.value_many(SummingObjective(), np.zeros((1, 3)))
    assert single.shape == (1,)


def test_invalid_construction():
    with pytest.raises(ValueError):
        BatchEvaluator(parallelism=0)
    with pytest.raises(ValueError):
        BatchEvaluator(chunk=0)


def test_close_is_idempotent():
    ev = BatchEvaluator(parallelism=2, chunk=2)
    ev.value_many(SummingObjective(), np.zeros((8, 2)))
    ev.close()
    ev.close()


def test_close_is_terminal():
    # Regression: a closed evaluator silently fell back to serial
    # evaluation instead of failing loudly; now any use after close()
    # is an error.
    ev = BatchEvaluator(parallelism=2, chunk=2)
    ev.close()
    with pytest.raises(RuntimeError):
        ev.value_many(SummingObjective(), np.zeros((4, 2)))


def test_pipeline_close_unbinds_evaluator():
    from .conftest import build_kernel

    system = build_kernel(clients=1)
    pipeline = system.attach_pipeline()
    optimizer = system.orchestrator.optimizer
    assert optimizer.evaluator is pipeline.evaluator
    pipeline.close()
    # The optimizer must not keep a closed evaluator bound — the next
    # direct reoptimize() would hit the terminal-close error.
    assert optimizer.evaluator is None


def test_telemetry_counters_and_gauges():
    from repro.telemetry import Telemetry

    telemetry = Telemetry()
    ev = BatchEvaluator(parallelism=3, chunk=4)
    ev.bind_telemetry(telemetry)
    ev.value_many(SummingObjective(), np.zeros((10, 3)))
    snapshot = telemetry.snapshot()
    assert snapshot.counters["evaluator.batches"] == 1
    assert snapshot.counters["evaluator.chunks"] == 3
    assert snapshot.gauges["evaluator.parallelism"] == 3
    ev.close()
