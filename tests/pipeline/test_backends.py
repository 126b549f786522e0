"""Candidate evaluation: serial and threaded — one bit pattern.

The determinism contract behind ``bind_evaluator``: for a fixed chunk
size, every worker count produces byte-identical results, because the
chunk grid depends only on the chunk config and results are gathered
in submission order.  The matrix below pins that across parallelism ×
chunk for plain and joint objectives.
"""

import numpy as np
import pytest

from repro.channel import LinearChannelForm
from repro.orchestrator.objectives import CoverageObjective, JointObjective
from repro.pipeline import BatchEvaluator


def _parts(num=3, e=12):
    rng = np.random.default_rng(21)
    parts = []
    for _ in range(num):
        coeffs = 1e-4 * (
            rng.normal(size=(4, 2, e)) + 1j * rng.normal(size=(4, 2, e))
        )
        offset = 1e-4 * (
            rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        )
        parts.append(
            CoverageObjective(
                LinearChannelForm("s", coeffs, offset),
                amplitudes=rng.uniform(0.3, 1.0, e),
            )
        )
    return parts


PARALLELISMS = [1, 2, 4]


@pytest.mark.parametrize("chunk", [3, 8])
def test_value_many_matrix_bit_identical(chunk):
    """Every parallelism at one chunk — one byte pattern."""
    (part,) = _parts(num=1)
    rng = np.random.default_rng(3)
    batch = rng.uniform(0, 2 * np.pi, (13, part.dim))
    with BatchEvaluator(parallelism=1, chunk=chunk) as serial:
        want = serial.value_many(part, batch).tobytes()
    for parallelism in PARALLELISMS:
        with BatchEvaluator(parallelism=parallelism, chunk=chunk) as ev:
            got = ev.value_many(part, batch).tobytes()
        assert got == want, (parallelism, chunk)


@pytest.mark.parametrize("chunk", [3, 8])
def test_joint_value_many_matrix_bit_identical(chunk):
    """A grouped joint objective: one byte pattern at every parallelism."""
    parts = _parts(num=3)
    joint = JointObjective(list(zip(parts, (1.0, 0.5, 0.25))))
    rng = np.random.default_rng(5)
    batch = rng.uniform(0, 2 * np.pi, (13, joint.dim))
    with BatchEvaluator(parallelism=1, chunk=chunk) as serial:
        want = serial.value_many(joint, batch).tobytes()
    for parallelism in PARALLELISMS:
        with BatchEvaluator(parallelism=parallelism, chunk=chunk) as ev:
            got = ev.value_many(joint, batch).tobytes()
        assert got == want, (parallelism, chunk)


def test_full_chunk_equals_unchunked_direct():
    """chunk >= rows: the evaluator path equals direct value_many."""
    (part,) = _parts(num=1)
    rng = np.random.default_rng(8)
    batch = rng.uniform(0, 2 * np.pi, (6, part.dim))
    direct = part.value_many(batch).tobytes()
    with BatchEvaluator(parallelism=2, chunk=8) as ev:
        got = ev.value_many(part, batch).tobytes()
    assert got == direct
