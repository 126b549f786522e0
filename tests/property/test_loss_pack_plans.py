"""Properties of the loss pack's per-row-count plans.

A pack keeps one plan of buffers per batch row count and fills it in
place on every call.  On random joints and lone objectives, with
amplitude rows of ones and of other values, calls at interleaved row
counts must each equal the per-part reference bit for bit, and a
returned array must not change under later calls.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.orchestrator.objectives import JointObjective

from ..orchestrator.test_joint_grouped import (
    reference_value_and_gradient,
    reference_value_many,
)
from .test_joint_pack_properties import KINDS, _leaf, bits

ROWS = [1, 2, 7, 16, 33]


@st.composite
def objectives(draw):
    """A random joint, or a lone coverage/powering objective."""
    e = draw(st.integers(6, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Each amplitude row is all ones (a phase-only panel) or not.
    ones = draw(st.lists(st.booleans(), min_size=1, max_size=3))
    amplitudes = [np.ones(e) if one else rng.uniform(0.3, 1.0, e) for one in ones]
    if draw(st.booleans()):
        kind = draw(st.sampled_from(["coverage", "weighted", "powering"]))
        return _leaf(rng, kind, draw(st.integers(1, 12)), draw(st.integers(1, 4)), e, amplitudes[0])
    specs = draw(
        st.lists(
            st.tuples(
                st.sampled_from(KINDS),
                st.integers(1, 12),
                st.integers(1, 4),
                st.integers(0, len(amplitudes) - 1),
            ),
            min_size=1,
            max_size=10,
        )
    )
    parts = [_leaf(rng, kind, k, m, e, amplitudes[a].copy()) for kind, k, m, a in specs]
    weights = rng.uniform(0.05, 1.0, len(parts)) * rng.choice([-1.0, 1.0], len(parts))
    return JointObjective(list(zip(parts, weights)))


def _batches(objective, rows, seed):
    rng = np.random.default_rng(seed)
    return [rng.uniform(0, 2 * np.pi, (p, objective.dim)) for p in rows]


@settings(max_examples=80, deadline=None)
@given(
    objective=objectives(),
    rows=st.lists(st.sampled_from(ROWS), min_size=2, max_size=6),
    seed=st.integers(0, 2**16),
)
def test_interleaved_row_counts_equal_reference(objective, rows, seed):
    # Every row count comes round twice, so each plan is reused.
    batches = _batches(objective, rows + rows[::-1], seed)
    kept = []
    for batch in batches:
        got = objective.value_many(batch)
        assert bits(got) == bits(reference_value_many(objective, batch))
        kept.append((got, bits(got)))
        # The one-row plan is shared with ``value``.
        value = objective.value(batch[0])
        assert bits(value) == bits(reference_value_and_gradient(objective, batch[0])[0])
    for got, snapshot in kept:
        assert bits(got) == snapshot
