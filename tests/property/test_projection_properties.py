"""The optimizer's array projection is the configuration projection, bit for bit.

``panel_projection`` and ``SurfacePanel.feasible`` share
``SurfacePanel.feasible_phases``.  Both must equal the configuration
chain the hardware semantics are defined by: build a configuration
(which wraps), tie it to the granularity, then quantize it.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import Granularity, SurfaceConfiguration
from repro.geometry import vec3
from repro.orchestrator.optimizers import panel_projection
from repro.surfaces import GENERIC_PROGRAMMABLE_28, SurfacePanel


def _panel(rows, cols, granularity, bits):
    spec = dataclasses.replace(
        GENERIC_PROGRAMMABLE_28, granularity=granularity, phase_bits=bits
    )
    return SurfacePanel("p", spec, rows, cols, vec3(0, 0, 1.5), vec3(0, -1, 0))


def _reference(config, granularity, bits):
    out = config
    if granularity is not Granularity.ELEMENT:
        out = out.tied(granularity)
    if bits is not None:
        out = out.quantized(bits)
    return out.flat_phases()


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.sampled_from(list(Granularity)),
    st.sampled_from([None, 1, 2, 3]),
    st.data(),
)
def test_array_projection_equals_the_configuration_projection(
    rows, cols, granularity, bits, data
):
    raw = data.draw(
        arrays(np.float64, rows * cols, elements=st.floats(-40.0, 40.0))
    )
    panel = _panel(rows, cols, granularity, bits)
    config = SurfaceConfiguration(phases=raw.reshape(rows, cols))
    expected = _reference(config, granularity, bits)
    projected = panel_projection(panel)(raw)
    assert projected.tobytes() == expected.tobytes()
    assert panel.feasible(config).flat_phases().tobytes() == expected.tobytes()
    assert panel.feasible_phases(raw.reshape(rows, cols)).tobytes() == expected.tobytes()
