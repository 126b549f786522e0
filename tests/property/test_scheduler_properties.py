"""Property-based tests: the allocator never overcommits capacity."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import AdmissionError
from repro.orchestrator import ResourceSlice
from repro.orchestrator.slices import SliceAllocator

N_ELEMENTS = 8
BAND = (27e9, 29e9)


@st.composite
def slice_requests(draw):
    mask = np.zeros(N_ELEMENTS, dtype=bool)
    start = draw(st.integers(0, N_ELEMENTS - 1))
    stop = draw(st.integers(start + 1, N_ELEMENTS))
    mask[start:stop] = True
    return ResourceSlice(
        surface_id="s1",
        element_mask=mask,
        band_hz=BAND,
        time_fraction=draw(
            st.sampled_from([0.1, 0.2, 0.25, 0.3, 0.5, 0.75, 1.0])
        ),
        shared_group=draw(st.sampled_from(["", "g"])),
    )


@given(st.lists(slice_requests(), min_size=1, max_size=12))
@settings(max_examples=100, deadline=None)
def test_time_axis_never_overcommitted(requests):
    """After any admission sequence, no element's non-shared time
    budget exceeds unity."""
    allocator = SliceAllocator()
    admitted = []
    for i, request in enumerate(requests):
        try:
            allocator.allocate(f"t{i}", [request])
            admitted.append(request)
        except AdmissionError:
            continue
    # Invariant: per element, the non-shared time fractions sum ≤ 1
    # (one shared group may add at most its own overlapping budget,
    # which the cumulative check also caps against non-members).
    for element in range(N_ELEMENTS):
        total = sum(
            s.time_fraction
            for s in admitted
            if s.element_mask[element] and not s.shared_group
        )
        assert total <= 1.0 + 1e-9


@given(st.lists(slice_requests(), min_size=1, max_size=10))
@settings(max_examples=60, deadline=None)
def test_release_restores_capacity(requests):
    """Releasing every admitted task returns the allocator to empty."""
    allocator = SliceAllocator()
    names = []
    for i, request in enumerate(requests):
        try:
            allocator.allocate(f"t{i}", [request])
            names.append(f"t{i}")
        except AdmissionError:
            continue
    for name in names:
        allocator.release(name)
    assert allocator.held_slices("s1") == []
    # A full-surface exclusive slice now fits again.
    full = ResourceSlice(
        surface_id="s1",
        element_mask=np.ones(N_ELEMENTS, dtype=bool),
        band_hz=BAND,
        time_fraction=1.0,
    )
    assert allocator.can_allocate(full)


@given(slice_requests(), slice_requests())
@settings(max_examples=60, deadline=None)
def test_admission_order_of_two_is_symmetric(a, b):
    """For two slices, admissibility of the pair is order-independent."""
    def fits(first, second):
        allocator = SliceAllocator()
        allocator.allocate("t1", [first])
        return allocator.can_allocate(second)

    assert fits(a, b) == fits(b, a)
