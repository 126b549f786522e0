"""Task lifecycle and resource-slice conflict semantics."""

import numpy as np
import pytest

from repro.core.errors import SchedulingError
from repro.core.units import ghz
from repro.orchestrator import ResourceSlice, ServiceTask, ServiceType, TaskState
from repro.orchestrator.slices import SliceAllocator

BAND = (ghz(27), ghz(29))
OTHER_BAND = (ghz(59), ghz(61))


def full_slice(surface="s1", band=BAND, time=1.0, group="", n=16, mask=None):
    m = np.ones(n, dtype=bool) if mask is None else mask
    return ResourceSlice(
        surface_id=surface,
        element_mask=m,
        band_hz=band,
        time_fraction=time,
        shared_group=group,
    )


class TestTaskLifecycle:
    def test_auto_ids_unique(self):
        a = ServiceTask(ServiceType.COVERAGE, {})
        b = ServiceTask(ServiceType.COVERAGE, {})
        assert a.task_id != b.task_id

    def test_legal_path_to_completion(self):
        t = ServiceTask(ServiceType.SENSING, {}, duration_s=10.0)
        t.transition(TaskState.READY)
        t.transition(TaskState.RUNNING)
        t.transition(TaskState.IDLE)
        t.transition(TaskState.READY)
        t.transition(TaskState.RUNNING)
        t.transition(TaskState.COMPLETED)
        assert t.is_terminal

    def test_illegal_transition_rejected(self):
        t = ServiceTask(ServiceType.LINK, {})
        with pytest.raises(SchedulingError):
            t.transition(TaskState.RUNNING)  # must go through READY

    def test_terminal_states_frozen(self):
        t = ServiceTask(ServiceType.LINK, {})
        t.transition(TaskState.FAILED, reason="x")
        assert t.failure_reason == "x"
        with pytest.raises(SchedulingError):
            t.transition(TaskState.READY)

    def test_expiry(self):
        t = ServiceTask(ServiceType.POWERING, {}, duration_s=5.0, created_at=10.0)
        assert not t.expired(14.0)
        assert t.expired(15.0)
        forever = ServiceTask(ServiceType.POWERING, {})
        assert not forever.expired(1e9)

    def test_validation(self):
        with pytest.raises(SchedulingError):
            ServiceTask(ServiceType.LINK, {}, priority=-1)
        with pytest.raises(SchedulingError):
            ServiceTask(ServiceType.LINK, {}, duration_s=0.0)

    def test_metrics_recording(self):
        t = ServiceTask(ServiceType.COVERAGE, {})
        t.record_metrics(median_snr_db=25.0)
        t.record_metrics(min_snr_db=12.0)
        assert t.metrics == {"median_snr_db": 25.0, "min_snr_db": 12.0}


class TestSliceConflicts:
    def test_same_everything_conflicts(self):
        assert full_slice().conflicts_with(full_slice())

    def test_different_surface_no_conflict(self):
        assert not full_slice("s1").conflicts_with(full_slice("s2"))

    def test_disjoint_bands_no_conflict(self):
        assert not full_slice(band=BAND).conflicts_with(
            full_slice(band=OTHER_BAND)
        )

    def test_disjoint_elements_no_conflict(self):
        left = np.zeros(16, dtype=bool)
        left[:8] = True
        right = ~left
        assert not full_slice(mask=left).conflicts_with(full_slice(mask=right))

    def test_time_shares_fit(self):
        a = full_slice(time=0.5)
        b = full_slice(time=0.5)
        assert not a.conflicts_with(b)
        c = full_slice(time=0.6)
        assert a.conflicts_with(c)

    def test_shared_group_never_conflicts(self):
        a = full_slice(group="joint")
        b = full_slice(group="joint")
        assert not a.conflicts_with(b)
        c = full_slice(group="other")
        assert a.conflicts_with(c)

    def test_validation(self):
        with pytest.raises(SchedulingError):
            full_slice(mask=np.zeros(4, dtype=bool))
        with pytest.raises(SchedulingError):
            full_slice(time=0.0)
        with pytest.raises(SchedulingError):
            full_slice(band=(ghz(29), ghz(27)))


class TestAllocator:
    def test_allocate_and_release(self):
        alloc = SliceAllocator()
        alloc.allocate("t1", [full_slice()])
        assert alloc.conflicting_tasks(full_slice()) == ["t1"]
        assert not alloc.can_allocate(full_slice())
        assert alloc.release("t1") == 1
        assert alloc.can_allocate(full_slice())

    def test_conflicting_tasks_reported(self):
        alloc = SliceAllocator()
        alloc.allocate("low", [full_slice()])
        assert alloc.conflicting_tasks(full_slice()) == ["low"]

    def test_atomic_allocation(self):
        from repro.core.errors import AdmissionError

        alloc = SliceAllocator()
        alloc.allocate("t1", [full_slice("s2")])
        with pytest.raises(AdmissionError):
            alloc.allocate("t2", [full_slice("s1"), full_slice("s2")])
        # s1 must not be partially held after the failed allocation.
        assert alloc.held_slices("s1") == []

    def test_mutually_conflicting_request_rejected(self):
        from repro.core.errors import AdmissionError

        alloc = SliceAllocator()
        with pytest.raises(AdmissionError):
            alloc.allocate("t1", [full_slice(), full_slice()])

    def test_utilization(self):
        alloc = SliceAllocator()
        half = np.zeros(16, dtype=bool)
        half[:8] = True
        alloc.allocate("t1", [full_slice(mask=half, time=0.5)])
        assert alloc.utilization("s1", 16) == pytest.approx(0.25)
        with pytest.raises(SchedulingError):
            alloc.utilization("s1", 0)
