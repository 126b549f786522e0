"""Scheduler: admission, preemption, idle reclaim, expiry."""

import numpy as np
import pytest

from repro.core.errors import AdmissionError, SchedulingError
from repro.core.units import ghz
from repro.orchestrator import (
    ResourceSlice,
    Scheduler,
    ServiceTask,
    ServiceType,
    TaskState,
)

BAND = (ghz(27), ghz(29))


def full_slice(surface="s1", group="", time=1.0):
    return ResourceSlice(
        surface_id=surface,
        element_mask=np.ones(16, dtype=bool),
        band_hz=BAND,
        time_fraction=time,
        shared_group=group,
    )


def make_task(priority=5, service=ServiceType.COVERAGE, duration=None, t0=0.0):
    return ServiceTask(
        service, {}, priority=priority, duration_s=duration, created_at=t0
    )


@pytest.fixture()
def sched():
    return Scheduler()


class TestAdmission:
    def test_admit_ready(self, sched):
        task = sched.admit(make_task(), [full_slice()])
        assert task.state is TaskState.READY
        assert len(sched.slices_of(task.task_id)) == 1

    def test_conflicting_equal_priority_fails(self, sched):
        sched.admit(make_task(priority=5), [full_slice()])
        with pytest.raises(AdmissionError):
            sched.admit(make_task(priority=5), [full_slice()])

    def test_failed_task_marked(self, sched):
        sched.admit(make_task(priority=5), [full_slice()])
        loser = make_task(priority=5)
        with pytest.raises(AdmissionError):
            sched.admit(loser, [full_slice()])
        assert loser.state is TaskState.FAILED
        assert "no feasible slice" in loser.failure_reason

    def test_time_division_coexists(self, sched):
        sched.admit(make_task(), [full_slice(time=0.5)])
        sched.admit(make_task(), [full_slice(time=0.5)])
        assert len(sched.tasks(TaskState.READY)) == 2

    def test_shared_group_coexists(self, sched):
        a = sched.admit(make_task(), [full_slice(group="joint")])
        b = sched.admit(make_task(), [full_slice(group="joint")])
        assert a.state is TaskState.READY and b.state is TaskState.READY
        assert [s.shared_group for s in sched.allocator.held_slices("s1")] == [
            "joint", "joint"
        ]


class TestPreemption:
    def test_higher_priority_preempts(self, sched):
        low = sched.admit(make_task(priority=2), [full_slice()])
        high = sched.admit(make_task(priority=8), [full_slice()])
        assert high.state is TaskState.READY
        assert low.state is TaskState.PREEMPTED
        assert sched.preemption_count == 1

    def test_equal_priority_does_not_preempt(self, sched):
        sched.admit(make_task(priority=5), [full_slice()])
        with pytest.raises(AdmissionError):
            sched.admit(make_task(priority=5), [full_slice()])
        assert sched.preemption_count == 0

    def test_preemption_disabled(self, sched):
        sched.admit(make_task(priority=2), [full_slice()])
        with pytest.raises(AdmissionError):
            sched.admit(
                make_task(priority=9), [full_slice()], allow_preemption=False
            )

    def test_preempted_task_can_resume_later(self, sched):
        low = sched.admit(make_task(priority=2), [full_slice()])
        high = sched.admit(make_task(priority=8), [full_slice()])
        sched.complete(high.task_id)
        low.transition(TaskState.READY)
        assert low.state is TaskState.READY


class TestLifecycleOps:
    def test_start_and_idle_releases_resources(self, sched):
        task = sched.admit(make_task(), [full_slice()])
        sched.start(task.task_id)
        assert task.state is TaskState.RUNNING
        sched.set_idle(task.task_id)
        assert task.state is TaskState.IDLE
        # Slice is free now.
        other = sched.admit(make_task(), [full_slice()])
        assert other.state is TaskState.READY

    def test_resume_from_idle(self, sched):
        task = sched.admit(make_task(), [full_slice()])
        sched.start(task.task_id)
        sched.set_idle(task.task_id)
        sched.resume(task.task_id, [full_slice()])
        assert task.state is TaskState.READY

    def test_resume_requires_idle(self, sched):
        task = sched.admit(make_task(), [full_slice()])
        with pytest.raises(SchedulingError):
            sched.resume(task.task_id, [full_slice()])

    def test_complete_and_fail_release(self, sched):
        a = sched.admit(make_task(), [full_slice("s1")])
        b = sched.admit(make_task(), [full_slice("s2")])
        sched.start(a.task_id)
        sched.complete(a.task_id)
        sched.fail(b.task_id, reason="hardware fault")
        assert a.state is TaskState.COMPLETED
        assert b.state is TaskState.FAILED
        assert b.failure_reason == "hardware fault"
        assert sched.allocator.held_slices("s1") == []
        assert sched.allocator.held_slices("s2") == []

    def test_reap_expired(self, sched):
        short = sched.admit(make_task(duration=5.0), [full_slice("s1")])
        forever = sched.admit(make_task(), [full_slice("s2")])
        sched.start(short.task_id)
        sched.start(forever.task_id)
        finished = sched.reap_expired(now=6.0)
        assert finished == [short.task_id]
        assert short.state is TaskState.COMPLETED
        assert forever.state is TaskState.RUNNING

    def test_unknown_task(self, sched):
        with pytest.raises(SchedulingError):
            sched.task("ghost")

    def test_tasks_sorted_by_priority(self, sched):
        a = sched.admit(make_task(priority=1), [full_slice("s1")])
        b = sched.admit(make_task(priority=9), [full_slice("s2")])
        listed = sched.tasks()
        assert listed[0] is b and listed[1] is a


class TestReapReadyRegression:
    """Expired READY tasks must free their slices (the slice leak)."""

    def test_expired_ready_task_is_reaped_and_slices_freed(self, sched):
        # Admitted but never started: exactly the state a request parked
        # behind a coalescing window sits in when its duration lapses.
        parked = sched.admit(make_task(duration=5.0), [full_slice("s1")])
        assert parked.state is TaskState.READY
        finished = sched.reap_expired(now=6.0)
        assert finished == [parked.task_id]
        assert parked.state is TaskState.COMPLETED
        # The leak: before the fix these slices stayed registered
        # forever, blocking every future admission on the surface.
        assert sched.allocator.held_slices("s1") == []
        replacement = sched.admit(make_task(), [full_slice("s1")])
        assert replacement.state is TaskState.READY

    def test_reaped_counter_emitted(self):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        sched = Scheduler(telemetry=telemetry)
        sched.admit(make_task(duration=1.0), [full_slice("s1")])
        sched.reap_expired(now=2.0)
        counters = telemetry.snapshot().counters
        assert counters["scheduler.reaped"] == 1


class TestBatchAdmission:
    def test_batch_admits_in_priority_order(self, sched):
        low = make_task(priority=2, t0=0.0)
        high = make_task(priority=8, t0=1.0)
        outcomes = sched.admit_batch(
            [(low, [full_slice()]), (high, [full_slice()])]
        )
        # Priority order: high admitted first, low then failed (no
        # preemption of an equal-or-higher task).
        assert outcomes[high.task_id] is None
        assert outcomes[low.task_id] is not None
        assert high.state is TaskState.READY
        assert low.state is TaskState.FAILED

    def test_batch_failure_does_not_abort_rest(self, sched):
        a = make_task(priority=5)
        b = make_task(priority=5)
        c = make_task(priority=5)
        outcomes = sched.admit_batch(
            [
                (a, [full_slice("s1")]),
                (b, [full_slice("s1")]),  # conflicts with a
                (c, [full_slice("s2")]),
            ]
        )
        assert outcomes[a.task_id] is None
        assert outcomes[b.task_id] is not None
        assert outcomes[c.task_id] is None

    def test_batch_shared_group_all_admitted(self, sched):
        tasks = [make_task() for _ in range(4)]
        outcomes = sched.admit_batch(
            [(t, [full_slice(group="joint")]) for t in tasks]
        )
        assert all(reason is None for reason in outcomes.values())
        assert len(sched.tasks(TaskState.READY)) == 4

    def test_batch_telemetry_counters(self):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        sched = Scheduler(telemetry=telemetry)
        sched.admit_batch(
            [
                (make_task(), [full_slice("s1")]),
                (make_task(), [full_slice("s1")]),
            ]
        )
        counters = telemetry.snapshot().counters
        assert counters["scheduler.batch_admissions"] == 1
        assert counters["scheduler.batch_admitted_tasks"] == 2
        assert counters["scheduler.batch_failures"] == 1
