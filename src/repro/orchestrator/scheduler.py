"""The task scheduler: admission, priority preemption, idle reclaim.

"The scheduler should exploit task dynamics to optimize hardware
utilization, i.e., setting a task idle when not used and releasing
resources" — with "modern OS features, such as priority support ... and
task isolation" (§3.2).  Isolation here means slice-level conflict
freedom: two tasks never hold conflicting slices unless they opted into
a shared configuration-multiplexing group.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.errors import AdmissionError, SchedulingError
from .slices import ResourceSlice, SliceAllocator
from .tasks import ServiceTask, TaskState


class Scheduler:
    """Admits tasks into slices, preempting lower priorities if needed.

    Pass a :class:`~repro.telemetry.Telemetry` instance to surface
    scheduler counters (``scheduler.reaped``, batch-admission sizes);
    without one the scheduler records nothing.
    """

    def __init__(self, telemetry=None) -> None:
        self.allocator = SliceAllocator()
        self.telemetry = telemetry
        self._tasks: Dict[str, ServiceTask] = {}
        self._slices: Dict[str, List[ResourceSlice]] = {}
        self.preemption_count = 0

    # ------------------------------------------------------------------

    def task(self, task_id: str) -> ServiceTask:
        """Look up a known task."""
        try:
            return self._tasks[task_id]
        except KeyError:
            raise SchedulingError(f"unknown task {task_id!r}") from None

    def tasks(self, *states: TaskState) -> List[ServiceTask]:
        """All tasks, optionally filtered by state, by descending priority."""
        out = [
            t
            for t in self._tasks.values()
            if not states or t.state in states
        ]
        return sorted(out, key=lambda t: (-t.priority, t.created_at, t.task_id))

    def slices_of(self, task_id: str) -> List[ResourceSlice]:
        """Slices a task currently holds."""
        return list(self._slices.get(task_id, []))

    # ------------------------------------------------------------------

    def admit(
        self,
        task: ServiceTask,
        slices: Sequence[ResourceSlice],
        allow_preemption: bool = True,
    ) -> ServiceTask:
        """Admit a task into a slice set; preempt lower priorities if needed.

        On success the task is READY and holds its slices.  On failure
        the task is FAILED and :class:`AdmissionError` is raised.
        """
        if task.task_id in self._tasks and self._tasks[task.task_id] is not task:
            raise SchedulingError(f"task id {task.task_id!r} already in use")
        self._tasks[task.task_id] = task
        slices = list(slices)
        try:
            self.allocator.allocate(task.task_id, slices)
        except AdmissionError:
            if not allow_preemption or not self._try_preempt(task, slices):
                task.transition(TaskState.FAILED, reason="no feasible slice")
                raise
            self.allocator.allocate(task.task_id, slices)
        self._slices[task.task_id] = slices
        task.transition(TaskState.READY)
        return task

    def admit_batch(
        self,
        entries: Sequence[Tuple[ServiceTask, Sequence[ResourceSlice]]],
        allow_preemption: bool = True,
    ) -> Dict[str, Optional[str]]:
        """One admission pass over several ``(task, slices)`` pairs.

        The request pipeline's batcher drains its queue and admits a
        whole tick's worth of compatible requests here instead of
        calling :meth:`admit` once per arrival.  Entries are admitted
        in descending priority order (FIFO within a priority by
        creation time), so a batch behaves exactly like the same
        requests arriving one at a time in priority order — a
        lower-priority entry can lose its slices to a higher-priority
        one in the same batch, never the other way around.

        Returns ``task_id → failure reason`` with ``None`` marking a
        successful admission; a failed entry leaves its task FAILED
        (as :meth:`admit` does) but never aborts the rest of the pass.
        """
        ordered = sorted(
            entries,
            key=lambda e: (-e[0].priority, e[0].created_at, e[0].task_id),
        )
        outcomes: Dict[str, Optional[str]] = {}
        for task, slices in ordered:
            try:
                self.admit(task, slices, allow_preemption=allow_preemption)
                outcomes[task.task_id] = None
            except AdmissionError as exc:
                outcomes[task.task_id] = str(exc)
        if self.telemetry is not None and entries:
            self.telemetry.counter("scheduler.batch_admissions")
            self.telemetry.counter("scheduler.batch_admitted_tasks", len(entries))
            failed = sum(1 for r in outcomes.values() if r is not None)
            if failed:
                self.telemetry.counter("scheduler.batch_failures", failed)
        return outcomes

    def _try_preempt(
        self, task: ServiceTask, slices: Sequence[ResourceSlice]
    ) -> bool:
        """Evict strictly-lower-priority blockers if that frees the way."""
        blockers = set()
        for requested in slices:
            blockers.update(self.allocator.conflicting_tasks(requested))
        blocker_tasks = [self._tasks[b] for b in blockers if b in self._tasks]
        if any(b.priority >= task.priority for b in blocker_tasks):
            return False
        for blocker in blocker_tasks:
            self.preempt(blocker.task_id)
        return True

    def preempt(self, task_id: str) -> None:
        """Evict a task: free its slices, mark it PREEMPTED."""
        task = self.task(task_id)
        self.allocator.release(task_id)
        self._slices.pop(task_id, None)
        task.transition(TaskState.PREEMPTED)
        self.preemption_count += 1

    def start(self, task_id: str) -> None:
        """READY → RUNNING."""
        self.task(task_id).transition(TaskState.RUNNING)

    def set_idle(self, task_id: str) -> None:
        """RUNNING → IDLE, releasing the task's slices for others."""
        task = self.task(task_id)
        task.transition(TaskState.IDLE)
        self.allocator.release(task_id)
        self._slices.pop(task_id, None)

    def resume(
        self, task_id: str, slices: Sequence[ResourceSlice]
    ) -> ServiceTask:
        """IDLE → READY with a fresh slice set."""
        task = self.task(task_id)
        if task.state is not TaskState.IDLE:
            raise SchedulingError(
                f"{task_id}: resume from {task.state.value}, expected idle"
            )
        slices = list(slices)
        self.allocator.allocate(task_id, slices)
        self._slices[task_id] = slices
        task.transition(TaskState.READY)
        return task

    def complete(self, task_id: str) -> None:
        """Finish a task and free everything it holds."""
        task = self.task(task_id)
        self.allocator.release(task_id)
        self._slices.pop(task_id, None)
        task.transition(TaskState.COMPLETED)

    def fail(self, task_id: str, reason: str) -> None:
        """Fail a task and free everything it holds."""
        task = self.task(task_id)
        self.allocator.release(task_id)
        self._slices.pop(task_id, None)
        task.transition(TaskState.FAILED, reason=reason)

    def reap_expired(self, now: float) -> List[str]:
        """Complete every admitted task whose duration elapsed.

        READY tasks are reaped too: a task that was admitted but never
        started (e.g. parked behind a coalesced reoptimization window)
        would otherwise expire with its resource slices still
        registered in the allocator, leaking capacity forever.
        Completion frees every slice the task holds.
        """
        finished = []
        for task in self.tasks(
            TaskState.READY, TaskState.RUNNING, TaskState.IDLE
        ):
            if task.expired(now):
                self.complete(task.task_id)
                finished.append(task.task_id)
        if finished and self.telemetry is not None:
            self.telemetry.counter("scheduler.reaped", len(finished))
        return finished
