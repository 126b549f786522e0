"""Service tasks — the orchestrator's process abstraction (§3.2).

"Each function call specifies the service goals as input and creates a
task (akin to OS processes)."  Tasks carry a priority, a lifecycle
state machine, the resource slices they hold, and the achieved metrics
once the optimizer has run.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..core.errors import SchedulingError


class ServiceType(enum.Enum):
    """The services SurfOS multiplexes over surfaces."""

    LINK = "link"                # enhance_link()
    COVERAGE = "coverage"        # optimize_coverage()
    SENSING = "sensing"          # enable_sensing()
    POWERING = "powering"        # init_powering()
    SECURITY = "security"        # protect_link()
    MONITORING = "monitoring"    # monitor_environment()


class TaskState(enum.Enum):
    """Task lifecycle, modeled on OS process states."""

    PENDING = "pending"        # created, not yet admitted
    READY = "ready"            # admitted, resources held, not optimized yet
    RUNNING = "running"        # actively served by live configurations
    IDLE = "idle"              # admitted but dormant; resources released
    COMPLETED = "completed"    # finished (duration elapsed or goal met)
    FAILED = "failed"          # admission or optimization failed
    PREEMPTED = "preempted"    # evicted by a higher-priority task


_VALID_TRANSITIONS = {
    TaskState.PENDING: {TaskState.READY, TaskState.FAILED},
    TaskState.READY: {
        TaskState.RUNNING,
        TaskState.COMPLETED,
        TaskState.FAILED,
        TaskState.PREEMPTED,
    },
    TaskState.RUNNING: {
        TaskState.IDLE,
        TaskState.COMPLETED,
        TaskState.FAILED,
        TaskState.PREEMPTED,
        TaskState.RUNNING,
    },
    TaskState.IDLE: {TaskState.READY, TaskState.COMPLETED, TaskState.PREEMPTED},
    TaskState.PREEMPTED: {TaskState.READY, TaskState.COMPLETED, TaskState.FAILED},
    TaskState.COMPLETED: set(),
    TaskState.FAILED: set(),
}

_task_counter = itertools.count(1)


def reset_task_counter() -> None:
    """Restart task-id numbering (determinism tests/benchmarks only)."""
    global _task_counter
    _task_counter = itertools.count(1)


@dataclass
class ServiceTask:
    """One admitted service request.

    Attributes:
        service: which service the task requests.
        goal: service-specific goal parameters (target SNR, room, …).
        priority: higher wins admission conflicts; preemption is
            strictly by priority.
        duration_s: requested lifetime; ``None`` = until cancelled.
        created_at: simulated creation time.
        task_id: unique id, auto-assigned.
    """

    service: ServiceType
    goal: Dict[str, Any]
    priority: int = 5
    duration_s: Optional[float] = None
    created_at: float = 0.0
    task_id: str = field(default="")
    state: TaskState = field(default=TaskState.PENDING)
    metrics: Dict[str, float] = field(default_factory=dict)
    failure_reason: str = ""

    def __post_init__(self) -> None:
        if not self.task_id:
            self.task_id = f"task-{next(_task_counter)}"
        if self.priority < 0:
            raise SchedulingError("priority must be non-negative")
        if self.duration_s is not None and self.duration_s <= 0:
            raise SchedulingError("duration must be positive when given")

    # ------------------------------------------------------------------

    def transition(self, new_state: TaskState, reason: str = "") -> None:
        """Move the task through its lifecycle, validating the edge."""
        if new_state not in _VALID_TRANSITIONS[self.state]:
            raise SchedulingError(
                f"{self.task_id}: illegal transition "
                f"{self.state.value} → {new_state.value}"
            )
        self.state = new_state
        if new_state is TaskState.FAILED:
            self.failure_reason = reason

    @property
    def is_terminal(self) -> bool:
        """Whether the task is finished for good."""
        return self.state in (TaskState.COMPLETED, TaskState.FAILED)

    def expired(self, now: float) -> bool:
        """Whether the requested duration has elapsed."""
        if self.duration_s is None:
            return False
        return now >= self.created_at + self.duration_s

    def record_metrics(self, **metrics: float) -> None:
        """Attach achieved-performance metrics."""
        self.metrics.update(metrics)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ServiceTask({self.task_id}, {self.service.value}, "
            f"prio={self.priority}, {self.state.value})"
        )
