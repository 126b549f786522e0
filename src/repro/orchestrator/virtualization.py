"""Propagation-environment virtualization (§5).

"The centralized control plane of SurfOS can enable new features, such
as network monitoring, diagnosis, and wireless propagation environment
virtualization."  A hypervisor partitions one physical radio
environment among *tenants* — e.g. a building operator leasing surface
capacity to several network providers — with per-tenant policy:

* **scope**: which rooms a tenant may request services for;
* **priority ceiling**: tenants cannot out-prioritize each other at will;
* **time budget**: the share of the surfaces' time axis a tenant may
  hold across all of its tasks;
* **isolation**: a tenant can only observe and cancel its own tasks.

A :class:`TenantOrchestrator` quacks enough like the physical
:class:`~repro.orchestrator.orchestrator.SurfaceOrchestrator` (service
verbs plus the ``budget``/``clock_now``/``hardware``/``telemetry``
read surface) that a :class:`~repro.broker.broker.ServiceBroker` can
run on top of it unchanged — :meth:`Hypervisor.create_frontend`
provisions exactly that, giving each tenant a policy-enforced
:class:`~repro.broker.frontend.ServiceFrontend`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.errors import ServiceError
from .orchestrator import SurfaceOrchestrator
from .tasks import ServiceTask


@dataclass(frozen=True)
class TenantPolicy:
    """What one tenant is allowed to do.

    Attributes:
        name: tenant identifier.
        allowed_rooms: rooms the tenant may target (empty = all).
        max_priority: ceiling applied to every request.
        time_budget: total time fraction the tenant may hold, summed
            over its active tasks (1.0 = the whole time axis).
    """

    name: str
    allowed_rooms: Tuple[str, ...] = ()
    max_priority: int = 5
    time_budget: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ServiceError("tenant needs a name")
        if self.max_priority < 0:
            raise ServiceError("priority ceiling must be non-negative")
        if not 0.0 < self.time_budget <= 1.0:
            raise ServiceError("time budget must lie in (0, 1]")


class TenantOrchestrator:
    """A tenant's restricted view of the shared orchestrator.

    Exposes the same service API names as
    :class:`SurfaceOrchestrator`, with the tenant's policy enforced
    before delegation and ownership recorded for isolation.
    """

    def __init__(
        self,
        orchestrator: SurfaceOrchestrator,
        policy: TenantPolicy,
        hypervisor: "Hypervisor",
    ):
        self._orchestrator = orchestrator
        self.policy = policy
        self._hypervisor = hypervisor
        self._task_ids: List[str] = []

    # ------------------------------------------------------------------
    # policy checks
    # ------------------------------------------------------------------

    def _check_room(self, room_id: str) -> None:
        allowed = self.policy.allowed_rooms
        if allowed and room_id not in allowed:
            raise ServiceError(
                f"tenant {self.policy.name!r} may not target room "
                f"{room_id!r} (allowed: {', '.join(allowed)})"
            )

    def _clamp_priority(self, priority: int) -> int:
        return min(priority, self.policy.max_priority)

    def _effective_fraction(self, time_fraction: Optional[float]) -> float:
        # Tasks default to configuration multiplexing over the tenant's
        # whole budget; explicit fractions must fit inside it.
        fraction = (
            self.policy.time_budget if time_fraction is None else time_fraction
        )
        remaining = self.remaining_time_budget()
        if fraction > remaining + 1e-9:
            raise ServiceError(
                f"tenant {self.policy.name!r} time budget exhausted: "
                f"requested {fraction:.2f}, remaining {remaining:.2f}"
            )
        return fraction

    def _register(self, task: ServiceTask) -> ServiceTask:
        self._task_ids.append(task.task_id)
        self._hypervisor._owners[task.task_id] = self.policy.name
        return task

    # ------------------------------------------------------------------
    # read-only delegation (what a ServiceBroker needs to run on top)
    # ------------------------------------------------------------------

    @property
    def budget(self):
        """The physical link budget (read-only delegation)."""
        return self._orchestrator.budget

    @property
    def clock_now(self) -> float:
        """The shared simulated clock (read-only delegation)."""
        return self._orchestrator.clock_now

    @property
    def hardware(self):
        """The physical hardware manager (read-only delegation)."""
        return self._orchestrator.hardware

    @property
    def telemetry(self):
        """The shared telemetry stream (read-only delegation)."""
        return self._orchestrator.telemetry

    @property
    def scheduler(self):
        """The physical scheduler (read-only delegation)."""
        return self._orchestrator.scheduler

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def tasks(self) -> List[ServiceTask]:
        """The tenant's own tasks (isolation: nobody else's)."""
        out = []
        for task_id in self._task_ids:
            try:
                out.append(self._orchestrator.scheduler.task(task_id))
            except Exception:
                continue
        return out

    def held_time_fraction(self) -> float:
        """Time fraction the tenant's active tasks currently hold."""
        total = 0.0
        for task in self.tasks():
            if task.is_terminal:
                continue
            slices = self._orchestrator.scheduler.slices_of(task.task_id)
            if slices:
                total += min(s.time_fraction for s in slices)
        return total

    def remaining_time_budget(self) -> float:
        """Unused share of the tenant's time budget."""
        return max(0.0, self.policy.time_budget - self.held_time_fraction())

    # ------------------------------------------------------------------
    # service APIs (same names as the physical orchestrator)
    # ------------------------------------------------------------------

    def enhance_link(self, client_id: str, **kwargs) -> ServiceTask:
        """Tenant-scoped ``enhance_link``."""
        kwargs["priority"] = self._clamp_priority(kwargs.get("priority", 6))
        kwargs["time_fraction"] = self._effective_fraction(
            kwargs.get("time_fraction")
        )
        return self._register(
            self._orchestrator.enhance_link(client_id, **kwargs)
        )

    def optimize_coverage(self, room_id: str, **kwargs) -> ServiceTask:
        """Tenant-scoped ``optimize_coverage``."""
        self._check_room(room_id)
        kwargs["priority"] = self._clamp_priority(kwargs.get("priority", 4))
        kwargs["time_fraction"] = self._effective_fraction(
            kwargs.get("time_fraction")
        )
        return self._register(
            self._orchestrator.optimize_coverage(room_id, **kwargs)
        )

    def enable_sensing(self, room_id: str, **kwargs) -> ServiceTask:
        """Tenant-scoped ``enable_sensing``."""
        self._check_room(room_id)
        kwargs["priority"] = self._clamp_priority(kwargs.get("priority", 5))
        kwargs["time_fraction"] = self._effective_fraction(
            kwargs.get("time_fraction")
        )
        return self._register(
            self._orchestrator.enable_sensing(room_id, **kwargs)
        )

    def init_powering(self, client_id: str, **kwargs) -> ServiceTask:
        """Tenant-scoped ``init_powering``."""
        kwargs["priority"] = self._clamp_priority(kwargs.get("priority", 3))
        kwargs["time_fraction"] = self._effective_fraction(
            kwargs.get("time_fraction")
        )
        return self._register(
            self._orchestrator.init_powering(client_id, **kwargs)
        )

    def protect_link(self, client_id: str, **kwargs) -> ServiceTask:
        """Tenant-scoped ``protect_link``."""
        kwargs["priority"] = self._clamp_priority(kwargs.get("priority", 7))
        kwargs["time_fraction"] = self._effective_fraction(
            kwargs.get("time_fraction")
        )
        return self._register(
            self._orchestrator.protect_link(client_id, **kwargs)
        )

    def complete_task(self, task_id: str) -> None:
        """Finish one of the tenant's own tasks (isolation enforced)."""
        if self._hypervisor.owner_of(task_id) != self.policy.name:
            raise ServiceError(
                f"tenant {self.policy.name!r} does not own task {task_id!r}"
            )
        self._orchestrator.complete_task(task_id)


class Hypervisor:
    """Partitions one orchestrator among tenants."""

    def __init__(self, orchestrator: SurfaceOrchestrator):
        self.orchestrator = orchestrator
        self._tenants: Dict[str, TenantOrchestrator] = {}
        self._owners: Dict[str, str] = {}

    def create_tenant(self, policy: TenantPolicy) -> TenantOrchestrator:
        """Provision a tenant view; names are unique."""
        if policy.name in self._tenants:
            raise ServiceError(f"tenant {policy.name!r} already exists")
        total = sum(
            t.policy.time_budget for t in self._tenants.values()
        ) + policy.time_budget
        if total > 1.0 + 1e-9:
            raise ServiceError(
                f"time budgets would exceed the physical axis "
                f"({total:.2f} > 1.0)"
            )
        tenant = TenantOrchestrator(self.orchestrator, policy, self)
        self._tenants[policy.name] = tenant
        return tenant

    def create_frontend(self, policy: TenantPolicy):
        """Provision a tenant and wrap it in a policy-enforcing broker.

        The returned :class:`~repro.broker.broker.ServiceBroker` runs
        unchanged over the :class:`TenantOrchestrator`, so it conforms
        to :class:`~repro.broker.frontend.ServiceFrontend` while every
        demand passes the tenant's room/priority/time-budget policy.
        """
        from ..broker.broker import ServiceBroker

        return ServiceBroker(self.create_tenant(policy))

    def tenant(self, name: str) -> TenantOrchestrator:
        """Look up a tenant view."""
        try:
            return self._tenants[name]
        except KeyError:
            raise ServiceError(f"unknown tenant {name!r}") from None

    def owner_of(self, task_id: str) -> Optional[str]:
        """Which tenant owns a task (None for host-created tasks)."""
        return self._owners.get(task_id)

    def usage_report(self) -> Dict[str, Dict[str, float]]:
        """Per-tenant utilization summary."""
        return {
            name: {
                "time_budget": tenant.policy.time_budget,
                "time_held": round(tenant.held_time_fraction(), 4),
                "active_tasks": float(
                    sum(1 for t in tenant.tasks() if not t.is_terminal)
                ),
            }
            for name, tenant in self._tenants.items()
        }
