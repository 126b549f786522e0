"""Surface orchestrator: tasks, scheduling, multiplexing, optimization."""

from .multiplex import MultiplexStrategy, propose_slices
from .objectives import (
    CoverageGoal,
    CoverageObjective,
    JointObjective,
    Objective,
    PoweringObjective,
)
from .optimizers import (
    Adam,
    GradientDescent,
    OptimizationResult,
    Optimizer,
    RandomSearch,
    SimulatedAnnealing,
    panel_projection,
)
from .orchestrator import ReoptimizationResult, SurfaceOrchestrator
from .scheduler import Scheduler
from .solvebudget import SolveBudgetConfig
from .virtualization import (
    Hypervisor,
    TenantOrchestrator,
    TenantPolicy,
)
from .slices import ResourceSlice, SliceAllocator
from .tasks import ServiceTask, ServiceType, TaskState

__all__ = [
    "Adam",
    "CoverageGoal",
    "CoverageObjective",
    "GradientDescent",
    "Hypervisor",
    "JointObjective",
    "MultiplexStrategy",
    "Objective",
    "OptimizationResult",
    "Optimizer",
    "PoweringObjective",
    "RandomSearch",
    "ReoptimizationResult",
    "ResourceSlice",
    "Scheduler",
    "ServiceTask",
    "ServiceType",
    "SimulatedAnnealing",
    "SliceAllocator",
    "SolveBudgetConfig",
    "SurfaceOrchestrator",
    "TenantOrchestrator",
    "TenantPolicy",
    "TaskState",
    "panel_projection",
    "propose_slices",
]
