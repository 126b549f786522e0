"""The surface orchestrator: service APIs + global surface scheduling.

This is SurfOS's central control plane (§3.2).  The service request
APIs — ``enhance_link()``, ``optimize_coverage()``, ``enable_sensing()``,
``init_powering()``, ``protect_link()`` — are environment-wide
abstractions: callers say *what* they need, never *which* surface
provides it.  Each call creates a :class:`ServiceTask`; the
orchestrator admits it into resource slices, and
:meth:`SurfaceOrchestrator.reoptimize` jointly searches all surfaces'
configurations for every active task (the paper's "multitasking with
joint optimization"), pushing results through the hardware manager.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..channel.model import ChannelModel, LinearChannelForm, LinearFormCache
from ..channel.simulator import ChannelSimulator, live_configs
from ..core.configuration import SurfaceConfiguration
from ..core.errors import ServiceError
from ..drivers.base import PassiveDriver
from ..em.noise import LinkBudget
from ..geometry.environment import Environment
from ..geometry.vec import as_vec3
from ..hwmgr.manager import HardwareManager
from ..services import connectivity, powering, security, sensing
from ..surfaces.panel import SurfacePanel
from ..telemetry import Telemetry
from .multiplex import MultiplexStrategy, propose_slices
from .objectives import JointObjective, Objective
from .optimizers import Adam, Optimizer, panel_projection
from .scheduler import Scheduler
from .solvebudget import (
    BudgetController,
    SolutionStore,
    SolveBudgetConfig,
    group_key,
    objective_digest,
    relative_drift,
)
from .tasks import ServiceTask, ServiceType, TaskState

#: Candidate angles in a sensing task's AoA grid.
_SENSING_ANGLES = 61


def coefficients_from_phases(
    panel: SurfacePanel, phases: np.ndarray
) -> np.ndarray:
    """Complex coefficient vector for a panel at given flat phases."""
    amplitudes = panel.configuration.amplitudes.reshape(-1)
    return amplitudes * np.exp(1j * np.asarray(phases, dtype=float).reshape(-1))


@dataclass
class _TaskContext:
    """Orchestrator-private bookkeeping for one admitted task."""

    task: ServiceTask
    points: np.ndarray                      # evaluation points (K_t, 3)
    weight: float = 1.0                     # contribution to the joint loss
    legit_local: Optional[np.ndarray] = None     # security: local indices
    eve_local: Optional[np.ndarray] = None
    point_offset: int = 0                   # filled per reoptimize pass


@dataclass
class _SolveUnit:
    """One independent solve: a co-served group or one time-division slot.

    ``key`` names the unit in the solution store (the joint group's
    :func:`group_key`, or a slotted task's id); ``phases`` is the
    unit's own flat phase state per optimizable surface, and
    ``budgets`` its round-0 drift budget per surface.
    """

    key: str
    contexts: List[_TaskContext]
    phases: Dict[str, np.ndarray]
    budgets: Dict[str, Optional[int]] = field(default_factory=dict)


@dataclass
class _AdmissionBatch:
    """Deferred ``(task, slices)`` pairs collected for one batch pass."""

    entries: List[Tuple[ServiceTask, list]] = field(default_factory=list)
    #: ``task_id → failure reason`` (None = admitted), filled on exit.
    outcomes: Dict[str, Optional[str]] = field(default_factory=dict)


class ReoptimizationResult(Mapping):
    """Typed outcome of one :meth:`SurfaceOrchestrator.reoptimize` call.

    A :class:`Mapping` over the *live* configurations per surface (the
    joint group's when one exists, otherwise the first time-division
    slot's) for drop-in compatibility with the old dict return — plus
    the full picture as attributes:

    Attributes:
        joint: joint-group configurations per surface id (may be empty).
        slots: per-task slot configurations, ``task_id → surface_id →
            configuration`` (time-division tasks).
        timing: wall-clock seconds per reoptimization phase, read from
            the telemetry spans (``channel_build_s``, ``optimize_s``,
            ``push_s``, ``metrics_s``, ``total_s``); empty when
            telemetry is disabled.
        objective_evaluations: per-task count of objective evaluations
            spent on it across all panels and rounds.
        pushed: whether configurations were queued to hardware.
        settle_s: control-delay settle time paid by the push (0 when
            nothing was pushed).
        solver: adaptive solve-budget accounting for this pass —
            ``budgeted_iterations``, ``used_iterations``, ``warm_hits``,
            ``cold_starts``, ``early_stops``, ``drift_probes`` — empty
            when adaptive budgets are disabled.
    """

    def __init__(
        self,
        joint: Dict[str, SurfaceConfiguration],
        slots: Dict[str, Dict[str, SurfaceConfiguration]],
        timing: Optional[Dict[str, float]] = None,
        objective_evaluations: Optional[Dict[str, int]] = None,
        pushed: bool = False,
        settle_s: float = 0.0,
        solver: Optional[Dict[str, int]] = None,
    ):
        self.joint = dict(joint)
        self.slots = {t: dict(entry) for t, entry in slots.items()}
        self.timing = dict(timing or {})
        self.objective_evaluations = dict(objective_evaluations or {})
        self.pushed = pushed
        self.settle_s = settle_s
        self.solver = dict(solver or {})

    @property
    def live(self) -> Dict[str, SurfaceConfiguration]:
        """The configurations actually serving after this pass."""
        if self.joint:
            return self.joint
        if self.slots:
            return next(iter(self.slots.values()))
        return {}

    # Mapping duck-compat with the old ``Dict[str, SurfaceConfiguration]``
    # return value: iteration, lookup, and membership hit ``live``.

    def __getitem__(self, surface_id: str) -> SurfaceConfiguration:
        return self.live[surface_id]

    def __iter__(self) -> Iterator[str]:
        return iter(self.live)

    def __len__(self) -> int:
        return len(self.live)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReoptimizationResult(joint={sorted(self.joint)}, "
            f"slots={sorted(self.slots)}, pushed={self.pushed}, "
            f"settle_s={self.settle_s:g})"
        )


class SurfaceOrchestrator:
    """Central control plane over one radio environment."""

    def __init__(
        self,
        env: Environment,
        hardware: HardwareManager,
        frequency_hz: float,
        ap_id: Optional[str] = None,
        optimizer: Optional[Optimizer] = None,
        grid_spacing_m: float = 0.7,
        telemetry: Optional[Telemetry] = None,
        channel_workers: int = 0,
        solve_budget: Optional[SolveBudgetConfig] = None,
    ):
        self.env = env
        self.hardware = hardware
        self.frequency_hz = frequency_hz
        self.clock_now = 0.0
        self.telemetry = (
            telemetry
            or getattr(hardware, "telemetry", None)
            or Telemetry()
        )
        self.telemetry.bind_sim_clock(lambda: self.clock_now)
        self.simulator = ChannelSimulator(
            env,
            frequency_hz,
            parallel_workers=channel_workers,
            telemetry=self.telemetry,
        )
        self.scheduler = Scheduler(telemetry=self.telemetry)
        self.optimizer = optimizer or Adam(max_iterations=120)
        self.optimizer.bind_telemetry(self.telemetry)
        self.grid_spacing_m = grid_spacing_m
        self._contexts: Dict[str, _TaskContext] = {}
        self._dirty_tasks: set = set()
        self._admission_batch: Optional[_AdmissionBatch] = None
        self.solve_budget = solve_budget or SolveBudgetConfig()
        self._solutions = SolutionStore(self.solve_budget.store_size)
        self._budget_controller = BudgetController(self.solve_budget)
        aps = hardware.access_points()
        if ap_id is None and len(aps) != 1:
            raise ServiceError(
                f"need exactly one AP or an explicit ap_id; have {len(aps)}"
            )
        self.ap = hardware.access_point(ap_id) if ap_id else aps[0]

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    @property
    def budget(self) -> LinkBudget:
        """The AP's link budget."""
        return self.ap.budget

    def _room_points(self, room_id: str, z: float = 1.0) -> np.ndarray:
        return self.env.room(room_id).grid(self.grid_spacing_m, z=z)

    def _client_point(self, client_id: str) -> np.ndarray:
        return self.hardware.client(client_id).position[None, :].copy()

    def _admit(
        self,
        task: ServiceTask,
        points: np.ndarray,
        strategy: MultiplexStrategy,
        weight: float,
        **slice_kwargs,
    ) -> ServiceTask:
        # Slices are proposed over *operational* surfaces only:
        # quarantined and dead panels cannot serve new work.
        panels = self.hardware.operational_panels()
        if not panels:
            task.transition(TaskState.FAILED, reason="no operational surfaces")
            raise ServiceError(
                "no operational surfaces registered with the hardware manager"
            )
        slices = propose_slices(
            task, panels, strategy, target_points=points, **slice_kwargs
        )
        if self._admission_batch is not None:
            # Deferred mode: park the pair for one admit_batch() pass at
            # the end of the batch_admission() block.  The task stays
            # PENDING until then; its context is stored so a successful
            # batch admission needs no second bookkeeping pass.
            self._admission_batch.entries.append((task, slices))
        else:
            self.scheduler.admit(task, slices)
        self._contexts[task.task_id] = _TaskContext(
            task=task, points=np.atleast_2d(points), weight=weight
        )
        self._dirty_tasks.add(task.task_id)
        return task

    @contextmanager
    def batch_admission(self) -> Iterator[_AdmissionBatch]:
        """Defer scheduler admission for every service call in the block.

        The request pipeline's admission batcher wraps one tick's worth
        of service-API calls (``enhance_link`` etc.) in this context;
        instead of one :meth:`Scheduler.admit` per call, the collected
        ``(task, slices)`` pairs go through one
        :meth:`Scheduler.admit_batch` pass in priority order on exit.
        Tasks a batch pass rejects are cleaned out of the
        orchestrator's books; their ids map to a failure reason in the
        yielded batch's ``outcomes``.
        """
        if self._admission_batch is not None:
            raise ServiceError("batch_admission() blocks cannot nest")
        batch = _AdmissionBatch()
        self._admission_batch = batch
        try:
            yield batch
        finally:
            self._admission_batch = None
            if batch.entries:
                batch.outcomes = self.scheduler.admit_batch(batch.entries)
                for task_id, reason in batch.outcomes.items():
                    if reason is not None:
                        self._contexts.pop(task_id, None)
                        self._dirty_tasks.discard(task_id)

    # ------------------------------------------------------------------
    # dirty-set tracking (reoptimization coalescing)
    # ------------------------------------------------------------------

    def mark_dirty(self, *task_ids: str) -> None:
        """Flag tasks whose serving configuration is stale.

        With no arguments every active task is flagged (an environment-
        wide trigger: surface degradation, channel drift).  The request
        pipeline coalesces triggers and runs one :meth:`reoptimize`
        covering the whole dirty set.
        """
        if task_ids:
            self._dirty_tasks.update(task_ids)
        else:
            self._dirty_tasks.update(
                t.task_id
                for t in self.scheduler.tasks(
                    TaskState.READY, TaskState.RUNNING
                )
            )

    # ------------------------------------------------------------------
    # service request APIs (the paper's Fig. 6 call surface)
    # ------------------------------------------------------------------

    def enhance_link(
        self,
        client_id: str,
        snr: Optional[float] = None,
        latency: Optional[float] = None,
        priority: int = 6,
        strategy: MultiplexStrategy = MultiplexStrategy.JOINT,
        time_fraction: Optional[float] = None,
    ) -> ServiceTask:
        """Boost one endpoint's link to a target SNR (dB)."""
        task = ServiceTask(
            service=ServiceType.LINK,
            goal={"client": client_id, "snr_db": snr, "latency_ms": latency},
            priority=priority,
            created_at=self.clock_now,
        )
        return self._admit(
            task,
            self._client_point(client_id),
            strategy,
            weight=float(priority),
            shared_group="joint",
            time_fraction=time_fraction,
        )

    def optimize_coverage(
        self,
        room_id: str,
        median_snr: Optional[float] = None,
        priority: int = 4,
        strategy: MultiplexStrategy = MultiplexStrategy.JOINT,
        time_fraction: Optional[float] = None,
    ) -> ServiceTask:
        """Raise a room's median SNR (dB) across an evaluation grid."""
        task = ServiceTask(
            service=ServiceType.COVERAGE,
            goal={"room": room_id, "median_snr_db": median_snr},
            priority=priority,
            created_at=self.clock_now,
        )
        return self._admit(
            task,
            self._room_points(room_id),
            strategy,
            weight=float(priority),
            shared_group="joint",
            time_fraction=time_fraction,
        )

    def enable_sensing(
        self,
        room_id: str,
        mode: Optional[str] = None,
        duration: Optional[float] = 3600.0,
        priority: int = 5,
        strategy: MultiplexStrategy = MultiplexStrategy.JOINT,
        time_fraction: Optional[float] = None,
    ) -> ServiceTask:
        """Enable AoA-based localization/tracking in a room.

        ``mode`` selects the sensing flavour (``"tracking"`` by
        default).  The former ``type=`` spelling, which shadowed the
        builtin, has been removed.
        """
        if mode is None:
            mode = "tracking"
        task = ServiceTask(
            service=ServiceType.SENSING,
            goal={"room": room_id, "mode": mode},
            priority=priority,
            duration_s=duration,
            created_at=self.clock_now,
        )
        return self._admit(
            task,
            self._room_points(room_id),
            strategy,
            weight=float(priority),
            shared_group="joint",
            time_fraction=time_fraction,
        )

    def init_powering(
        self,
        client_id: str,
        duration: Optional[float] = 3600.0,
        priority: int = 3,
        strategy: MultiplexStrategy = MultiplexStrategy.JOINT,
        time_fraction: Optional[float] = None,
    ) -> ServiceTask:
        """Wirelessly charge one device."""
        task = ServiceTask(
            service=ServiceType.POWERING,
            goal={"client": client_id},
            priority=priority,
            duration_s=duration,
            created_at=self.clock_now,
        )
        return self._admit(
            task,
            self._client_point(client_id),
            strategy,
            weight=float(priority),
            shared_group="joint",
            time_fraction=time_fraction,
        )

    def protect_link(
        self,
        client_id: str,
        eavesdropper_position: Sequence[float],
        priority: int = 7,
        nulling_weight: float = 1.0,
        strategy: MultiplexStrategy = MultiplexStrategy.JOINT,
        time_fraction: Optional[float] = None,
    ) -> ServiceTask:
        """Maximize a client's link while nulling an eavesdropper spot."""
        legit = self._client_point(client_id)
        eve = as_vec3(eavesdropper_position)[None, :]
        points = np.concatenate([legit, eve], axis=0)
        task = ServiceTask(
            service=ServiceType.SECURITY,
            goal={
                "client": client_id,
                "eavesdropper": list(map(float, eve[0])),
                "nulling_weight": nulling_weight,
            },
            priority=priority,
            created_at=self.clock_now,
        )
        admitted = self._admit(
            task,
            points,
            strategy,
            weight=float(priority),
            shared_group="joint",
            time_fraction=time_fraction,
        )
        ctx = self._contexts[task.task_id]
        ctx.legit_local = np.array([0])
        ctx.eve_local = np.array([1])
        return admitted

    # ------------------------------------------------------------------
    # joint optimization over all active tasks
    # ------------------------------------------------------------------

    def active_contexts(self) -> List[_TaskContext]:
        """Contexts of READY/RUNNING tasks, highest priority first."""
        active = self.scheduler.tasks(TaskState.READY, TaskState.RUNNING)
        return [self._contexts[t.task_id] for t in active]

    def _sensing_estimator(
        self, model: ChannelModel, surface_id: str
    ) -> sensing.AoAEstimator:
        panel = self.hardware.panel(surface_id)
        grid = sensing.AngleGrid.uniform(count=_SENSING_ANGLES)
        return sensing.AoAEstimator(
            panel,
            sensing.surface_illumination(model, surface_id),
            grid,
            self.frequency_hz,
        )

    def _task_objective(
        self,
        ctx: _TaskContext,
        form: LinearChannelForm,
        amplitudes: np.ndarray,
        surface_id: str,
        model: ChannelModel,
    ) -> Objective:
        k = ctx.points.shape[0]
        local = form.restricted(
            range(ctx.point_offset, ctx.point_offset + k)
        )
        service = ctx.task.service
        if service in (ServiceType.LINK, ServiceType.COVERAGE):
            return connectivity.coverage_objective(
                local, amplitudes=amplitudes, budget=self.budget
            )
        if service is ServiceType.POWERING:
            return powering.powering_objective(
                local, amplitudes=amplitudes, budget=self.budget
            )
        if service is ServiceType.SENSING:
            estimator = self._sensing_estimator(model, surface_id)
            return sensing.localization_objective(
                model,
                surface_id,
                estimator,
                point_indices=range(ctx.point_offset, ctx.point_offset + k),
                amplitudes=amplitudes,
                budget=self.budget,
            )
        if service is ServiceType.SECURITY:
            return security.security_objective(
                local,
                legit_indices=ctx.legit_local,
                eavesdropper_indices=ctx.eve_local,
                amplitudes=amplitudes,
                budget=self.budget,
                nulling_weight=ctx.task.goal.get("nulling_weight", 1.0),
            )
        raise ServiceError(f"no objective for service {service}")

    def _is_joint(self, ctx: _TaskContext) -> bool:
        """Whether a task holds configuration-multiplexed slices."""
        return any(
            s.shared_group for s in self.scheduler.slices_of(ctx.task.task_id)
        )

    def _optimizable_panels(self) -> List[SurfacePanel]:
        operational = {
            p.panel_id for p in self.hardware.operational_panels()
        }
        panels = []
        for panel in self.hardware.panels():
            if panel.panel_id not in operational:
                continue  # quarantined or dead: masked out of optimization
            driver = self.hardware.driver(panel.panel_id)
            if isinstance(driver, PassiveDriver) and driver.fabricated:
                continue  # fixed forever
            panels.append(panel)
        return panels

    def _warm_start(
        self,
        task_key: str,
        sid: str,
        objective: Objective,
        fallback: np.ndarray,
        solver_stats: Dict[str, int],
    ) -> Tuple[np.ndarray, Optional[int]]:
        """Adaptive-budget lookup for one (task, panel) solve.

        Re-scores the cached phases under the new objective, measures
        drift against the cached score, and returns warm initial phases
        plus the drift-scaled iteration budget.  A miss (no entry,
        shape change, or an optimizer with no iteration limit) returns
        the fallback phases and a full budget (``None``).
        """
        digest = objective_digest(objective)
        entry = self._solutions.lookup(task_key, sid, digest)
        full = self.optimizer.full_budget
        if entry is None or full is None:
            self.telemetry.counter("solver.cold_starts")
            solver_stats["cold_starts"] = solver_stats.get("cold_starts", 0) + 1
            return fallback, None
        # One deterministic probe evaluation: the cached phases under
        # the *new* objective.  Its distance from the cached score is
        # the drift the budget scales with.
        drift = relative_drift(float(objective.value(entry.phases)), entry.loss)
        budget = self._budget_controller.budget(drift, full)
        self.telemetry.counter("solver.drift_probes")
        self.telemetry.counter("solver.warm_hits")
        self.telemetry.gauge("solver.drift", round(drift, 9))
        solver_stats["drift_probes"] = solver_stats.get("drift_probes", 0) + 1
        solver_stats["warm_hits"] = solver_stats.get("warm_hits", 0) + 1
        return entry.phases.copy(), budget

    def _account_solver(
        self, result, solver_stats: Dict[str, int]
    ) -> None:
        """Fold one adaptive solve's budget accounting into telemetry."""
        self.telemetry.counter("solver.budget_iterations", result.budget)
        self.telemetry.counter("solver.used_iterations", result.iterations)
        solver_stats["budgeted_iterations"] = (
            solver_stats.get("budgeted_iterations", 0) + result.budget
        )
        solver_stats["used_iterations"] = (
            solver_stats.get("used_iterations", 0) + result.iterations
        )
        if result.early_stopped:
            self.telemetry.counter("solver.early_stops")
            solver_stats["early_stops"] = (
                solver_stats.get("early_stops", 0) + 1
            )

    def _unit_objective(
        self,
        unit: _SolveUnit,
        form: LinearChannelForm,
        amplitudes: np.ndarray,
        surface_id: str,
        model: ChannelModel,
    ) -> Objective:
        """One unit's loss on one surface: a lone task's objective, or
        the priority-weighted :class:`JointObjective` of a group."""
        objectives = [
            self._task_objective(ctx, form, amplitudes, surface_id, model)
            for ctx in unit.contexts
        ]
        if len(objectives) == 1:
            return objectives[0]
        total_weight = sum(c.weight for c in unit.contexts) or 1.0
        return JointObjective([
            (objective, ctx.weight / total_weight)
            for objective, ctx in zip(objectives, unit.contexts)
        ])

    def _optimize_units(
        self,
        model: ChannelModel,
        units: Sequence[_SolveUnit],
        optimizable: Sequence[SurfacePanel],
        rounds: int,
        eval_counts: Dict[str, int],
        solver_stats: Dict[str, int],
    ) -> None:
        """Block-coordinate search over independent solve units.

        Each round visits every optimizable surface once; on each
        surface one :meth:`Optimizer.optimize_many` call runs one
        optimizer solve per unit.  Every unit builds its own linear
        form from its own phase state, so units never see each other's
        configurations.  Optimized phases land
        in each unit's ``phases``; ``eval_counts`` accumulates objective
        evaluations per task id.
        """
        by_id = {p.panel_id: p for p in self.hardware.panels()}

        def coeffs(state: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
            out = {}
            for sid, panel in by_id.items():
                if sid in state:
                    out[sid] = coefficients_from_phases(panel, state[sid])
                else:
                    out[sid] = panel.configuration.coefficients().reshape(-1)
            return out

        adaptive = self.solve_budget.enabled
        forms = LinearFormCache(model, telemetry=self.telemetry)
        for round_index in range(rounds):
            for panel in optimizable:
                sid = panel.panel_id
                with self.telemetry.span(
                    "optimize-panel",
                    panel=sid,
                    round=round_index,
                    tasks=sum(len(u.contexts) for u in units),
                ) as span:
                    amplitudes = panel.configuration.amplitudes.reshape(-1)
                    objectives: List[Objective] = []
                    initials: List[np.ndarray] = []
                    budgets: List[Optional[int]] = []
                    for unit in units:
                        form = forms.linear_form(sid, coeffs(unit.phases))
                        objective = self._unit_objective(
                            unit, form, amplitudes, sid, model
                        )
                        initial = unit.phases[sid]
                        budget = None
                        if adaptive:
                            if round_index == 0:
                                initial, budget = self._warm_start(
                                    unit.key, sid, objective, initial,
                                    solver_stats,
                                )
                                unit.budgets[sid] = budget
                            else:
                                # Later rounds continue the round-0 solve
                                # under the same drift budget.
                                budget = unit.budgets.get(sid)
                        objectives.append(objective)
                        initials.append(initial)
                        budgets.append(budget)
                    results = self.optimizer.optimize_many(
                        objectives,
                        initials,
                        projection=panel_projection(panel),
                        budgets=budgets,
                    )
                    for unit, result in zip(units, results):
                        unit.phases[sid] = result.phases
                    span.set(
                        iterations=sum(r.iterations for r in results),
                        loss=sum(r.loss for r in results),
                    )
                    self.telemetry.counter(
                        "orchestrator.objective_evaluations",
                        sum(
                            r.evaluations * len(u.contexts)
                            for u, r in zip(units, results)
                        ),
                    )
                    for unit, result in zip(units, results):
                        for ctx in unit.contexts:
                            task_id = ctx.task.task_id
                            eval_counts[task_id] = (
                                eval_counts.get(task_id, 0) + result.evaluations
                            )
                    if adaptive:
                        for unit, objective, result in zip(
                            units, objectives, results
                        ):
                            self._account_solver(result, solver_stats)
                            if round_index == rounds - 1:
                                self._solutions.store(
                                    unit.key, sid,
                                    objective_digest(objective),
                                    result.phases, result.loss,
                                )

    def _phases_to_config(
        self, panel: SurfacePanel, phases: np.ndarray, name: str
    ) -> SurfaceConfiguration:
        return SurfaceConfiguration(
            phases=np.asarray(phases).reshape(panel.shape),
            amplitudes=panel.configuration.amplitudes.copy(),
            name=name,
            frequency_hz=self.frequency_hz,
        )

    def reoptimize(
        self,
        now: Optional[float] = None,
        rounds: int = 2,
        push: bool = True,
    ) -> ReoptimizationResult:
        """Optimize all surfaces for every active task.

        Tasks holding configuration-multiplexed (shared-group) slices
        are served by one *joint* configuration; tasks holding
        time-division slices each get their own configuration, stored
        as a codebook entry named ``task-<id>`` and cycled at data-plane
        speed by :meth:`activate_task_slot` — the §3.2 time-division
        multiplexing.

        Returns a :class:`ReoptimizationResult`: a mapping over the
        live configurations per surface (joint ones when a joint group
        exists, else the first slot's) carrying the full joint/slot
        breakdown, a per-phase timing summary from the telemetry spans,
        and per-task objective-evaluation counts.

        With ``push`` the configurations are queued through the hardware
        manager; passive surfaces are fabricated on first optimization
        and skipped afterwards (they cannot take part in TDM).
        """
        if now is not None:
            self.clock_now = now
        contexts = self.active_contexts()
        if not contexts:
            raise ServiceError("no active tasks to optimize for")
        timing: Dict[str, float] = {}
        eval_counts: Dict[str, int] = {}
        solver_stats: Dict[str, int] = {}
        settle = 0.0
        with self.telemetry.span("reoptimize", tasks=len(contexts)) as root:
            panels = self.hardware.panels()
            offset = 0
            point_blocks = []
            for ctx in contexts:
                ctx.point_offset = offset
                offset += ctx.points.shape[0]
                point_blocks.append(ctx.points)
            all_points = np.concatenate(point_blocks, axis=0)
            with self.telemetry.span(
                "channel-build", points=int(all_points.shape[0])
            ) as span:
                model = self.simulator.build(self.ap.node(), all_points, panels)
            timing["channel_build_s"] = span.wall_duration_s

            optimizable = self._optimizable_panels()
            if not optimizable:
                raise ServiceError(
                    "no optimizable surfaces: every panel is either "
                    "passive-and-fabricated, quarantined, or dead"
                )

            joint_contexts = [c for c in contexts if self._is_joint(c)]
            slotted_contexts = [c for c in contexts if not self._is_joint(c)]

            def unit(key: str, members: List[_TaskContext]) -> _SolveUnit:
                return _SolveUnit(key, members, {
                    p.panel_id: p.configuration.flat_phases()
                    for p in optimizable
                })

            joint = [
                unit(
                    group_key(c.task.task_id for c in joint_contexts),
                    joint_contexts,
                )
            ] if joint_contexts else []
            slots = [unit(c.task.task_id, [c]) for c in slotted_contexts]

            with self.telemetry.span(
                "optimize",
                joint_tasks=len(joint_contexts),
                slot_tasks=len(slotted_contexts),
            ) as span:
                # The co-served group solves first, then every
                # time-division slot.
                for units in (joint, slots):
                    if units:
                        self._optimize_units(
                            model, units, optimizable, rounds,
                            eval_counts, solver_stats,
                        )
                new_configs: Dict[str, SurfaceConfiguration] = {
                    panel.panel_id: self._phases_to_config(
                        panel,
                        group.phases[panel.panel_id],
                        f"orchestrated@{self.clock_now:.3f}",
                    )
                    for group in joint
                    for panel in optimizable
                }
                slot_configs: Dict[str, Dict[str, SurfaceConfiguration]] = {
                    slot.key: {
                        panel.panel_id: self._phases_to_config(
                            panel,
                            slot.phases[panel.panel_id],
                            f"task-{slot.key}",
                        )
                        for panel in optimizable
                    }
                    for slot in slots
                }
            timing["optimize_s"] = span.wall_duration_s

            if push:
                with self.telemetry.span("push") as span:
                    settle = self._push_configurations(
                        optimizable,
                        new_configs,
                        slot_configs,
                        bool(joint_contexts),
                    )
                timing["push_s"] = span.wall_duration_s

            for ctx in contexts:
                if ctx.task.state is TaskState.READY:
                    self.scheduler.start(ctx.task.task_id)
            with self.telemetry.span("metrics") as span:
                self._record_metrics(model, contexts, slot_configs)
            timing["metrics_s"] = span.wall_duration_s
        timing["total_s"] = root.wall_duration_s
        if not self.telemetry.enabled:
            timing = {}
        self.telemetry.counter("orchestrator.reoptimizations")
        # Every active task was just (re)optimized: the dirty set is
        # clean until the next admission/motion/degradation trigger.
        self._dirty_tasks.clear()
        return ReoptimizationResult(
            joint=new_configs,
            slots=slot_configs,
            timing=timing,
            objective_evaluations=eval_counts,
            pushed=push,
            settle_s=settle,
            solver=solver_stats,
        )

    def _push_configurations(
        self,
        optimizable: Sequence[SurfacePanel],
        joint_configs: Dict[str, SurfaceConfiguration],
        slot_configs: Dict[str, Dict[str, SurfaceConfiguration]],
        have_joint: bool,
    ) -> float:
        """Queue all configurations through the hardware manager.

        Push failures (link faults that exhaust retries, quarantine
        rejections) degrade service on that surface but never abort the
        whole reoptimization — the other surfaces still get their
        updates.  Returns the control-delay settle time paid before
        commit.
        """
        failed = 0
        for panel in optimizable:
            sid = panel.panel_id
            driver = self.hardware.driver(sid)
            if isinstance(driver, PassiveDriver):
                # Passive hardware gets exactly one configuration: the
                # joint one if any, else the first slot's.
                config = joint_configs.get(sid)
                if config is None and slot_configs:
                    config = next(iter(slot_configs.values()))[sid]
                if config is not None:
                    self.hardware.fabricate(sid, config)
                continue
            if sid in joint_configs:
                result = self.hardware.push_configuration(
                    sid,
                    joint_configs[sid],
                    now=self.clock_now,
                    name="orchestrated",
                )
                if not result.ok:
                    failed += 1
            for slot_index, (task_id, entry) in enumerate(
                slot_configs.items()
            ):
                result = self.hardware.push_configuration(
                    sid,
                    entry[sid],
                    now=self.clock_now,
                    name=f"task-{task_id}",
                    # Without a joint config the first slot goes live.
                    activate=(not have_joint and slot_index == 0),
                )
                if not result.ok:
                    failed += 1
        if failed:
            self.telemetry.counter("orchestrator.push_failures", failed)
        delays = [
            p.spec.control_delay_s
            for p in optimizable
            if math.isfinite(p.spec.control_delay_s)
        ]
        settle = max(delays) if delays else 0.0
        self.clock_now += settle
        self.telemetry.gauge("hw.settle_s", settle)
        self.hardware.commit_all(self.clock_now)
        return settle

    # ------------------------------------------------------------------
    # time-division multiplexing (data plane)
    # ------------------------------------------------------------------

    def activate_task_slot(self, task_id: str) -> List[str]:
        """Switch every programmable surface to a task's stored slot.

        A data-plane action: local codebook selection, no control-delay
        cost (the paper's stored-configuration switching).  Returns the
        surfaces switched.
        """
        switched = []
        name = f"task-{task_id}"
        for panel in self._optimizable_panels():
            driver = self.hardware.driver(panel.panel_id)
            if isinstance(driver, PassiveDriver):
                continue
            if name in driver.stored_configurations():
                driver.select_configuration(name)
                switched.append(panel.panel_id)
        if not switched:
            raise ServiceError(
                f"no stored slot configurations for task {task_id!r}; "
                "run reoptimize() first"
            )
        return switched

    # ------------------------------------------------------------------

    def _record_metrics(
        self,
        model: ChannelModel,
        contexts: Sequence[_TaskContext],
        slot_configs: Optional[
            Dict[str, Dict[str, SurfaceConfiguration]]
        ] = None,
    ) -> None:
        live = live_configs(self.hardware.panels())
        live_snrs = connectivity.snr_map_db(model, live, self.budget)
        for ctx in contexts:
            k = ctx.points.shape[0]
            sl = slice(ctx.point_offset, ctx.point_offset + k)
            # Time-division tasks are measured under *their* slot
            # configuration, not whatever happens to be live now.
            entry = (slot_configs or {}).get(ctx.task.task_id)
            if entry is not None:
                configs = dict(live)
                for sid, config in entry.items():
                    panel = self.hardware.panel(sid)
                    configs[sid] = (
                        panel.feasible(config).coefficients().reshape(-1)
                    )
                snrs = connectivity.snr_map_db(model, configs, self.budget)
            else:
                snrs = live_snrs
            task_snrs = snrs[sl]
            ctx.task.record_metrics(
                median_snr_db=float(np.median(task_snrs)),
                min_snr_db=float(np.min(task_snrs)),
            )
            if ctx.task.service is ServiceType.SECURITY:
                ctx.task.record_metrics(
                    secrecy_margin_db=float(
                        task_snrs[ctx.legit_local].mean()
                        - task_snrs[ctx.eve_local].mean()
                    )
                )

    def evaluate_task(self, task_id: str) -> Dict[str, float]:
        """Fresh achieved-metric evaluation for one task."""
        ctx = self._contexts.get(task_id)
        if ctx is None:
            raise ServiceError(f"unknown task {task_id!r}")
        panels = self.hardware.panels()
        model = self.simulator.build(self.ap.node(), ctx.points, panels)
        snrs = connectivity.snr_map_db(model, live_configs(panels), self.budget)
        return {
            "median_snr_db": float(np.median(snrs)),
            "min_snr_db": float(np.min(snrs)),
            "max_snr_db": float(np.max(snrs)),
        }

    def refresh_client_tasks(self, client_id: str) -> List[str]:
        """Re-point tasks at a client's current position (mobility).

        Called when an endpoint moves: every active task targeting the
        client gets its evaluation point updated so the next
        re-optimization serves the new location.  Returns the affected
        task ids.
        """
        position = self._client_point(client_id)
        affected = []
        for ctx in self._contexts.values():
            if ctx.task.is_terminal:
                continue
            if ctx.task.goal.get("client") != client_id:
                continue
            if ctx.task.service is ServiceType.SECURITY:
                # Keep the eavesdropper point, move the legitimate one.
                ctx.points = np.concatenate(
                    [position, ctx.points[1:]], axis=0
                )
            else:
                ctx.points = position.copy()
            affected.append(ctx.task.task_id)
        if affected:
            self.mark_dirty(*affected)
        return affected

    def complete_task(self, task_id: str) -> None:
        """Finish a task and release its resources."""
        self.scheduler.complete(task_id)
        self._contexts.pop(task_id, None)
        self._dirty_tasks.discard(task_id)
        self._solutions.forget_task(task_id)

    def tick(self, now: float) -> List[str]:
        """Advance time: commit in-flight writes, reap expired tasks."""
        self.clock_now = now
        self.hardware.commit_all(now)
        finished = self.scheduler.reap_expired(now)
        for task_id in finished:
            self._contexts.pop(task_id, None)
            self._dirty_tasks.discard(task_id)
            self._solutions.forget_task(task_id)
        return finished
