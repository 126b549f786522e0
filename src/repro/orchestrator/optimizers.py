"""Configuration optimizers for the surface orchestrator (§3.2).

The paper's optimizer "uses gradient descent, while other algorithms can
be easily supported" — here are four interchangeable ones behind a
common interface: Adam and vanilla gradient descent (analytic
gradients), random search, and simulated annealing (value-only).

Hardware constraints (phase quantization, coarse granularity) are
expressed as an optional *projection* applied to the final answer and,
for projected-descent variants, at every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from ..core.errors import OptimizationError
from .objectives import Objective

#: Maps a raw phase vector onto the hardware's feasible set.
Projection = Callable[[np.ndarray], np.ndarray]

#: Largest block of :class:`RandomSearch` draws kept between solves
#: (60 iterations × 16 × 64 elements is 0.5 MB).
_NORMALS_KEPT_BYTES = 4 << 20


@dataclass
class OptimizationResult:
    """Outcome of one optimizer run.

    Attributes:
        phases: best feasible phase vector found.
        loss: objective value at ``phases`` (after projection).
        history: loss trajectory; ``history[0]`` is the initial
            incumbent, one entry per iteration/step after that.
        iterations: iterations actually executed (the initial incumbent
            evaluation is *not* an iteration).
        converged: whether the tolerance stop fired before the budget.
        evaluations: total objective evaluations spent, including the
            initial incumbent and the final projected evaluation.
        budget: the iteration/step limit this run was allowed (the
            optimizer's own full budget unless the caller passed a
            smaller adaptive one; 0 for optimizers with no such limit).
        early_stopped: whether the relative-improvement early stop
            fired before the budget ran out.
    """

    phases: np.ndarray
    loss: float
    history: List[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    evaluations: int = 0
    budget: int = 0
    early_stopped: bool = False


class _EarlyStop:
    """Relative-improvement convergence tracker for value-only search.

    Stops once the best loss improves by less than
    ``eps * max(|previous best|, tiny)`` for ``patience`` consecutive
    checks.  ``eps=None`` disables tracking entirely (never stops).
    The decision depends only on the loss stream, never on wall clock,
    so it is deterministic across repeats.
    """

    __slots__ = ("eps", "patience", "stall", "stopped")

    #: Floor on the relative-improvement denominator near zero loss.
    SCALE_FLOOR = 1e-12

    def __init__(self, eps: Optional[float], patience: int):
        self.eps = eps
        self.patience = max(1, int(patience))
        self.stall = 0
        self.stopped = False

    def update(self, previous_best: float, best: float) -> bool:
        """Record one check; returns True once stopped."""
        if self.eps is None or self.stopped:
            return self.stopped
        scale = max(abs(previous_best), self.SCALE_FLOOR)
        if (previous_best - best) >= self.eps * scale:
            self.stall = 0
        else:
            self.stall += 1
            if self.stall >= self.patience:
                self.stopped = True
        return self.stopped


class Optimizer:
    """Interface: minimize an objective from an initial phase vector."""

    #: Optional telemetry sink; set via :meth:`bind_telemetry`.
    telemetry = None

    def optimize(
        self,
        objective: Objective,
        initial_phases: np.ndarray,
        projection: Optional[Projection] = None,
        budget: Optional[int] = None,
    ) -> OptimizationResult:
        """Run the optimizer; always returns a projected, evaluated result.

        ``budget`` caps the iteration/step count below the optimizer's
        own limit (``None`` = full budget).  Budgets never raise the
        limit, only lower it.
        """
        raise NotImplementedError

    @property
    def full_budget(self) -> Optional[int]:
        """The optimizer's own iteration/step limit (None = unbounded)."""
        for attr in ("max_iterations", "steps"):
            value = getattr(self, attr, None)
            if value is not None:
                return int(value)
        return None

    def _limit(self, budget: Optional[int]) -> Optional[int]:
        """The effective iteration limit for one run under ``budget``."""
        full = self.full_budget
        if budget is None:
            return full
        if full is None:
            return max(0, int(budget))
        return max(0, min(int(budget), full))

    def bind_telemetry(self, telemetry) -> None:
        """Attach a telemetry instance for objective-evaluation counters."""
        self.telemetry = telemetry

    def optimize_many(
        self,
        objectives: List[Objective],
        initial_phases: List[np.ndarray],
        projection: Optional[Projection] = None,
        budgets: Optional[List[Optional[int]]] = None,
    ) -> List[OptimizationResult]:
        """Optimize several independent tasks over one phase space.

        Each (objective, initial) pair is an independent solve: one
        :meth:`optimize` call per pair, results in input order.
        ``budgets`` optionally caps each task's iterations (one entry
        per task, ``None`` = full budget).
        """
        if len(objectives) != len(initial_phases):
            raise OptimizationError(
                f"{len(objectives)} objectives but "
                f"{len(initial_phases)} initial phase vectors"
            )
        if budgets is None:
            budgets = [None] * len(objectives)
        elif len(budgets) != len(objectives):
            raise OptimizationError(
                f"{len(objectives)} objectives but {len(budgets)} budgets"
            )
        return [
            self.optimize(objective, initial, projection, budget=budget)
            for objective, initial, budget in zip(
                objectives, initial_phases, budgets
            )
        ]

    def _count_evals(self, count: int) -> None:
        if self.telemetry is not None and count:
            self.telemetry.counter("optimizer.objective_evaluations", count)

    def _finalize(
        self,
        objective: Objective,
        phases: np.ndarray,
        history: List[float],
        iterations: int,
        converged: bool,
        projection: Optional[Projection],
        evaluations: int = 0,
        budget: int = 0,
        early_stopped: bool = False,
    ) -> OptimizationResult:
        if projection is not None:
            phases = projection(phases)
        loss = objective.value(phases)
        self._count_evals(1)
        return OptimizationResult(
            phases=phases,
            loss=loss,
            history=history,
            iterations=iterations,
            converged=converged,
            evaluations=evaluations + 1,
            budget=budget,
            early_stopped=early_stopped,
        )


@dataclass
class GradientDescent(Optimizer):
    """Plain gradient descent with optional momentum.

    Attributes:
        learning_rate: step size on the phase vector.
        momentum: classical momentum coefficient (0 disables).
        max_iterations: iteration budget.
        tolerance: stop when the loss improves less than this.
        project_each_step: apply the projection inside the loop
            (projected gradient descent) instead of only at the end.
    """

    learning_rate: float = 0.3
    momentum: float = 0.0
    max_iterations: int = 150
    tolerance: float = 1e-7
    project_each_step: bool = False

    def optimize(self, objective, initial_phases, projection=None, budget=None):
        phases = np.asarray(initial_phases, dtype=float).reshape(-1).copy()
        velocity = np.zeros_like(phases)
        history: List[float] = []
        converged = False
        limit = self._limit(budget)
        for iteration in range(limit):
            loss, grad = objective.value_and_gradient(phases)
            history.append(loss)
            if len(history) > 1 and abs(history[-2] - loss) < self.tolerance:
                converged = True
                break
            velocity = self.momentum * velocity - self.learning_rate * grad
            phases = phases + velocity
            if self.project_each_step and projection is not None:
                phases = projection(phases)
        self._count_evals(len(history))
        return self._finalize(
            objective, phases, history, len(history), converged, projection,
            evaluations=len(history), budget=limit,
        )


@dataclass
class Adam(Optimizer):
    """Adam: the default optimizer for every experiment in this repo."""

    learning_rate: float = 0.15
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    max_iterations: int = 200
    tolerance: float = 1e-7

    def optimize(self, objective, initial_phases, projection=None, budget=None):
        phases = np.asarray(initial_phases, dtype=float).reshape(-1).copy()
        m = np.zeros_like(phases)
        v = np.zeros_like(phases)
        history: List[float] = []
        best_phases, best_loss = phases.copy(), math.inf
        converged = False
        limit = self._limit(budget)
        for iteration in range(1, limit + 1):
            loss, grad = objective.value_and_gradient(phases)
            history.append(loss)
            if loss < best_loss:
                best_loss, best_phases = loss, phases.copy()
            if len(history) > 5 and abs(history[-5] - loss) < self.tolerance:
                converged = True
                break
            m = self.beta1 * m + (1.0 - self.beta1) * grad
            v = self.beta2 * v + (1.0 - self.beta2) * grad * grad
            m_hat = m / (1.0 - self.beta1 ** iteration)
            v_hat = v / (1.0 - self.beta2 ** iteration)
            phases = phases - self.learning_rate * m_hat / (
                np.sqrt(v_hat) + self.epsilon
            )
        self._count_evals(len(history))
        return self._finalize(
            objective, best_phases, history, len(history), converged, projection,
            evaluations=len(history), budget=limit,
        )


@dataclass
class RandomSearch(Optimizer):
    """Gaussian perturbation search (no gradients).

    Keeps the incumbent and samples ``population`` perturbations per
    iteration — evaluated as one batch through
    :meth:`Objective.value_many` — with a step scale that decays on
    failure to improve.
    """

    population: int = 16
    initial_scale: float = 1.0
    decay: float = 0.9
    max_iterations: int = 60
    seed: int = 0
    #: Relative-improvement early stop: quit once the best loss improves
    #: by less than ``early_stop_eps * |best|`` for
    #: ``early_stop_patience`` consecutive iterations.  ``None``
    #: disables the stop — bit-identical to the fixed-budget loop.
    early_stop_eps: Optional[float] = None
    early_stop_patience: int = 3
    #: Standard-normal draws per ``(seed, population, dim)``, read-only.
    _normals: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _draws(self, dim: int, rows: int) -> np.ndarray:
        """``(≥rows, population, dim)`` normals: every solve reseeds, so
        each draws this stream, and ``scale * draws[i]`` has the bits of
        ``rng.normal(scale=scale)`` (NumPy's ``0.0 + scale·z``)."""
        key = (self.seed, self.population, dim)
        draws = self._normals.get(key)
        if draws is None or len(draws) < rows:
            rng = np.random.default_rng(self.seed)
            draws = rng.standard_normal((rows, self.population, dim))
            draws.flags.writeable = False
            if draws.nbytes <= _NORMALS_KEPT_BYTES:
                self._normals[key] = draws
        return draws

    def optimize(self, objective, initial_phases, projection=None, budget=None):
        phases = np.asarray(initial_phases, dtype=float).reshape(-1).copy()
        best_loss = float(objective.value(phases))
        evaluations = 1
        history = [best_loss]
        scale = self.initial_scale
        limit = self._limit(budget)
        stop = _EarlyStop(self.early_stop_eps, self.early_stop_patience)
        draws = self._draws(phases.size, limit)
        # Refilled every iteration; the incumbent is always a copy.
        candidates = np.empty((self.population, phases.size))
        for i in range(limit):
            np.multiply(draws[i], scale, out=candidates)
            candidates += phases
            losses = objective.value_many(candidates)
            evaluations += self.population
            previous = best_loss
            j = losses.argmin()
            if losses[j] < best_loss:
                best_loss, phases = float(losses[j]), candidates[j].copy()
            else:
                scale *= self.decay
            history.append(best_loss)
            if stop.update(previous, best_loss):
                break
        self._count_evals(evaluations)
        return self._finalize(
            objective, phases, history, len(history) - 1, False, projection,
            evaluations=evaluations, budget=limit,
            early_stopped=stop.stopped,
        )


@dataclass
class SimulatedAnnealing(Optimizer):
    """Metropolis annealing over per-element phase flips.

    Proposals perturb a random subset of phases; acceptance follows the
    Metropolis rule under a geometric temperature schedule.  Useful for
    heavily quantized hardware where gradients are uninformative.

    Proposals are evaluated speculatively in blocks of ``speculation``
    through :meth:`Objective.value_many`: all candidates in a block are
    drawn from the current state, scanned in order, and the tail of the
    block is discarded as stale once a proposal is accepted.  The
    Metropolis acceptance law is unchanged; only the RNG trajectory
    differs from a strictly sequential scan.
    """

    initial_temperature: float = 1.0
    cooling: float = 0.97
    steps: int = 600
    subset_fraction: float = 0.1
    proposal_scale: float = 1.5
    speculation: int = 8
    seed: int = 0
    #: Relative-improvement early stop, checked once per speculative
    #: *block* (patience counts blocks, not steps): a whole block —
    #: proposals, normals, and acceptance uniforms — is drawn before
    #: evaluation, so the stop never cuts a block's draws short.
    #: ``None`` disables.
    early_stop_eps: Optional[float] = None
    early_stop_patience: int = 3

    def optimize(self, objective, initial_phases, projection=None, budget=None):
        if not 0.0 < self.subset_fraction <= 1.0:
            raise OptimizationError("subset_fraction must lie in (0, 1]")
        if self.speculation < 1:
            raise OptimizationError("speculation must be at least 1")
        rng = np.random.default_rng(self.seed)
        phases = np.asarray(initial_phases, dtype=float).reshape(-1).copy()
        current = float(objective.value(phases))
        self._count_evals(1)
        evaluations = 1
        best_phases, best_loss = phases.copy(), current
        history = [current]
        temperature = self.initial_temperature
        subset = max(1, int(round(self.subset_fraction * phases.size)))
        steps_done = 0
        limit = self._limit(budget)
        stop = _EarlyStop(self.early_stop_eps, self.early_stop_patience)
        while steps_done < limit and not stop.stopped:
            block = min(self.speculation, limit - steps_done)
            candidates = np.tile(phases, (block, 1))
            for j in range(block):
                idx = rng.choice(phases.size, size=subset, replace=False)
                candidates[j, idx] += rng.normal(
                    scale=self.proposal_scale, size=subset
                )
            uniforms = rng.random(block)
            losses = objective.value_many(candidates)
            self._count_evals(block)
            evaluations += block
            previous = best_loss
            for j in range(block):
                loss = float(losses[j])
                accept = loss < current or uniforms[j] < math.exp(
                    -(loss - current) / max(temperature, 1e-12)
                )
                if accept:
                    phases, current = candidates[j].copy(), loss
                    if loss < best_loss:
                        best_phases, best_loss = phases.copy(), loss
                history.append(current)
                steps_done += 1
                temperature *= self.cooling
                if accept:
                    break
            stop.update(previous, best_loss)
        return self._finalize(
            objective, best_phases, history, steps_done, False, projection,
            evaluations=evaluations, budget=limit,
            early_stopped=stop.stopped,
        )


def panel_projection(panel) -> Projection:
    """The projection implied by a panel's spec (granularity + bits).

    Returns a callable mapping raw flat phases onto what the hardware
    will actually actuate, via :meth:`SurfacePanel.feasible_phases`.
    """
    shape = panel.shape

    def project(phases: np.ndarray) -> np.ndarray:
        return panel.feasible_phases(np.reshape(phases, shape)).reshape(-1)

    return project
