"""Differentiable service objectives over surface phase configurations.

Every objective is a real-valued loss of the phase vector ``φ`` of one
surface, evaluated through a :class:`LinearChannelForm`
(``h = C·x + d`` with ``x = a·e^{jφ}``).  Gradients are *analytic*
(Wirtinger calculus), so optimizing a 4096-element surface costs one
matrix pass per step instead of 4096 finite differences.

Conventions: for a real loss ``L`` of complex tensors, ``∂L/∂z`` is the
Wirtinger partial treating ``z̄`` as independent; the chain to phases is
``∂L/∂φ_e = 2·Re(j·x_e·Σ ∂L/∂h · ∂h/∂x_e) = −2·Im(x_e·Σ ∂L/∂h·C_e)``.

Service-specific losses built on these live with their services: the
paper's §4 localization loss ("the cross-entropy between the estimated
and true AoA") is :class:`~repro.services.sensing.SurfaceAoAObjective`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..channel.model import LinearChannelForm
from ..core.errors import OptimizationError
from ..em.noise import LinkBudget

_LN2 = math.log(2.0)


class Objective:
    """A differentiable loss over one surface's phase vector."""

    #: Number of phase variables.
    dim: int

    def value(self, phases: np.ndarray) -> float:
        """Loss at a phase vector."""
        return self.value_and_gradient(phases)[0]

    def value_many(self, phases_batch: np.ndarray) -> np.ndarray:
        """Losses for a batch of phase vectors, shape ``(P,)``.

        The population-evaluation hook the value-only optimizers route
        through.  The base implementation loops :meth:`value`; the
        ``LinearChannelForm``-backed objectives override it with one
        vectorized pass over the whole batch.
        """
        batch = self._check_batch(phases_batch)
        return np.array([self.value(row) for row in batch])

    def value_and_gradient(self, phases: np.ndarray) -> Tuple[float, np.ndarray]:
        """Loss and its analytic gradient."""
        raise NotImplementedError

    def _check(self, phases: np.ndarray) -> np.ndarray:
        phases = np.asarray(phases, dtype=float).reshape(-1)
        if phases.shape != (self.dim,):
            raise OptimizationError(
                f"phase vector has shape {phases.shape}, expected ({self.dim},)"
            )
        return phases

    def _check_batch(self, phases_batch: np.ndarray) -> np.ndarray:
        batch = np.atleast_2d(np.asarray(phases_batch, dtype=float))
        if batch.ndim != 2 or batch.shape[1] != self.dim:
            raise OptimizationError(
                f"phase batch has shape {batch.shape}, expected (P, {self.dim})"
            )
        return batch


def _phase_gradient(x: np.ndarray, accumulated: np.ndarray) -> np.ndarray:
    """``∂L/∂φ`` from the Wirtinger cogradient accumulated against x."""
    return -2.0 * np.imag(x * accumulated)


@dataclass(frozen=True)
class CoverageGoal:
    """Parameters of a coverage/link objective.

    Attributes:
        budget: link budget (tx power, bandwidth, noise).
        weights: optional per-point weights (defaults to uniform).
    """

    budget: LinkBudget
    weights: Optional[np.ndarray] = None


class CoverageObjective(Objective):
    """Negative mean Shannon capacity across evaluation points.

    The paper's coverage-task loss: "the negative sum of link capacity
    across different locations".  Capacity uses transmit MRT across the
    AP array: ``SNR_k = P_tx ‖h_k‖² / σ²``.
    """

    def __init__(
        self,
        form: LinearChannelForm,
        amplitudes: Optional[np.ndarray] = None,
        goal: Optional[CoverageGoal] = None,
    ):
        self.form = form
        self.dim = form.num_elements
        self.amplitudes = (
            np.ones(self.dim)
            if amplitudes is None
            else np.asarray(amplitudes, dtype=float).reshape(-1)
        )
        if self.amplitudes.shape != (self.dim,):
            raise OptimizationError("amplitudes shape mismatch")
        self.goal = goal or CoverageGoal(budget=LinkBudget())
        k = form.num_points
        if self.goal.weights is None:
            self._weights = np.full(k, 1.0 / k)
        else:
            w = np.asarray(self.goal.weights, dtype=float).reshape(-1)
            if w.shape != (k,) or np.any(w < 0):
                raise OptimizationError("weights must be non-negative, one per point")
            total = w.sum()
            if total <= 0:
                raise OptimizationError("weights must not all be zero")
            self._weights = w / total
        #: Packed kernel operands, built on the first batched call.
        self._packed: Optional[tuple] = None

    def snr_db(self, phases: np.ndarray) -> np.ndarray:
        """Per-point SNR (dB) at a phase vector — evaluation helper."""
        phases = self._check(phases)
        x = self.amplitudes * np.exp(1j * phases)
        h = self.form.evaluate(x)
        gains = np.sum(np.abs(h) ** 2, axis=1)
        return np.array([self.goal.budget.snr_db(g) for g in gains])

    def value_many(self, phases_batch: np.ndarray) -> np.ndarray:
        return _value_many_alone(self, _CoverageStack, phases_batch)

    def _forward(self, phases: np.ndarray):
        """Loss plus the intermediates its gradient reuses."""
        phases = self._check(phases)
        budget = self.goal.budget
        x = self.amplitudes * np.exp(1j * phases)
        h = self.form.evaluate(x)  # (K, M)
        power = np.sum(np.abs(h) ** 2, axis=1)  # ‖h_k‖²
        snr = budget.tx_power_watts * power / budget.noise_watts
        loss = -float(np.sum(self._weights * np.log2(1.0 + snr)))
        return loss, x, h, snr

    def value(self, phases: np.ndarray) -> float:
        return self._forward(phases)[0]

    def value_and_gradient(self, phases: np.ndarray) -> Tuple[float, np.ndarray]:
        loss, x, h, snr = self._forward(phases)
        budget = self.goal.budget
        # ∂loss/∂P_k, then ∂P_k/∂φ via the linear form.
        dloss_dpower = -(
            self._weights
            * (budget.tx_power_watts / budget.noise_watts)
            / ((1.0 + snr) * _LN2)
        )
        # ∂P_k/∂h_km (Wirtinger) = conj(h_km); accumulate through C.
        w_h = dloss_dpower[:, None] * np.conj(h)  # (K, M)
        acc = np.einsum("km,kme->e", w_h, self.form.coeffs)
        return loss, _phase_gradient(x, acc)


class PoweringObjective(Objective):
    """Negative mean harvested power (dB-scaled) at charging points.

    Wireless powering cares about raw incident power, not capacity;
    the dB scaling keeps gradients well-conditioned across the huge
    dynamic range of RF energy harvesting.
    """

    def __init__(
        self,
        form: LinearChannelForm,
        amplitudes: Optional[np.ndarray] = None,
        budget: Optional[LinkBudget] = None,
    ):
        self.form = form
        self.dim = form.num_elements
        self.amplitudes = (
            np.ones(self.dim)
            if amplitudes is None
            else np.asarray(amplitudes, dtype=float).reshape(-1)
        )
        self.budget = budget or LinkBudget()
        #: Packed kernel operands, built on the first batched call.
        self._packed: Optional[tuple] = None

    def harvested_dbm(self, phases: np.ndarray) -> np.ndarray:
        """Per-point harvested power (dBm) — evaluation helper."""
        from ..core.units import watts_to_dbm

        phases = self._check(phases)
        x = self.amplitudes * np.exp(1j * phases)
        h = self.form.evaluate(x)
        gains = np.sum(np.abs(h) ** 2, axis=1)
        return np.array(
            [watts_to_dbm(self.budget.tx_power_watts * g) for g in gains]
        )

    def value_many(self, phases_batch: np.ndarray) -> np.ndarray:
        return _value_many_alone(self, _PoweringStack, phases_batch)

    def _forward(self, phases: np.ndarray):
        """Loss plus the intermediates its gradient reuses."""
        phases = self._check(phases)
        x = self.amplitudes * np.exp(1j * phases)
        h = self.form.evaluate(x)
        power = np.sum(np.abs(h) ** 2, axis=1)
        mean_power = float(np.mean(power)) + 1e-30
        loss = -10.0 * math.log10(mean_power)
        return loss, x, h, mean_power

    def value(self, phases: np.ndarray) -> float:
        return self._forward(phases)[0]

    def value_and_gradient(self, phases: np.ndarray) -> Tuple[float, np.ndarray]:
        loss, x, h, mean_power = self._forward(phases)
        # d(-10·log10(mean P))/dP_k = -10 / (ln10 · mean P · K)
        k = self.form.num_points
        coef = -10.0 / (math.log(10.0) * mean_power * k)
        w_h = coef * np.conj(h)
        acc = np.einsum("km,kme->e", w_h, self.form.coeffs)
        return loss, _phase_gradient(x, acc)


class JointObjective(Objective):
    """Weighted sum of objectives sharing one phase vector.

    The paper's multitasking: "we minimize the sum of localization loss
    and coverage loss" with a single shared surface configuration.
    """

    def __init__(self, parts: Sequence[Tuple[Objective, float]]):
        if not parts:
            raise OptimizationError("joint objective needs at least one part")
        dims = {obj.dim for obj, _ in parts}
        if len(dims) != 1:
            raise OptimizationError(f"parts disagree on dimension: {dims}")
        self.parts: List[Tuple[Objective, float]] = list(parts)
        self.dim = dims.pop()
        #: ``(groups, loose)`` from :meth:`_grouped`, built on first use.
        self._groups: Optional[tuple] = None

    def value(self, phases: np.ndarray) -> float:
        total = 0.0
        for objective, weight in self.parts:
            total += weight * objective.value(phases)
        return total

    def value_and_gradient(self, phases: np.ndarray) -> Tuple[float, np.ndarray]:
        total = 0.0
        grad = np.zeros(self.dim)
        for objective, weight in self.parts:
            value, g = objective.value_and_gradient(phases)
            total += weight * value
            grad += weight * g
        return total, grad

    def _grouped(self) -> tuple:
        """Parts grouped by stack-kernel key, operands packed once.

        Returns ``(groups, loose)``: ``groups`` lists ``(kernel type,
        packed operands, part indices)``; ``loose`` lists the indices of
        parts without a kernel.  Safe to race: concurrent first calls
        build equal packs and one of them is kept.
        """
        grouped = self._groups
        if grouped is None:
            members: dict = {}
            loose = []
            for index, (part, _) in enumerate(self.parts):
                kernel = _leaf_kernel(part)
                if kernel is None:
                    loose.append(index)
                else:
                    members.setdefault(kernel.key, []).append((index, kernel))
            groups = []
            for group in members.values():
                kind = type(group[0][1])
                ops = kind.pack([kernel for _, kernel in group])
                groups.append((kind, ops, [index for index, _ in group]))
            grouped = self._groups = (groups, loose)
        return grouped

    def value_many(self, phases_batch: np.ndarray) -> np.ndarray:
        """Batched losses, one batched GEMM per group of same-shaped parts.

        Bit-identical to ``Σ w_i · part.value_many(batch)`` in part order.
        """
        batch = self._check_batch(phases_batch)
        groups, loose = self._grouped()
        values: List[Optional[np.ndarray]] = [None] * len(self.parts)
        # One (1, P, E) phase factor, broadcast over every group.
        phase = np.exp(1j * batch)[None]
        for kind, ops, indices in groups:
            for index, value in zip(indices, kind.evaluate_packed(ops, phase)):
                values[index] = value
        for index in loose:
            values[index] = np.asarray(self.parts[index][0].value_many(batch))
        total = np.zeros(batch.shape[0])
        for (_, weight), value in zip(self.parts, values):
            total += weight * value
        return total


# ----------------------------------------------------------------------
# batched loss kernels
# ----------------------------------------------------------------------
#
# Every batched coverage/powering loss runs through one kernel per kind:
# a group of ``G`` same-shaped objectives is packed into stacked
# operands and one shared ``(1, P, E)`` candidate batch evaluates as
# *one* batched GEMM (``np.matmul`` over ``(G, E, K·M)`` operands) plus
# one pass of vectorized loss math.  A lone objective's ``value_many``
# is the ``G = 1`` case; :class:`JointObjective` groups its parts by
# kernel key and feeds every group the same batch (co-served tasks
# share the surface configuration).
#
# Kernels take the phase factor ``e^{jθ}`` rather than ``θ``, so each
# caller computes it once for all the groups it feeds.  A group whose
# parts share one amplitude row (every part on a panel does) packs it
# as a single ``(1, E)`` row: ``x = a·e^{jθ}`` then stays ``(1, P, E)``
# and ``np.matmul`` broadcasts it over the group's ``G`` GEMMs.
#
# Determinism: a batched-matmul slice runs the *same* BLAS kernel with
# the *same* operand shapes as one objective's own GEMM, and every loss
# reduction keeps its part-local axis order, so grouping never changes
# bits (asserted in tests/orchestrator/test_joint_grouped.py).  Parts
# are deliberately *not* concatenated along K into one wider GEMM: a
# different GEMM shape may take a different BLAS blocking and round
# differently.


def _stack(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """``np.stack``, except that a lone array becomes a view, not a copy."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _pack_amplitudes(kernels: Sequence) -> np.ndarray:
    """One ``(1, E)`` amplitude row when a group's rows are all equal,
    else the ``(G, E)`` stack."""
    first = kernels[0].amplitudes
    if all(np.array_equal(kern.amplitudes, first) for kern in kernels[1:]):
        return first[None]
    return np.stack([kern.amplitudes for kern in kernels])


def _channels(x: np.ndarray, bts: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """``h = C·x + d`` as ``(G, P, K, M)``: one batched GEMM, offsets added
    in place.  A ``(1, P, E)`` ``x`` broadcasts over the ``G`` GEMMs."""
    h = np.matmul(x, bts)  # (G, P, K·M)
    h = h.reshape(h.shape[:2] + offsets.shape[2:])
    h += offsets
    return h


def _power(h: np.ndarray) -> np.ndarray:
    """``‖h_k‖²`` per point: ``Σ_m |h_km|²`` over the last axis."""
    a = np.abs(h)
    a *= a
    return np.add.reduce(a, axis=-1)


def _pack_contractions(kernels: Sequence) -> np.ndarray:
    """The ``(G, E, K·M)`` GEMM operand of a group of kernels.

    Each kernel holds its form's ``coeffs`` as ``(K·M, E)`` rows (a
    view); stacking the rows and transposing the stack makes every
    operand slice the Fortran-ordered ``(E, K·M)`` view that
    ``np.tensordot(x, coeffs, ([1], [2]))`` multiplies against.  BLAS
    then runs the same kernel on the same layout (``gemm``, or ``gemv``
    for a one-row batch) for a lone objective and inside every group.
    """
    return _stack([kern.rows for kern in kernels]).transpose(0, 2, 1)


class _CoverageStack:
    """Stackable kernel for one :class:`CoverageObjective`."""

    __slots__ = ("key", "amplitudes", "rows", "offset", "weights", "tx", "noise")

    def __init__(self, obj: "CoverageObjective"):
        form = obj.form
        self.key = ("coverage", form.num_points, form.num_antennas, form.num_elements)
        self.amplitudes = obj.amplitudes
        self.rows = form.coeffs.reshape(-1, form.num_elements)
        self.offset = form.offset
        self.weights = obj._weights
        self.tx = obj.goal.budget.tx_power_watts
        self.noise = obj.goal.budget.noise_watts

    @staticmethod
    def pack(kernels: Sequence["_CoverageStack"]) -> tuple:
        """Stack per-task operands once; reused across solver iterations."""
        return (
            _pack_amplitudes(kernels),
            _pack_contractions(kernels),
            _stack([kern.offset for kern in kernels])[:, None, :, :],
            _stack([kern.weights for kern in kernels])[:, None, :],
            np.array([kern.tx for kern in kernels])[:, None, None],
            np.array([kern.noise for kern in kernels])[:, None, None],
        )

    @staticmethod
    def evaluate_packed(ops: tuple, phase: np.ndarray) -> np.ndarray:
        """``(G, P)`` losses for a shared ``(1, P, E)`` phase factor
        ``e^{jθ}``."""
        amps, bts, offsets, weights, tx, noise = ops
        h = _channels(amps[:, None, :] * phase, bts, offsets)  # (G, P, K, M)
        power = _power(h)  # (G, P, K)
        power *= tx
        power /= noise
        power += 1.0
        np.log2(power, out=power)
        power *= weights
        loss = np.add.reduce(power, axis=2)
        return np.negative(loss, out=loss)


class _PoweringStack:
    """Stackable kernel for one :class:`PoweringObjective`."""

    __slots__ = ("key", "amplitudes", "rows", "offset")

    def __init__(self, obj: "PoweringObjective"):
        form = obj.form
        self.key = ("powering", form.num_points, form.num_antennas, form.num_elements)
        self.amplitudes = obj.amplitudes
        self.rows = form.coeffs.reshape(-1, form.num_elements)
        self.offset = form.offset

    @staticmethod
    def pack(kernels: Sequence["_PoweringStack"]) -> tuple:
        """Stack per-task operands once; reused across solver iterations."""
        return (
            _pack_amplitudes(kernels),
            _pack_contractions(kernels),
            _stack([kern.offset for kern in kernels])[:, None, :, :],
        )

    @staticmethod
    def evaluate_packed(ops: tuple, phase: np.ndarray) -> np.ndarray:
        """``(G, P)`` losses for a shared ``(1, P, E)`` phase factor
        ``e^{jθ}``."""
        amps, bts, offsets = ops
        h = _channels(amps[:, None, :] * phase, bts, offsets)  # (G, P, K, M)
        mean_power = np.mean(_power(h), axis=2)  # (G, P)
        mean_power += 1e-30
        np.log10(mean_power, out=mean_power)
        mean_power *= -10.0
        return mean_power


def _leaf_kernel(objective: Objective):
    """The coverage/powering kernel for an objective, or ``None``."""
    if type(objective) is CoverageObjective:
        return _CoverageStack(objective)
    if type(objective) is PoweringObjective:
        return _PoweringStack(objective)
    return None


def _value_many_alone(objective: Objective, kind, phases_batch) -> np.ndarray:
    """One objective's batched losses: the ``G = 1`` case of its kernel."""
    batch = objective._check_batch(phases_batch)
    ops = objective._packed
    if ops is None:
        ops = objective._packed = kind.pack([kind(objective)])
    return kind.evaluate_packed(ops, np.exp(1j * batch)[None])[0]


class FiniteDifferenceObjective(Objective):
    """Wrap any black-box loss with central finite differences.

    Exists for cross-checking analytic gradients in tests and for
    exotic user-defined losses; O(dim) evaluations per gradient.
    """

    def __init__(self, fn, dim: int, step: float = 1e-6):
        self._fn = fn
        self.dim = dim
        self.step = step

    def value(self, phases: np.ndarray) -> float:
        return float(self._fn(self._check(phases)))

    def value_and_gradient(self, phases: np.ndarray) -> Tuple[float, np.ndarray]:
        phases = self._check(phases)
        base = self.value(phases)
        grad = np.zeros(self.dim)
        for e in range(self.dim):
            up = phases.copy()
            down = phases.copy()
            up[e] += self.step
            down[e] -= self.step
            grad[e] = (self._fn(up) - self._fn(down)) / (2.0 * self.step)
        return base, grad
