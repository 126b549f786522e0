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
import threading
from collections import namedtuple
from dataclasses import dataclass
from itertools import accumulate
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
    #: Coverage/powering/joint loss pack, built on first use.
    _pack: Optional["_LossPack"] = None

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
        batch = phases_batch  # a float64 matrix passes as it is
        if type(batch) is not np.ndarray or batch.dtype != float or batch.ndim != 2:
            batch = np.atleast_2d(np.asarray(batch, dtype=float))
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

    def snr_db(self, phases: np.ndarray) -> np.ndarray:
        """Per-point SNR (dB) at a phase vector — evaluation helper."""
        phases = self._check(phases)
        x = self.amplitudes * np.exp(1j * phases)
        h = self.form.evaluate(x)
        gains = np.sum(np.abs(h) ** 2, axis=1)
        return np.array([self.goal.budget.snr_db(g) for g in gains])

    def value_many(self, phases_batch: np.ndarray) -> np.ndarray:
        return _loss_pack(self, [(self, 1.0)]).value_many(self._check_batch(phases_batch))

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
        return _loss_pack(self, [(self, 1.0)]).value_many(self._check_batch(phases_batch))

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

    def value(self, phases: np.ndarray) -> float:
        """``Σ w_i · part.value(phases)`` in part order, bit for bit."""
        return _loss_pack(self, self.parts).value(self._check(phases))

    def value_and_gradient(self, phases: np.ndarray) -> Tuple[float, np.ndarray]:
        total = 0.0
        grad = np.zeros(self.dim)
        for objective, weight in self.parts:
            value, g = objective.value_and_gradient(phases)
            total += weight * value
            grad += weight * g
        return total, grad

    def value_many(self, phases_batch: np.ndarray) -> np.ndarray:
        """``Σ w_i · part.value_many(batch)`` in part order, bit for bit."""
        return _loss_pack(self, self.parts).value_many(self._check_batch(phases_batch))


# ----------------------------------------------------------------------
# the loss pack
# ----------------------------------------------------------------------
#
# Every coverage/powering loss, lone or in a joint, runs through one
# immutable pack built lazily once per objective.  Its parts sit in one
# flat part-major buffer, a ``(P, K_i, M_i)`` block each for a ``P``-row
# batch, grouped by kernel key ``(kind, K, M)`` with coverage first.  A
# batch costs one shared ``x = a·e^{jθ}`` (a row per distinct amplitude
# vector; a panel's parts share one, and an all-ones row is skipped),
# one ``np.matmul`` per group (``(G, P, E) @ (G, E, K·M)``) into the
# buffer, one elementwise pass over every point (offsets, ``|h|²``,
# ``Σ_M``, then ``·tx / noise + 1``, ``log2`` and point weights), one
# ``Σ_K`` per group into a ``(parts, P)`` array, the powering rows'
# ``mean → log10``, one negation, ``× w`` and a cumulative sum down the
# parts: the same sequential part-order sum as ``total += w_i · v_i``.
# Parts without a kernel (localization, nested joints such as security)
# fill their own row.  ``value`` is the one-row case with one stacked
# ``(G, K, M, E) @ (E, 1)`` matmul per group, which NumPy runs as one
# ``gemv`` per ``(M, E)`` slice: each part's own ``form.evaluate`` call.
#
# Each thread keeps one plan per row count in the pack's
# ``threading.local``: every buffer and view a pass touches (phase,
# amplitude and channel buffers, ``|h|²``, point sums, each group's GEMM
# ``out=`` and ``Σ_M``/``Σ_K`` views, loss rows, per-point factors laid
# out for that row count).  A pass fills its plan in place; plans never
# point back at the pack, so they die with it.
#
# Determinism: a GEMM slice runs the *same* BLAS kernel on the *same*
# operand shapes and layout as one objective's own GEMM, and ``Σ_M`` and
# ``Σ_K`` reduce contiguous last axes as each part's own loss does, so
# packing never changes bits (asserted in test_joint_grouped.py and
# test_joint_pack_properties.py).  The ``out=`` forms run the same
# ufunc loops as the allocating ones.  Parts are deliberately *not*
# concatenated along K into one wider GEMM: a different GEMM shape may
# take a different BLAS blocking and round differently.

#: One kernel key's parts: entry/point bounds, first row, G, K, M, amplitude
#: rows, ``(G, K, M, E)`` coefficients and their ``(G, E, K·M)`` GEMM operand.
_Group = namedtuple("_Group", "e0 e1 p0 p1 row size points antennas amplitudes stack bts")

#: The scalar log each powering part's own ``value`` takes; ``np.log10``
#: differs from it in the last bit on some inputs.
_SCALAR_LOG10 = np.vectorize(math.log10, otypes=[float])


def _loss_pack(objective: Objective, parts) -> "_LossPack":
    """``objective``'s pack, built on first use (racing builds are equal)."""
    pack = objective._pack
    if pack is None:
        pack = objective._pack = _LossPack(parts)
    return pack


class _Plan:
    """One thread's buffers and views for ``p``-row batches of one pack."""

    def __init__(self, pack: "_LossPack", p: int):
        self.losses = np.empty((pack.rows, p))
        self.spare = np.empty((pack.rows, p))  # the cumulative sum goes here
        if not pack.groups:
            return
        dim = pack.dim
        self.phase = np.empty((p, dim), dtype=complex)
        self.x = self.phase[None] if pack.scale is None else np.empty(
            (len(pack.amplitudes), p, dim), dtype=complex)
        # A group with one shared amplitude row views it; others gather theirs.
        self.operands = [self.x[g.amplitudes] if isinstance(g.amplitudes, slice)
                         else np.empty((g.size, p, dim), dtype=complex) for g in pack.groups]
        self.h = np.empty(p * pack.entries, dtype=complex)
        self.power = np.empty(p * pack.entries)
        points = np.empty(p * pack.points)
        self.outs, self.m_sums, self.k_sums = [], [], []
        for g in pack.groups:
            sums = points[p * g.p0 : p * g.p1]
            self.outs.append(self.h[p * g.e0 : p * g.e1].reshape(g.size, p, -1))
            self.m_sums.append((self.power[p * g.e0 : p * g.e1].reshape(-1, g.antennas), sums))
            rows = self.losses[g.row : g.row + g.size]
            self.k_sums.append((sums.reshape(g.size, p, g.points), rows))

        def per_row(blocks, flat):  # each (lo, hi, G) block of one row as (G, p, L)
            return np.concatenate([
                flat[lo:hi].reshape(g, 1, -1).repeat(p, axis=1).reshape(-1) for lo, hi, g in blocks
            ] or [flat])

        offsets, *coverage = pack.factors
        cover = [(g.p0, g.p1, g.size) for g in pack.groups if g.row < pack.coverage_rows]
        self.offsets = per_row([(g.e0, g.e1, g.size) for g in pack.groups], offsets)
        self.tx, self.noise, self.point_weights = (per_row(cover, f) for f in coverage)
        self.snr = points[: self.tx.size]  # the coverage points


class _LossPack:
    """One objective's parts, packed once for batched and scalar losses.

    Rows hold the kernel parts group by group, then the loose parts.
    Entry/point bounds are for one row; ``P`` rows scale them by ``P``.
    Nothing changes after the build but the per-thread plans.
    """

    def __init__(self, parts: Sequence[Tuple[Objective, float]]):
        kinds = {CoverageObjective: 0, PoweringObjective: 1}  # coverage rows first
        members: dict = {}
        for i, (part, _) in enumerate(parts):
            if type(part) in kinds:
                form = part.form
                key = (kinds[type(part)], form.num_points, form.num_antennas)
                members.setdefault(key, []).append(i)
        keyed = sorted(members.items(), key=lambda item: (item[0][0], item[1][0]))
        order = [i for _, indices in keyed for i in indices]
        kernel = [parts[i][0] for i in order]
        order += [i for i, (part, _) in enumerate(parts) if type(part) not in kinds]
        # Not ``parts``: a lone objective's parts hold the objective itself.
        self.rows, self.kernel_rows = len(parts), len(kernel)
        self.coverage_rows = sum(len(ix) for key, ix in keyed if key[0] == 0)
        self.loose = [(row, parts[i][0]) for row, i in enumerate(order)][len(kernel) :]
        weights = [parts[i][1] for i in order]
        # One part at weight 1 (a lone objective) is its own total.
        self.weights = None if weights == [1.0] else np.array(weights, dtype=float)[:, None]
        #: Row of each part, or ``None`` when rows are in part order.
        self.order = None if order == sorted(order) else np.argsort(order)
        coverage, powering = kernel[: self.coverage_rows], kernel[self.coverage_rows :]
        self.powering_points = np.array([o.form.num_points for o in powering], float)[:, None]

        distinct: dict = {}  # amplitude bytes → (row, vector)
        amp = [distinct.setdefault(o.amplitudes.tobytes(), (len(distinct), o.amplitudes))[0]
               for o in kernel]
        self.amplitudes = np.array([vector for _, vector in distinct.values()])
        #: ``(A, 1, E)`` amplitude rows, or ``None`` for one all-ones row.
        ones = len(distinct) == 1 and bool((self.amplitudes == 1.0).all())
        self.scale = None if ones else self.amplitudes[:, None]
        points = [o.form.num_points for o in kernel]
        e = list(accumulate((o.form.offset.size for o in kernel), initial=0))
        p = list(accumulate(points, initial=0))
        self.entries, self.points = e[-1], p[-1]
        self.dim = dim = parts[0][0].dim
        rows = [o.form.coeffs.reshape(-1, dim) for o in kernel]
        # A lone objective's pack views its form's coefficients, not a copy.
        coeffs = rows[0] if len(rows) == 1 else np.concatenate(rows or [np.empty((0, dim))])
        self.groups, hi = [], 0
        for (_, k, m), indices in keyed:
            lo, hi = hi, hi + len(indices)
            shared = len(set(amp[lo:hi])) == 1
            select = slice(amp[lo], amp[lo] + 1) if shared else np.array(amp[lo:hi])
            stack = coeffs[e[lo] : e[hi]].reshape(hi - lo, k, m, dim)
            # Fortran-ordered (E, K·M) slices, as a lone form's own GEMM.
            bts = stack.reshape(hi - lo, k * m, dim).transpose(0, 2, 1)
            self.groups.append(
                _Group(e[lo], e[hi], p[lo], p[hi], lo, hi - lo, k, m, select, stack, bts)
            )
        budgets = [o.goal.budget for o in coverage]
        coverage_points = points[: len(coverage)]
        #: One row's offsets, then the coverage points' tx, noise and weights.
        self.factors = (
            np.concatenate([o.form.offset.reshape(-1) for o in kernel] or [np.empty(0)]),
            np.array([b.tx_power_watts for b in budgets]).repeat(coverage_points),
            np.array([b.noise_watts for b in budgets]).repeat(coverage_points),
            np.concatenate([o._weights for o in coverage] or [np.empty(0)]),
        )
        self._plans = threading.local()

    def value_many(self, batch: np.ndarray) -> np.ndarray:
        """``(P,)`` weighted losses of a checked ``(P, E)`` batch."""
        return self._pass(batch).copy()

    def value(self, phases: np.ndarray) -> float:
        """The weighted loss of a checked ``(E,)`` phase vector."""
        return float(self._pass(phases)[0])

    def _pass(self, phases: np.ndarray) -> np.ndarray:
        """The one loss pass: a ``(P, E)`` batch or one ``(E,)`` vector → a plan row."""
        scalar = phases.ndim == 1
        rows = 1 if scalar else len(phases)
        plans = self._plans.__dict__  # this thread's plans by row count
        plan = plans.get(rows) or plans.setdefault(rows, _Plan(self, rows))
        if self.groups:
            np.multiply(phases, 1j, out=plan.phase)
            np.exp(plan.phase, out=plan.phase)
            if self.scale is not None:
                np.multiply(self.scale, plan.phase, out=plan.x)
            for g, x, out in zip(self.groups, plan.operands, plan.outs):
                if not isinstance(g.amplitudes, slice):
                    np.take(plan.x, g.amplitudes, axis=0, out=x)
                if scalar:  # one gemv per part, as its own form.evaluate
                    out = out.reshape(g.size, g.points, g.antennas, 1)
                    np.matmul(g.stack, x[..., None], out=out)
                else:
                    np.matmul(x, g.bts, out=out)
            self._losses(plan, _SCALAR_LOG10 if scalar else np.log10)
        losses, spare = plan.losses, plan.spare
        for row, part in self.loose:
            losses[row] = part.value(phases) if scalar else part.value_many(phases)
        # Σ w_i · v_i in part order, added sequentially.
        if self.weights is None:
            return losses[0]
        losses *= self.weights
        if self.order is not None:
            losses, spare = np.take(losses, self.order, axis=0, out=spare), losses
        return np.add.accumulate(losses, axis=0, out=spare)[-1]

    def _losses(self, plan: _Plan, log10) -> None:
        """Fill the kernel rows of the plan's losses from its channel buffer."""
        plan.h += plan.offsets
        power = np.abs(plan.h, out=plan.power)
        power *= power
        for source, sums in plan.m_sums:  # Σ_M
            np.add.reduce(source, axis=1, out=sums)
        if self.coverage_rows:
            snr = plan.snr
            snr *= plan.tx
            snr /= plan.noise
            snr += 1.0
            np.log2(snr, out=snr)
            snr *= plan.point_weights
        for sums, losses in plan.k_sums:  # Σ_K
            np.add.reduce(sums, axis=2, out=losses)
        kernel = plan.losses[: self.kernel_rows]
        if self.kernel_rows > self.coverage_rows:
            mean = kernel[self.coverage_rows :]  # the powering rows
            mean /= self.powering_points
            mean += 1e-30
            mean[...] = log10(mean)
            mean *= 10.0
        np.negative(kernel, out=kernel)


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
