"""Differentiable service objectives over surface phase configurations.

Every objective is a real-valued loss of the phase vector ``φ`` of one
surface, evaluated through a :class:`LinearChannelForm`
(``h = C·x + d`` with ``x = a·e^{jφ}``).  Gradients are *analytic*
(Wirtinger calculus), so optimizing a 4096-element surface costs one
matrix pass per step instead of 4096 finite differences.  Coverage and
powering losses, lone or in a joint, take value and gradient from one
loss pack (the comment block above :class:`_LossPack`).

Conventions: for a real loss ``L`` of complex tensors, ``∂L/∂z`` is the
Wirtinger partial treating ``z̄`` as independent; the chain to phases is
``∂L/∂φ_e = 2·Re(j·x_e·Σ ∂L/∂h · ∂h/∂x_e) = −2·Im(x_e·Σ ∂L/∂h·C_e)``.

Service-specific losses built on these live with their services: the
paper's §4 localization loss ("the cross-entropy between the estimated
and true AoA") is :class:`~repro.services.sensing.SurfaceAoAObjective`.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..channel.model import LinearChannelForm
from ..core.errors import OptimizationError
from ..em.noise import LinkBudget

_LN2 = math.log(2.0)
_LN10 = math.log(10.0)


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


class _KernelObjective(Objective):
    """A loss the pack evaluates, forward and backward, through its linear form."""

    def __init__(self, form: LinearChannelForm, amplitudes: Optional[np.ndarray]):
        self.form = form
        self.dim = form.num_elements
        self.amplitudes = (
            np.ones(self.dim)
            if amplitudes is None
            else np.asarray(amplitudes, dtype=float).reshape(-1)
        )
        if self.amplitudes.shape != (self.dim,):
            raise OptimizationError("amplitudes shape mismatch")

    def value(self, phases: np.ndarray) -> float:
        return _loss_pack(self, [(self, 1.0)]).value(self._check(phases))

    def value_and_gradient(self, phases: np.ndarray) -> Tuple[float, np.ndarray]:
        return _loss_pack(self, [(self, 1.0)]).value_and_gradient(self._check(phases))

    def value_many(self, phases_batch: np.ndarray) -> np.ndarray:
        return _loss_pack(self, [(self, 1.0)]).value_many(self._check_batch(phases_batch))

    def refit(self, form: LinearChannelForm) -> "_KernelObjective":
        """Re-point the loss at ``form``, a later round's form of the same shape.

        A built pack keeps its plans and refills its coefficients and offsets.
        """
        if form.coeffs.shape != self.form.coeffs.shape:
            raise OptimizationError(
                f"refit form has shape {form.coeffs.shape}, expected {self.form.coeffs.shape}"
            )
        self.form = form
        if self._pack is not None:
            self._pack.refit([(self, 1.0)])
        return self


@dataclass(frozen=True)
class CoverageGoal:
    """Parameters of a coverage/link objective.

    Attributes:
        budget: link budget (tx power, bandwidth, noise).
        weights: optional per-point weights (defaults to uniform).
    """

    budget: LinkBudget
    weights: Optional[np.ndarray] = None


class CoverageObjective(_KernelObjective):
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
        super().__init__(form, amplitudes)
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
        return self.goal.budget.snr_db_many(gains)


class PoweringObjective(_KernelObjective):
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
        super().__init__(form, amplitudes)
        self.budget = budget or LinkBudget()


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
        """``Σ w_i · part.value_and_gradient(phases)`` in part order, bit for bit."""
        return _loss_pack(self, self.parts).value_and_gradient(self._check(phases))

    def value_many(self, phases_batch: np.ndarray) -> np.ndarray:
        """``Σ w_i · part.value_many(batch)`` in part order, bit for bit."""
        return _loss_pack(self, self.parts).value_many(self._check_batch(phases_batch))

    def refit(self, parts: Sequence[Objective]) -> "JointObjective":
        """Take a later round's parts, one per part in order, at the same weights.

        Each part must be of its predecessor's type; a coverage or powering
        part is normally its predecessor, refitted to the new form.  A built
        pack keeps its plans and refills its coefficients, offsets and
        loose rows.
        """
        if [type(p) for p in parts] != [type(p) for p, _ in self.parts]:
            raise OptimizationError("refit parts must match the joint's part types")
        self.parts = [(part, weight) for part, (_, weight) in zip(parts, self.parts)]
        if self._pack is not None:
            self._pack.refit(self.parts)
        return self


# ----------------------------------------------------------------------
# the loss pack
# ----------------------------------------------------------------------
#
# Every coverage/powering loss and gradient, lone or in a joint, runs
# through one pack built lazily on the objective's first evaluation.
# Its parts sit in one flat part-major buffer, a ``(P, K_i, M_i)`` block
# each for a ``P``-row batch, grouped by kernel key ``(kind, K, M)`` with
# coverage first.  A batch costs one shared ``x = a·e^{jθ}`` (a row per
# distinct amplitude vector; a panel's parts share one, and an all-ones
# row is skipped), one ``np.matmul`` per group (``(G, P, E) @ (G, E,
# K·M)``) into the buffer with the group's ``(G, 1, K·M)`` offsets added
# by broadcasting, one elementwise pass over every point (``|h|²``,
# ``Σ_M``, then ``·tx / noise + 1``, ``log2`` and point weights), one
# ``Σ_K`` per group into a ``(parts, P)`` array, the powering rows'
# ``mean → log10``, one negation, ``× w`` and a cumulative sum down the
# parts: the same sequential part-order sum as ``total += w_i · v_i``.
# Parts without a kernel (localization, nested joints such as security)
# fill their own row.  ``value`` is the one-row case with one stacked
# ``(G, K, M, E) @ (E, 1)`` matmul per group, which NumPy runs as one
# ``gemv`` per ``(M, E)`` slice: each part's own ``form.evaluate`` call.
#
# ``value_and_gradient`` runs the one-row pass, keeping each coverage
# point's ``1 + snr`` and each powering part's mean before their logs
# for ``∂L/∂‖h_k‖²``.  Per group, that factor times ``conj(h)`` takes one
# Wirtinger accumulation, ``einsum("gkm,gkme->ge")``, and each part's
# gradient is ``−2·Im(x·acc)``; a loose part gives its own.  The
# weighted gradients are added to zeros in part order, as
# ``grad += w_i · g_i``; a lone objective's is returned as it is.
#
# A reaction's later block-coordinate rounds change a panel's linear
# form: its offset, and through the cascade legs its coefficients too.
# So does every later reaction of the same task set.  Both refit the
# objective instead of building a new one: the pack keeps its groups,
# buffers and plans, re-points each group's coefficient views, refills
# its offset row in place and swaps in the loose parts.  The
# orchestrator keeps each (solve unit, panel) objective across
# reactions while the unit's task set, point counts, weights and the
# panels' amplitudes hold, and drops it with the first reaction that
# does not solve that unit and panel, so a pack lives as long as its
# unit's task set.
#
# The pack keeps one plan per row count: every buffer and view a pass
# touches (phase, amplitude and channel buffers, ``|h|²``, point sums,
# each group's GEMM ``out=`` and ``Σ_M``/``Σ_K`` views, loss rows,
# per-point factors laid out for that row count).  The gradient's
# buffers are made on its first call.  Neither holds anything a refit
# changes or points back at the pack, so both are freed with it.  The
# pack also remembers its last scalar score with the phase bytes it
# scored, until a refit: a warm start's drift probe and the first
# incumbent of the solve it seeds score the same phases once.
#
# Determinism: a GEMM slice runs the *same* BLAS kernel on the *same*
# operand shapes and layout as one objective's own GEMM, and ``Σ_M`` and
# ``Σ_K`` reduce contiguous last axes as each part's own loss does, so
# packing never changes bits (asserted in test_joint_grouped.py and
# test_joint_pack_properties.py; refits in test_pack_refit.py).  The
# ``out=`` forms run the same ufunc loops as the allocating ones, and a
# broadcast offset adds the same two floats per entry as a laid-out one.
# Parts are deliberately *not* concatenated along K into one wider GEMM:
# a different GEMM shape may take a different BLAS blocking and round
# differently.  Likewise the grouped ``einsum`` sums each part's
# ``(K, M)`` terms in the order a part's own ``einsum("km,kme->e")``
# does, which a ``matmul`` over the group does not.

#: One kernel key's parts: entry/point bounds, first row, G, K, M, amplitude
#: rows, ``(G, K, M, E)`` coefficients, their ``(G, E, K·M)`` GEMM operand and
#: the ``(G, 1, K·M)`` offsets added to the GEMM's output.
_Group = namedtuple(
    "_Group", "e0 e1 p0 p1 row size points antennas amplitudes stack bts offset"
)

#: The scalar log each powering part's own ``value`` takes; ``np.log10``
#: differs from it in the last bit on some inputs.  Its object results
#: are cast back to float where they are stored.
_SCALAR_LOG10 = np.frompyfunc(math.log10, 1, 1)


def _loss_pack(objective: Objective, parts) -> "_LossPack":
    """``objective``'s pack, built on first use."""
    pack = objective._pack
    if pack is None:
        pack = objective._pack = _LossPack(parts)
    return pack


class _Plan:
    """The buffers and views for ``p``-row batches of one pack."""

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

        cover = [(g.p0, g.p1, g.size) for g in pack.groups if g.row < pack.coverage_rows]
        self.tx, self.noise, self.point_weights = (per_row(cover, f) for f in pack.factors)
        self.snr = points[: self.tx.size]  # the coverage points


class _Backward:
    """The gradient's buffers beside a pack's one-row plan.

    A pass keeps each coverage point's ``1 + snr`` in ``snr`` and each
    powering part's mean in ``mean``; the gradient turns both, in place,
    into ``∂L/∂‖h_k‖²``, which ``factors`` views group by group.
    """

    def __init__(self, pack: "_LossPack"):
        tx, noise, weights = pack.factors
        self.gain = -(weights * (tx / noise))  # the coverage factors' numerators
        self.snr = np.empty(tx.size)
        self.mean = np.empty((pack.kernel_rows - pack.coverage_rows, 1))
        c = pack.coverage_rows
        self.factors = [
            self.snr[g.p0 : g.p1].reshape(g.size, g.points, 1) if g.row < c
            else self.mean[g.row - c : g.row - c + g.size, :, None]
            for g in pack.groups
        ]


class _LossPack:
    """One objective's parts, packed once for batched and scalar losses.

    Rows hold the kernel parts group by group, then the loose parts.
    Entry/point bounds are for one row; ``P`` rows scale them by ``P``.
    A :meth:`refit` swaps in a later round's coefficients, offsets and
    loose parts; the structure and the plans stay.
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
        #: The part each row holds.
        self.part_of_row = order
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
        self.dim = parts[0][0].dim
        #: One row's offsets, refilled in place by a refit.
        self.offsets = np.empty(self.entries, dtype=complex)
        # Several kernel parts' coefficients are copied into one buffer; a
        # lone one's are viewed where its form keeps them.
        self._coeffs = None if len(kernel) == 1 else np.empty((self.entries, self.dim), complex)
        self.groups, hi = [], 0
        for (_, k, m), indices in keyed:
            lo, hi = hi, hi + len(indices)
            shared = len(set(amp[lo:hi])) == 1
            select = slice(amp[lo], amp[lo] + 1) if shared else np.array(amp[lo:hi])
            self.groups.append(_Group(
                e[lo], e[hi], p[lo], p[hi], lo, hi - lo, k, m, select, None, None, None
            ))
        budgets = [o.goal.budget for o in coverage]
        coverage_points = points[: len(coverage)]
        #: The coverage points' tx, noise and weights for one row.
        self.factors = (
            np.array([b.tx_power_watts for b in budgets]).repeat(coverage_points),
            np.array([b.noise_watts for b in budgets]).repeat(coverage_points),
            np.concatenate([o._weights for o in coverage] or [np.empty(0)]),
        )
        self.refit(parts)
        #: One plan per batch row count.
        self._plans: dict = {}
        #: The gradient's buffers, built on the first gradient.
        self._backward: Optional[_Backward] = None

    def refit(self, parts: Sequence[Tuple[Objective, float]]) -> None:
        """Load ``parts``: the built parts, or parts of the same structure.

        Each kernel part's coefficients and offsets are read from its
        form again and each loose part is swapped into its row.  Weights,
        amplitudes, budgets and point weights stay as built.  The
        remembered scalar score is forgotten.
        """
        #: ``(phase bytes, loss)`` of the last scalar score.
        self._scored = (None, 0.0)
        kernel = [parts[i][0] for i in self.part_of_row[: self.kernel_rows]]
        self.loose = [
            (row, parts[self.part_of_row[row]][0]) for row in range(self.kernel_rows, self.rows)
        ]
        if not kernel:
            return
        rows = [o.form.coeffs.reshape(-1, self.dim) for o in kernel]
        coeffs = rows[0] if self._coeffs is None else np.concatenate(rows, out=self._coeffs)
        np.concatenate([o.form.offset.reshape(-1) for o in kernel], out=self.offsets)
        groups = []
        for g in self.groups:
            stack = coeffs[g.e0 : g.e1].reshape(g.size, g.points, g.antennas, self.dim)
            # Fortran-ordered (E, K·M) slices, as a lone form's own GEMM.
            bts = stack.reshape(g.size, -1, self.dim).transpose(0, 2, 1)
            offset = self.offsets[g.e0 : g.e1].reshape(g.size, 1, -1)
            groups.append(g._replace(stack=stack, bts=bts, offset=offset))
        self.groups = groups

    def value_many(self, batch: np.ndarray) -> np.ndarray:
        """``(P,)`` weighted losses of a checked ``(P, E)`` batch."""
        return self._pass(batch).copy()

    def value(self, phases: np.ndarray) -> float:
        """The weighted loss of a checked ``(E,)`` phase vector.

        The last score is remembered until a refit: a warm start's drift
        probe and the solve it seeds score the same phases.
        """
        key = phases.tobytes()
        if key != self._scored[0]:
            self._scored = (key, float(self._pass(phases)[0]))
        return self._scored[1]

    def value_and_gradient(self, phases: np.ndarray) -> Tuple[float, np.ndarray]:
        """The weighted loss of a checked ``(E,)`` phase vector and its gradient."""
        back = self._backward
        if back is None:
            back = self._backward = _Backward(self)
        grads = np.empty((self.rows, self.dim))
        loss = float(self._pass(phases, grads)[0])
        if self.groups:
            plan = self._plans[1]
            if self.coverage_rows:
                back.snr *= _LN2
                np.divide(back.gain, back.snr, out=back.snr)
            if self.kernel_rows > self.coverage_rows:
                back.mean *= _LN10
                back.mean *= self.powering_points
                np.divide(-10.0, back.mean, out=back.mean)
            for g, x, h, factor in zip(self.groups, plan.operands, plan.outs, back.factors):
                wh = factor * np.conj(h).reshape(g.size, g.points, g.antennas)
                acc = np.einsum("gkm,gkme->ge", wh, g.stack)
                np.multiply(x[:, 0], acc, out=acc)
                np.multiply(-2.0, acc.imag, out=grads[g.row : g.row + g.size])
        if self.weights is None:
            return loss, grads[0]
        grads *= self.weights
        grad = np.zeros(self.dim)
        for row in range(self.rows) if self.order is None else self.order:
            grad += grads[row]
        return loss, grad

    def _pass(self, phases: np.ndarray, grads: Optional[np.ndarray] = None) -> np.ndarray:
        """The one loss pass: a ``(P, E)`` batch or one ``(E,)`` vector → a plan row.

        Given ``grads``, a scalar pass also keeps the gradient's
        intermediates and fills the loose parts' gradient rows.
        """
        scalar = phases.ndim == 1
        rows = 1 if scalar else len(phases)
        plan = self._plans.get(rows)
        if plan is None:
            plan = self._plans[rows] = _Plan(self, rows)
        if self.groups:
            np.multiply(phases, 1j, out=plan.phase)
            np.exp(plan.phase, out=plan.phase)
            if self.scale is not None:
                np.multiply(self.scale, plan.phase, out=plan.x)
            for g, x, out in zip(self.groups, plan.operands, plan.outs):
                if not isinstance(g.amplitudes, slice):
                    np.take(plan.x, g.amplitudes, axis=0, out=x)
                if scalar:  # one gemv per part, as its own form.evaluate
                    gemv = out.reshape(g.size, g.points, g.antennas, 1)
                    np.matmul(g.stack, x[..., None], out=gemv)
                else:
                    np.matmul(x, g.bts, out=out)
                out += g.offset
            self._losses(plan, _SCALAR_LOG10 if scalar else np.log10, grads is not None)
        losses, spare = plan.losses, plan.spare
        for row, part in self.loose:
            if grads is not None:
                losses[row], grads[row] = part.value_and_gradient(phases)
            else:
                losses[row] = part.value(phases) if scalar else part.value_many(phases)
        # Σ w_i · v_i in part order, added sequentially.
        if self.weights is None:
            return losses[0]
        losses *= self.weights
        if self.order is not None:
            losses, spare = np.take(losses, self.order, axis=0, out=spare), losses
        return np.add.accumulate(losses, axis=0, out=spare)[-1]

    def _losses(self, plan: _Plan, log10, keep: bool = False) -> None:
        """Fill the kernel rows of the plan's losses from its channel buffer.

        ``keep`` copies ``1 + snr`` and the powering means into the
        gradient's buffers before their logs.
        """
        power = np.abs(plan.h, out=plan.power)
        power *= power
        for source, sums in plan.m_sums:  # Σ_M
            np.add.reduce(source, axis=1, out=sums)
        if self.coverage_rows:
            snr = plan.snr
            snr *= plan.tx
            snr /= plan.noise
            snr += 1.0
            if keep:
                np.copyto(self._backward.snr, snr)
            np.log2(snr, out=snr)
            snr *= plan.point_weights
        for sums, losses in plan.k_sums:  # Σ_K
            np.add.reduce(sums, axis=2, out=losses)
        kernel = plan.losses[: self.kernel_rows]
        if self.kernel_rows > self.coverage_rows:
            mean = kernel[self.coverage_rows :]  # the powering rows
            mean /= self.powering_points
            mean += 1e-30
            if keep:
                np.copyto(self._backward.mean, mean)
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
