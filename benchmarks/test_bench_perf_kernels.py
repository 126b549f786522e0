"""Perf bench — vectorized geometry kernels vs. per-obstacle loops.

Times the batched ``segment_loss_db`` kernel against the per-obstacle
loop formulation it replaced (reimplemented privately below), plus the
end-to-end ``reoptimize()`` path with each kernel spliced in.  Other
arms time the joint loss pack and one ``RandomSearch`` iteration
against the allocating loop its reused buffers replaced (also
reimplemented below).  Results land in ``BENCH_kernels.json`` at the
repo root.

Timings use best-of-N (minimum) — this container's single shared core
makes mean timings far too noisy to compare against.

Set ``PERF_BENCH_SMALL=1`` for the CI smoke variant (smaller scene,
fewer repetitions, no speedup floor asserted).
"""

import json
import os
import time
from pathlib import Path

import numpy as np
from _meta import bench_meta
from conftest import run_once

from repro import SurfOS, ghz
from repro.analysis.tables import render_table
from repro.broker.calls import reset_request_counter
from repro.channel import LinearChannelForm
from repro.channel.geomkernels import CompiledGeometry, compiled_geometry
from repro.geometry import Box, apartment_sites, two_room_apartment
from repro.geometry.environment import Environment
from repro.geometry.materials import BRICK, CONCRETE, DRYWALL
from repro.hwmgr import AccessPoint, ClientDevice
from repro.orchestrator import CoverageObjective, JointObjective, RandomSearch
from repro.orchestrator.multiplex import MultiplexStrategy
from repro.orchestrator.tasks import reset_task_counter
from repro.pipeline.workers import BatchEvaluator
from repro.surfaces import GENERIC_PROGRAMMABLE_28, SurfacePanel
from repro.telemetry import Telemetry

FREQ = ghz(28)
SMALL = bool(os.environ.get("PERF_BENCH_SMALL"))
NUM_WALLS = 8 if SMALL else 16
NUM_BOXES = 6 if SMALL else 12
NUM_SEGMENTS = 2_000 if SMALL else 12_000
KERNEL_REPS = 5 if SMALL else 12
E2E_REPS = 1 if SMALL else 3
_EPS = 1e-9

# Multi-task end-to-end scene: a cluttered office remodel of the
# two-room apartment (partition walls + furniture boxes) with one
# TIME-slotted link task per client, each solved as its own optimizer
# run.
NUM_CLIENTS = 4 if SMALL else 12
SCENE_WALLS = 12 if SMALL else 56
SCENE_BOXES = 8 if SMALL else 40
PANEL_SIDE = 8 if SMALL else 16
SOLVE_ITERATIONS = 8 if SMALL else 20
SOLVE_POPULATION = 8 if SMALL else 16

# Joint-objective scene: the shapes of the largest co-served group the
# admit-churn workload builds — one 12-point coverage part plus twelve
# single-point link parts on a 64-element panel and a 4-antenna AP,
# evaluated as 8-row candidate chunks.
JOINT_LINKS = 12
JOINT_ELEMENTS = 64
JOINT_ANTENNAS = 4
JOINT_CHUNK = 8
JOINT_CALLS = 50 if SMALL else 400
# One RandomSearch iteration scores a 16-row population (its default)
# against that joint; every part on a panel shares its amplitudes.
JOINT_POPULATION = 16
# Joint-loss arm: the same shapes at 1 to 24 parts (the 12-point part
# plus links), timed per 16-row value_many and per value() call.
JOINT_LOSS_PARTS = (1, 3, 6, 12, 24)
JOINT_LOSS_CALLS = 20 if SMALL else 100
# Solver-iteration arm: RandomSearch.optimize at its default 16-row
# population and 60-iteration budget on one 12-point part plus 3, 6 and
# 12 links, with a serial evaluator and telemetry bound as the request
# pipeline binds them.  Phase-only panels have all-ones amplitudes.
SOLVER_LINKS = (3, 6, 12)
SOLVER_ITERATIONS = 60
SOLVER_REPS = 3 if SMALL else 12

OUTPUT = Path(
    os.environ.get("PERF_BENCH_OUTPUT")
    or Path(__file__).resolve().parents[1] / "BENCH_kernels.json"
)


# ----------------------------------------------------------------------
# the pre-vectorization per-obstacle loop, kept for comparison
# ----------------------------------------------------------------------


def _loop_wall_mask(wall, a, b):
    p, q = wall.start[:2], wall.end[:2]
    s = q - p
    r = b[:, :2] - a[:, :2]
    denom = r[:, 0] * s[1] - r[:, 1] * s[0]
    ok = np.abs(denom) > _EPS
    safe = np.where(ok, denom, 1.0)
    ap = p[None, :] - a[:, :2]
    t = (ap[:, 0] * s[1] - ap[:, 1] * s[0]) / safe
    u = (ap[:, 0] * r[:, 1] - ap[:, 1] * r[:, 0]) / safe
    z = a[:, 2] + t * (b[:, 2] - a[:, 2])
    return (
        ok
        & (t > _EPS)
        & (t < 1.0 - _EPS)
        & (u >= -_EPS)
        & (u <= 1.0 + _EPS)
        & (z >= wall.z_min - _EPS)
        & (z <= wall.z_max + _EPS)
    )


def _loop_box_mask(lo, hi, a, b):
    d = b - a
    t_enter = np.zeros(a.shape[0])
    t_exit = np.ones(a.shape[0])
    inside_slabs = np.ones(a.shape[0], dtype=bool)
    for axis in range(3):
        da = d[:, axis]
        parallel = np.abs(da) < _EPS
        safe = np.where(parallel, 1.0, da)
        t1 = (lo[axis] - a[:, axis]) / safe
        t2 = (hi[axis] - a[:, axis]) / safe
        lo_t = np.minimum(t1, t2)
        hi_t = np.maximum(t1, t2)
        in_slab = (a[:, axis] >= lo[axis] - _EPS) & (a[:, axis] <= hi[axis] + _EPS)
        inside_slabs &= np.where(parallel, in_slab, True)
        t_enter = np.where(parallel, t_enter, np.maximum(t_enter, lo_t))
        t_exit = np.where(parallel, t_exit, np.minimum(t_exit, hi_t))
    return (
        inside_slabs
        & (t_enter < t_exit)
        & (t_exit > _EPS)
        & (t_enter < 1.0 - _EPS)
    )


def _loop_segment_loss_db(
    self, a, b, frequency_hz, panels=None, exclude_wall_indices=None
):
    """Drop-in loop replacement for ``CompiledGeometry.segment_loss_db``.

    ``exclude_wall_indices`` is per segment, ``(n,)`` or ``(n, k)``,
    with ``-1`` for none.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    loss = np.zeros(a.shape[0])
    excluded = np.full((a.shape[0], 1), -1)
    if exclude_wall_indices is not None:
        excluded = np.asarray(exclude_wall_indices).reshape(a.shape[0], -1)
    wall_losses = self.wall_losses_db(frequency_hz) if self.num_walls else None
    for j, wall in enumerate(self.walls):
        mask = _loop_wall_mask(wall, a, b) & ~(excluded == j).any(axis=1)
        if mask.any():
            loss[mask] += wall_losses[j]
    box_losses = self.box_losses_db(frequency_hz) if self.num_boxes else None
    for j in range(self.num_boxes):
        mask = _loop_box_mask(self.box_lo[j], self.box_hi[j], a, b)
        if mask.any():
            loss[mask] += box_losses[j]
    if panels is not None and panels.count:
        loss += panels.crossing_matrix(a, b) @ panels.losses_db(frequency_hz)
    return loss


# ----------------------------------------------------------------------
# scenes and timing
# ----------------------------------------------------------------------


def kernel_scene():
    rng = np.random.default_rng(7)
    env = Environment("perf-kernels", ceiling_height=3.0)
    mats = [DRYWALL, CONCRETE, BRICK]
    for i in range(NUM_WALLS):
        p = rng.uniform(0, 20, 2)
        d = rng.uniform(-6, 6, 2)
        env.add_wall_2d(p, p + d, mats[i % 3], name=f"w{i}")
    for i in range(NUM_BOXES):
        lo = rng.uniform(0, 18, 3) * np.array([1, 1, 0.1])
        size = rng.uniform(0.5, 3.0, 3)
        env.add_box(Box(lo=lo, hi=lo + size, material=mats[i % 3], name=f"b{i}"))
    a = rng.uniform(0, 20, (NUM_SEGMENTS, 3)) * np.array([1, 1, 0.15])
    b = rng.uniform(0, 20, (NUM_SEGMENTS, 3)) * np.array([1, 1, 0.15])
    return env, a, b


def best_of(fn, reps):
    """Minimum wall time over ``reps`` runs (noise-robust on shared CPUs)."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_kernel():
    env, a, b = kernel_scene()
    compiled = compiled_geometry(env)
    ref = _loop_segment_loss_db(compiled, a, b, FREQ)
    vec = compiled.segment_loss_db(a, b, FREQ)
    max_abs_diff = float(np.abs(ref - vec).max())
    assert max_abs_diff <= 1e-9
    loop_s = best_of(lambda: _loop_segment_loss_db(compiled, a, b, FREQ), KERNEL_REPS)
    vec_s = best_of(lambda: compiled.segment_loss_db(a, b, FREQ), KERNEL_REPS)
    return {
        "num_walls": NUM_WALLS,
        "num_boxes": NUM_BOXES,
        "num_segments": NUM_SEGMENTS,
        "loop_ms": loop_s * 1e3,
        "vec_ms": vec_s * 1e3,
        "speedup": loop_s / vec_s,
        "max_abs_diff": max_abs_diff,
    }


def _joint_part(rng, k, amplitudes=None):
    shape = (k, JOINT_ANTENNAS, JOINT_ELEMENTS)
    coeffs = 1e-4 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    offset = 1e-4 * (
        rng.normal(size=shape[:2]) + 1j * rng.normal(size=shape[:2])
    )
    if amplitudes is None:
        amplitudes = rng.uniform(0.3, 1.0, JOINT_ELEMENTS)
    return CoverageObjective(
        LinearChannelForm("s", coeffs, offset), amplitudes=amplitudes
    )


def _per_part_value_many(joint, batch):
    """The per-part loop grouped evaluation replaced: one call per part."""
    total = np.zeros(batch.shape[0])
    for objective, weight in joint.parts:
        total += weight * objective.value_many(batch)
    return total


def _per_part_value(joint, phases):
    """The per-part scalar loop the loss pack replaced."""
    total = 0.0
    for objective, weight in joint.parts:
        total += weight * objective.value(phases)
    return total


def bench_joint_loss():
    """Per-call µs of the per-part loop vs the loss pack, by part count."""
    rng = np.random.default_rng(19)
    rows = []
    for count in JOINT_LOSS_PARTS:
        amplitudes = rng.uniform(0.3, 1.0, JOINT_ELEMENTS)
        parts = [_joint_part(rng, 12, amplitudes)]
        parts += [_joint_part(rng, 1, amplitudes) for _ in range(count - 1)]
        joint = JointObjective(
            list(zip(parts, rng.uniform(0.05, 1.0, len(parts))))
        )
        batches = [
            rng.uniform(0, 2 * np.pi, (JOINT_POPULATION, JOINT_ELEMENTS))
            for _ in range(JOINT_LOSS_CALLS)
        ]
        identical = all(
            joint.value_many(b).tobytes() == _per_part_value_many(joint, b).tobytes()
            and np.float64(joint.value(b[0])).tobytes()
            == np.float64(_per_part_value(joint, b[0])).tobytes()
            for b in batches
        )
        row = {"parts": count, "bit_identical": identical}
        for name, fn in (
            ("per_part_value_many_us", lambda b: _per_part_value_many(joint, b)),
            ("pack_value_many_us", joint.value_many),
            ("per_part_value_us", lambda b: _per_part_value(joint, b[0])),
            ("pack_value_us", lambda b: joint.value(b[0])),
        ):
            seconds = best_of(lambda: [fn(b) for b in batches], KERNEL_REPS)
            row[name] = seconds / JOINT_LOSS_CALLS * 1e6
        rows.append(row)
    return {
        "elements": JOINT_ELEMENTS,
        "antennas": JOINT_ANTENNAS,
        "population": JOINT_POPULATION,
        "calls": JOINT_LOSS_CALLS,
        "by_parts": rows,
    }


def bench_joint_value_many():
    """13-part joint ``value_many``: per-part loop vs grouped kernels."""
    rng = np.random.default_rng(13)
    parts = [_joint_part(rng, 12)]
    parts += [_joint_part(rng, 1) for _ in range(JOINT_LINKS)]
    joint = JointObjective(
        list(zip(parts, rng.uniform(0.05, 1.0, len(parts))))
    )
    chunks = [
        rng.uniform(0, 2 * np.pi, (JOINT_CHUNK, JOINT_ELEMENTS))
        for _ in range(JOINT_CALLS)
    ]
    looped = np.concatenate([_per_part_value_many(joint, c) for c in chunks])
    grouped = np.concatenate([joint.value_many(c) for c in chunks])
    max_abs_diff = float(np.abs(looped - grouped).max())
    loop_s = best_of(
        lambda: [_per_part_value_many(joint, c) for c in chunks], KERNEL_REPS
    )
    grouped_s = best_of(
        lambda: [joint.value_many(c) for c in chunks], KERNEL_REPS
    )
    return {
        "parts": len(parts),
        "elements": JOINT_ELEMENTS,
        "antennas": JOINT_ANTENNAS,
        "chunk_rows": JOINT_CHUNK,
        "calls": JOINT_CALLS,
        "per_part_loop_us_per_call": loop_s / JOINT_CALLS * 1e6,
        "grouped_us_per_call": grouped_s / JOINT_CALLS * 1e6,
        "speedup": loop_s / grouped_s,
        "max_abs_diff": max_abs_diff,
    }


def bench_joint_iteration():
    """One solver iteration on a 13-part joint: two 8-row calls vs one pass.

    Two ``JOINT_CHUNK``-row ``value_many`` calls per 16-row population
    were the evaluator's grid at its old 8-row default chunk; the
    default chunk now equals the population, so an iteration is one
    call.  Both arms must give the same bits.
    """
    rng = np.random.default_rng(17)
    amplitudes = rng.uniform(0.3, 1.0, JOINT_ELEMENTS)
    parts = [_joint_part(rng, 12, amplitudes)]
    parts += [_joint_part(rng, 1, amplitudes) for _ in range(JOINT_LINKS)]
    joint = JointObjective(
        list(zip(parts, rng.uniform(0.05, 1.0, len(parts))))
    )
    populations = [
        rng.uniform(0, 2 * np.pi, (JOINT_POPULATION, JOINT_ELEMENTS))
        for _ in range(JOINT_CALLS)
    ]

    def two_chunks(batch):
        return np.concatenate(
            [
                joint.value_many(batch[i : i + JOINT_CHUNK])
                for i in range(0, JOINT_POPULATION, JOINT_CHUNK)
            ]
        )

    split = np.concatenate([two_chunks(b) for b in populations])
    whole = np.concatenate([joint.value_many(b) for b in populations])
    max_abs_diff = float(np.abs(split - whole).max())
    split_s = best_of(
        lambda: [two_chunks(b) for b in populations], KERNEL_REPS
    )
    whole_s = best_of(
        lambda: [joint.value_many(b) for b in populations], KERNEL_REPS
    )
    return {
        "parts": len(parts),
        "elements": JOINT_ELEMENTS,
        "antennas": JOINT_ANTENNAS,
        "population": JOINT_POPULATION,
        "split_rows": JOINT_CHUNK,
        "iterations": JOINT_CALLS,
        "two_chunks_us_per_iteration": split_s / JOINT_CALLS * 1e6,
        "one_pass_us_per_iteration": whole_s / JOINT_CALLS * 1e6,
        "speedup": split_s / whole_s,
        "max_abs_diff": max_abs_diff,
    }


def _row_layouts(pack, p):
    """The pack's one-row offsets, tx, noise and point weights laid out
    for ``p`` rows, each group's block as ``(G, p, L)``."""

    def per_row(flat, bounds):
        return np.concatenate([
            flat[lo:hi].reshape(g, 1, -1).repeat(p, axis=1).reshape(-1)
            for lo, hi, g in bounds
        ])

    entries = [(g.e0, g.e1, g.size) for g in pack.groups]
    points = [(g.p0, g.p1, g.size) for g in pack.groups]
    offsets, *coverage = pack.factors
    return (per_row(offsets, entries), *(per_row(f, points) for f in coverage))


def _allocating_pass(pack, batch, layouts):
    """The loss pass before plans: a fresh array at every step.

    Covers this arm's joints only: coverage parts in part order, with no
    powering or loose rows.
    """
    p = batch.shape[0]
    offsets, tx, noise, point_weights = layouts
    x = pack.amplitudes[:, None, :] * np.exp(1j * batch)
    h = np.empty(p * pack.entries, dtype=complex)
    for g in pack.groups:
        out = h[p * g.e0 : p * g.e1].reshape(g.size, p, -1)
        np.matmul(x[g.amplitudes], g.bts, out=out)
    h += offsets
    power = np.abs(h)
    power *= power
    points = np.empty(p * pack.points)
    for g in pack.groups:
        sums = points[p * g.p0 : p * g.p1]
        np.add.reduce(
            power[p * g.e0 : p * g.e1].reshape(-1, g.antennas), axis=1, out=sums
        )
    points *= tx
    points /= noise
    points += 1.0
    np.log2(points, out=points)
    points *= point_weights
    losses = np.empty((pack.rows, p))
    for g in pack.groups:
        sums = points[p * g.p0 : p * g.p1].reshape(g.size, p, g.points)
        np.add.reduce(sums, axis=2, out=losses[g.row : g.row + g.size])
    np.negative(losses, out=losses)
    losses *= pack.weights
    return losses.cumsum(axis=0)[-1]


def _allocating_optimize(optimizer, joint, initial, layouts):
    """``RandomSearch.optimize`` before its buffers were reused.

    A fresh candidate array each iteration, the evaluator's split and
    concatenate for every batch, one telemetry count per iteration and
    the allocating loss pass.  Returns the phases, loss and history.
    """
    evaluator, pack = optimizer.evaluator, joint._pack
    phases = np.asarray(initial, dtype=float).reshape(-1).copy()
    best_loss = float(joint.value(phases))
    optimizer._count_evals(1)
    history = [best_loss]
    scale = optimizer.initial_scale
    draws = optimizer._draws(phases.size, optimizer.max_iterations)
    for i in range(optimizer.max_iterations):
        candidates = scale * draws[i]
        candidates += phases
        chunks = evaluator._chunks(np.atleast_2d(np.asarray(candidates, dtype=float)))
        evaluator._note(len(chunks))
        losses = np.concatenate([
            _allocating_pass(pack, np.atleast_2d(np.asarray(c, dtype=float)), layouts)
            for c in chunks
        ])
        optimizer._count_evals(optimizer.population)
        j = int(np.argmin(losses))
        if losses[j] < best_loss:
            best_loss, phases = float(losses[j]), candidates[j].copy()
        else:
            scale *= optimizer.decay
        history.append(best_loss)
    optimizer._count_evals(1)
    return phases, float(joint.value(phases)), history


def _bound_search():
    telemetry = Telemetry()
    evaluator = BatchEvaluator(parallelism=1)
    evaluator.bind_telemetry(telemetry)
    optimizer = RandomSearch(max_iterations=SOLVER_ITERATIONS, seed=0)
    optimizer.bind_telemetry(telemetry)
    optimizer.bind_evaluator(evaluator)
    return optimizer


def _search_counts(optimizer):
    telemetry, evaluator = optimizer.telemetry, optimizer.evaluator
    return (
        telemetry.get_counter("optimizer.objective_evaluations"),
        telemetry.get_counter("evaluator.batches"),
        telemetry.get_counter("evaluator.chunks"),
        evaluator.batches,
        evaluator.chunks_evaluated,
    )


def bench_solver_iteration():
    """µs per RandomSearch iteration: the allocating loop vs reused buffers.

    Both arms must return the same phases, loss and history bits and
    count the same evaluations, batches and chunks.
    """
    rng = np.random.default_rng(23)
    amplitudes = np.ones(JOINT_ELEMENTS)
    rows = []
    for links in SOLVER_LINKS:
        parts = [_joint_part(rng, 12, amplitudes)]
        parts += [_joint_part(rng, 1, amplitudes) for _ in range(links)]
        joint = JointObjective(list(zip(parts, rng.uniform(0.05, 1.0, len(parts)))))
        initial = rng.uniform(0, 2 * np.pi, JOINT_ELEMENTS)
        reusing, allocating = _bound_search(), _bound_search()
        result = reusing.optimize(joint, initial)
        pack = joint._pack
        assert pack.order is None and pack.coverage_rows == pack.rows  # as _allocating_pass
        layouts = _row_layouts(pack, reusing.population)
        phases, loss, history = _allocating_optimize(allocating, joint, initial, layouts)
        identical = (
            result.phases.tobytes() == phases.tobytes()
            and np.float64(result.loss).tobytes() == np.float64(loss).tobytes()
            and np.array(result.history).tobytes() == np.array(history).tobytes()
            and _search_counts(reusing) == _search_counts(allocating)
        )
        allocating_s = best_of(
            lambda: _allocating_optimize(allocating, joint, initial, layouts),
            SOLVER_REPS,
        )
        reusing_s = best_of(lambda: reusing.optimize(joint, initial), SOLVER_REPS)
        rows.append({
            "links": links,
            "parts": len(parts),
            "allocating_us_per_iteration": allocating_s / SOLVER_ITERATIONS * 1e6,
            "reusing_us_per_iteration": reusing_s / SOLVER_ITERATIONS * 1e6,
            "speedup": allocating_s / reusing_s,
            "identical": identical,
        })
    return {
        "elements": JOINT_ELEMENTS,
        "antennas": JOINT_ANTENNAS,
        "population": JOINT_POPULATION,
        "iterations": SOLVER_ITERATIONS,
        "reps": SOLVER_REPS,
        "by_links": rows,
    }


def build_multi_task_system():
    """The cluttered multi-task scene: N TIME-slotted link tasks.

    Id counters reset so every build sees identical task ids — required
    for bit-for-bit result comparison.
    """
    reset_task_counter()
    reset_request_counter()
    sites = apartment_sites()
    env = two_room_apartment()
    rng = np.random.default_rng(5)
    mats = [DRYWALL, CONCRETE, BRICK]
    for i in range(SCENE_WALLS):
        p = rng.uniform((0.5, 0.5), (9.0, 3.5))
        d = rng.uniform(-1.5, 1.5, 2)
        env.add_wall_2d(p, p + d, mats[i % 3], name=f"partition-{i}")
    for i in range(SCENE_BOXES):
        lo = np.array([rng.uniform(0.5, 8.5), rng.uniform(0.5, 3.2), 0.0])
        size = np.array(
            [
                rng.uniform(0.4, 1.2),
                rng.uniform(0.4, 1.2),
                rng.uniform(0.5, 1.6),
            ]
        )
        env.add_box(
            Box(lo=lo, hi=lo + size, material=mats[i % 3], name=f"desk-{i}")
        )
    system = SurfOS(
        env,
        frequency_hz=FREQ,
        optimizer=RandomSearch(
            max_iterations=SOLVE_ITERATIONS,
            population=SOLVE_POPULATION,
            seed=0,
        ),
        grid_spacing_m=1.0,
    )
    system.add_access_point(
        AccessPoint("ap", sites.ap_position, 4, FREQ, boresight=(1, 0.3, 0))
    )
    system.add_surface(
        SurfacePanel(
            "s1",
            GENERIC_PROGRAMMABLE_28,
            PANEL_SIDE,
            PANEL_SIDE,
            sites.single_surface_center,
            sites.single_surface_normal,
        )
    )
    crng = np.random.default_rng(11)
    for i in range(NUM_CLIENTS):
        system.add_client(
            ClientDevice(
                f"c{i}",
                (
                    float(crng.uniform(5.2, 8.0)),
                    float(crng.uniform(0.8, 3.4)),
                    1.0,
                ),
            )
        )
    system.boot()
    for i in range(NUM_CLIENTS):
        system.orchestrator.enhance_link(
            f"c{i}", strategy=MultiplexStrategy.TIME, time_fraction=0.08
        )
    return system


def _timed_reoptimize(system, loop_kernel=False):
    """Best-of-N reoptimize and channel-build times plus the final slot
    phases (for diffs)."""
    original = CompiledGeometry.segment_loss_db
    if loop_kernel:
        CompiledGeometry.segment_loss_db = _loop_segment_loss_db
    try:
        best = build = float("inf")
        result = None
        for _ in range(E2E_REPS):
            system.orchestrator.simulator.invalidate()
            t0 = time.perf_counter()
            result = system.orchestrator.reoptimize(rounds=1, push=False)
            best = min(best, time.perf_counter() - t0)
            build = min(build, result.timing["channel_build_s"])
    finally:
        CompiledGeometry.segment_loss_db = original
    phases = [
        result.slots[tid][sid].phases
        for tid in sorted(result.slots)
        for sid in sorted(result.slots[tid])
    ]
    return best, build, phases


def bench_end_to_end():
    """The multi-task reoptimize() under the loop and vectorized kernels.

    Baseline: the pre-vectorization loop kernel.  Headline: vectorized
    kernels.  Both arms must produce bit-identical slot phases.  The
    kernel only changes the channel build, so each arm also records its
    build time (``timing["channel_build_s"]``); the solve that follows
    is the same code in both arms.
    """
    system = build_multi_task_system()
    loop_s, loop_build_s, loop_phases = _timed_reoptimize(system, loop_kernel=True)
    vec_s, vec_build_s, vec_phases = _timed_reoptimize(system)

    max_abs_diff = max(
        float(np.abs(np.asarray(a) - np.asarray(b)).max())
        for a, b in zip(vec_phases, loop_phases)
    )
    return {
        "tasks": NUM_CLIENTS,
        "elements": PANEL_SIDE * PANEL_SIDE,
        "iterations": SOLVE_ITERATIONS,
        "population": SOLVE_POPULATION,
        "scene_walls": SCENE_WALLS,
        "scene_boxes": SCENE_BOXES,
        "loop_ms": loop_s * 1e3,
        "vec_ms": vec_s * 1e3,
        "speedup": loop_s / vec_s,
        "loop_build_ms": loop_build_s * 1e3,
        "vec_build_ms": vec_build_s * 1e3,
        "build_speedup": loop_build_s / vec_build_s,
        "max_abs_diff": max_abs_diff,
    }


def run_perf_suite():
    return {
        "small_scene": SMALL,
        "meta": bench_meta(),
        "kernel_segment_loss_db": bench_kernel(),
        "joint_value_many": bench_joint_value_many(),
        "joint_iteration": bench_joint_iteration(),
        "joint_loss": bench_joint_loss(),
        "solver_iteration": bench_solver_iteration(),
        "end_to_end_reoptimize": bench_end_to_end(),
    }


def test_bench_perf_kernels(benchmark):
    results = run_once(benchmark, run_perf_suite)
    OUTPUT.write_text(json.dumps(results, indent=2) + "\n")
    kernel = results["kernel_segment_loss_db"]
    joint = results["joint_value_many"]
    iteration = results["joint_iteration"]
    loss = results["joint_loss"]
    solver = results["solver_iteration"]
    e2e = results["end_to_end_reoptimize"]
    print()
    print(
        render_table(
            ("variant", "ms", "vs baseline"),
            [
                (
                    f"kernel loop ({kernel['num_walls']}w+{kernel['num_boxes']}b, "
                    f"{kernel['num_segments']} seg)",
                    f"{kernel['loop_ms']:.2f}",
                    "1.00x",
                ),
                (
                    "kernel vectorized",
                    f"{kernel['vec_ms']:.2f}",
                    f"{kernel['speedup']:.2f}x",
                ),
                (
                    f"{joint['parts']}-part joint value_many, per-part loop "
                    f"(us/call)",
                    f"{joint['per_part_loop_us_per_call']:.1f}",
                    "1.00x",
                ),
                (
                    f"{joint['parts']}-part joint value_many, grouped (us/call)",
                    f"{joint['grouped_us_per_call']:.1f}",
                    f"{joint['speedup']:.2f}x",
                ),
                (
                    f"{iteration['parts']}-part joint iteration, "
                    f"2 x {iteration['split_rows']} rows (us/iter)",
                    f"{iteration['two_chunks_us_per_iteration']:.1f}",
                    "1.00x",
                ),
                (
                    f"{iteration['parts']}-part joint iteration, "
                    f"1 x {iteration['population']} rows (us/iter)",
                    f"{iteration['one_pass_us_per_iteration']:.1f}",
                    f"{iteration['speedup']:.2f}x",
                ),
                *(
                    (
                        f"{row['parts']}-part joint value_many / value, "
                        f"per-part loop (us/call)",
                        f"{row['per_part_value_many_us']:.1f} / "
                        f"{row['per_part_value_us']:.1f}",
                        "1.00x",
                    )
                    for row in loss["by_parts"]
                ),
                *(
                    (
                        f"{row['parts']}-part joint value_many / value, "
                        f"loss pack (us/call)",
                        f"{row['pack_value_many_us']:.1f} / "
                        f"{row['pack_value_us']:.1f}",
                        f"{row['per_part_value_many_us'] / row['pack_value_many_us']:.2f}x"
                        f" / {row['per_part_value_us'] / row['pack_value_us']:.2f}x",
                    )
                    for row in loss["by_parts"]
                ),
                *(
                    (
                        f"RandomSearch, 12-point part + {row['links']} links, "
                        "allocating / reused buffers (us/iter)",
                        f"{row['allocating_us_per_iteration']:.1f} / "
                        f"{row['reusing_us_per_iteration']:.1f}",
                        f"{row['speedup']:.2f}x",
                    )
                    for row in solver["by_links"]
                ),
                (
                    f"e2e loop kernel ({e2e['tasks']} tasks), reoptimize / build",
                    f"{e2e['loop_ms']:.1f} / {e2e['loop_build_ms']:.1f}",
                    "1.00x",
                ),
                (
                    "e2e vec kernel, reoptimize / build",
                    f"{e2e['vec_ms']:.1f} / {e2e['vec_build_ms']:.1f}",
                    f"{e2e['speedup']:.2f}x / {e2e['build_speedup']:.2f}x",
                ),
            ],
            title="Perf: vectorized kernels vs loops",
        )
    )
    print(f"results written to {OUTPUT}")
    assert kernel["max_abs_diff"] <= 1e-9
    # Grouping a joint objective's parts must not change a single bit.
    assert joint["max_abs_diff"] == 0.0
    # So must evaluating a population in one pass instead of two chunks.
    assert iteration["max_abs_diff"] == 0.0
    # And the loss pack, batched and scalar, at every part count.
    assert all(row["bit_identical"] for row in loss["by_parts"])
    # Reusing the solver's buffers must not change a bit or a count.
    assert all(row["identical"] for row in solver["by_links"])
    # Both kernels must land bit-identical slot phases — the
    # determinism contract, asserted in both bench modes.
    assert e2e["max_abs_diff"] == 0.0
    # Vectorization must pay for itself; floors stay
    # conservative because this host's timings swing under load.  The
    # end-to-end floor is on the channel build, the layer the kernel
    # changes: most of a whole reoptimize() is the solve, which it does
    # not touch (that ratio is reported, not gated).
    if not SMALL:
        assert kernel["speedup"] >= 1.5
        assert e2e["build_speedup"] >= 2.0
