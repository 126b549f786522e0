"""The three workloads: seeded inputs, set-up and drive loops.

Every workload's control decisions are a function of its seed alone:
compute is never charged to the simulated clock, candidate evaluation
is serial, channel legs are traced serially, and everything runs in
this one process.  Wall time is measured around the program's calls and
never fed back into them, so one seed gives the same solves, batches,
leg counts and SNR trace on every episode, traced or not.

The seed only shapes the *inputs* generated here (waypoint phases,
speeds, dwell times, fault times, request arrivals, hold times, client
spots, optimizer seeds); the program receives those inputs, never the
benchmark seed.
"""

from __future__ import annotations

import hashlib
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.broker.calls import reset_request_counter
from repro.broker.handle import HandleStatus
from repro.broker.profiles import demand_for
from repro.core.kernel import SurfOS
from repro.faults import FaultInjector
from repro.geometry.vec import as_vec3
from repro.hwmgr.devices import ClientDevice
from repro.mobility import WaypointWalker
from repro.orchestrator.optimizers import RandomSearch
from repro.orchestrator.solvebudget import SolveBudgetConfig
from repro.orchestrator.tasks import reset_task_counter
from repro.pipeline import AdaptiveCoalesceConfig, PipelineConfig
from repro.runtime.dynamics import Walker
from repro.services.connectivity import snr_map_db

from spans import Tracer

SCENE = "apartment"
PANEL_SIZE = 8
GRID_SPACING_M = 1.0
LINK_SNR_DB = 20.0

#: Threads each workload may use: the main thread only.  Channel legs
#: are traced serially (``channel_workers=0``), candidate evaluation is
#: serial (``parallelism=1``) and BLAS is pinned to one thread.
CHANNEL_WORKERS = 0
EVAL_PARALLELISM = 1

#: Pipeline configuration shared by all workloads: the adaptive
#: coalescer with its defaults and no compute charging.  Its busy
#: threshold is ``busy_factor * initial_cost_s`` (62.5 ms), fixed
#: because no wall time is ever fed back into the cost estimate.
COALESCE = AdaptiveCoalesceConfig()
BUSY_THRESHOLD_S = COALESCE.busy_factor * COALESCE.initial_cost_s


def pipeline_config() -> PipelineConfig:
    return PipelineConfig(
        adaptive=COALESCE, charge_compute=False, parallelism=EVAL_PARALLELISM
    )


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FaultPlan:
    """One panel dies; the other has a lossy control link for a window."""

    seed: int
    dead_panel: str
    death_at_s: float
    link_panel: str
    link_from_s: float
    link_until_s: float
    drop_probability: float
    extra_delay_s: float


@dataclass(frozen=True)
class DaemonInputs:
    """Inputs of a daemon-driven workload (``roam``, ``dwell-faults``)."""

    steps: int
    dt_s: float
    client_speeds: Tuple[float, ...]
    client_pause_s: Tuple[float, ...]
    walker_speeds: Tuple[float, ...]
    optimizer_seed: int
    solve_iterations: int
    adaptive: bool
    search_scale: float = 1.0
    search_decay: float = 0.9
    faults: Optional[FaultPlan] = None


@dataclass(frozen=True)
class Arrival:
    """One application demand of the ``admit-churn`` trace."""

    at_s: float
    app: str
    spot: int
    hold_s: float


@dataclass(frozen=True)
class ChurnInputs:
    """Inputs of the request-driven ``admit-churn`` workload."""

    arrivals: Tuple[Arrival, ...]
    optimizer_seed: int
    solve_iterations: int


#: Waypoint index each mobile client starts from: opposite ends of the
#: scene's client loop, so the two clients rarely share a corridor.
CLIENT_OFFSETS = (0, 3)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def roam_inputs(seed: int) -> DaemonInputs:
    rng = _rng(seed, 1)
    return DaemonInputs(
        steps=110,
        dt_s=0.25,
        client_speeds=tuple(round(float(v), 3) for v in rng.uniform(1.0, 1.1, 2)),
        client_pause_s=(0.0, 0.0),
        walker_speeds=(round(float(rng.uniform(0.9, 1.0)), 3),),
        optimizer_seed=int(rng.integers(2**31)),
        solve_iterations=24,
        adaptive=False,
    )


def dwell_faults_inputs(seed: int) -> DaemonInputs:
    rng = _rng(seed, 2)
    steps, dt = 160, 0.25
    horizon = steps * dt
    link_from = round(float(rng.uniform(0.15, 0.25)) * horizon, 3)
    faults = FaultPlan(
        seed=int(rng.integers(2**31)),
        dead_panel="rs-north",
        death_at_s=round(float(rng.uniform(0.29, 0.33)) * horizon, 3),
        link_panel="rs-east",
        link_from_s=link_from,
        link_until_s=round(link_from + float(rng.uniform(0.3, 0.4)) * horizon, 3),
        drop_probability=0.3,
        extra_delay_s=0.002,
    )
    return DaemonInputs(
        steps=steps,
        dt_s=dt,
        client_speeds=tuple(round(float(v), 3) for v in rng.uniform(0.98, 1.06, 2)),
        client_pause_s=tuple(round(float(v), 3) for v in rng.uniform(0.95, 1.05, 2)),
        walker_speeds=(),
        optimizer_seed=int(rng.integers(2**31)),
        solve_iterations=48,
        adaptive=True,
        search_scale=0.5,
        search_decay=0.7,
        faults=faults,
    )


#: Archetypes the ``admit-churn`` trace cycles through (link demands).
CHURN_APPS = ("video_streaming", "online_meeting", "file_transfer")
CHURN_REQUESTS = 170
#: Static client spots in the bedroom (x, y, device height); each
#: request lands on a seeded one, so its channel legs are warm after
#: the spot's first use.
CHURN_SPOTS = tuple(
    (x, y, 1.0) for y in (1.4, 2.8) for x in (5.8, 6.8, 7.6)
)
#: Base-segment gaps: a floor above the coalescer's busy threshold plus
#: an exponential tail, so lone requests are solved on arrival.
BASE_GAP_FLOOR_S = 0.1
BASE_GAP_MEAN_S = 0.25
#: Flash-segment gaps, all below the busy threshold, so windows open.
#: A share of them are zero: requests that arrive together, which one
#: tick drains and admits as a batch.
FLASH_GAP_S = (0.002, 0.025)
FLASH_TOGETHER = 0.4
#: The trace repeats a base segment of this many requests followed by
#: a flash segment filling the rest of the cycle.
BASE_SEGMENT = 8
SEGMENT_CYCLE = 19
#: Seeded hold time before ``broker.stop_application``.
HOLD_S = (0.3, 1.0)
#: Stated bound on simultaneously live tasks (coverage + link tasks).
LIVE_TASK_BOUND = 24


def _stratified(rng: np.random.Generator, quantile, count: int) -> List[float]:
    """``count`` values at evenly spaced quantiles, in seeded order.

    Every seed draws the same multiset of values and only their order
    changes, so the workload's load and hold-time distributions, and
    with them its cost, do not drift from seed to seed.
    """
    values = [quantile((j + 0.5) / count) for j in range(count)]
    return [values[int(k)] for k in rng.permutation(count)]


def churn_inputs(seed: int) -> ChurnInputs:
    rng = _rng(seed, 3)
    n = CHURN_REQUESTS
    # Spots are dealt in seeded shuffles of the whole set, so every
    # spot serves the same share of the trace whatever the seed.
    spots = [
        int(s)
        for _ in range(-(-n // len(CHURN_SPOTS)))
        for s in rng.permutation(len(CHURN_SPOTS))
    ]
    flash = [(i % SEGMENT_CYCLE) >= BASE_SEGMENT for i in range(n)]
    # The gap after request i is a flash gap only inside a flash
    # segment; every other gap, segment boundaries included, is a base
    # gap.  Both kinds are stratified, so each seed draws the same gaps.
    in_flash = [flash[i] and flash[i + 1] for i in range(n - 1)]
    lo, hi = FLASH_GAP_S

    def flash_gap(u: float) -> float:
        if u < FLASH_TOGETHER:
            return 0.0
        return lo + (hi - lo) * (u - FLASH_TOGETHER) / (1.0 - FLASH_TOGETHER)

    flash_gaps = iter(_stratified(rng, flash_gap, sum(in_flash)))
    base_gaps = iter(
        _stratified(
            rng,
            lambda u: BASE_GAP_FLOOR_S - BASE_GAP_MEAN_S * math.log1p(-u),
            len(in_flash) - sum(in_flash),
        )
    )
    holds = _stratified(rng, lambda u: HOLD_S[0] + (HOLD_S[1] - HOLD_S[0]) * u, n)
    arrivals: List[Arrival] = []
    at = 0.2
    for i in range(n):
        arrivals.append(
            Arrival(
                at_s=round(at, 6),
                app=CHURN_APPS[i % len(CHURN_APPS)],
                spot=spots[i],
                hold_s=round(holds[i], 3),
            )
        )
        if i < n - 1:
            at += next(flash_gaps) if in_flash[i] else next(base_gaps)
    return ChurnInputs(
        arrivals=tuple(arrivals),
        optimizer_seed=int(rng.integers(2**31)),
        solve_iterations=16,
    )


# ----------------------------------------------------------------------
# episode results
# ----------------------------------------------------------------------


@dataclass
class Episode:
    """One set-up plus one fixed-length drive of a workload."""

    setup_s: float = 0.0
    #: Wall seconds of the drive loop (program calls only).
    drive_s: float = 0.0
    reaction_wall_ms: List[float] = field(default_factory=list)
    reaction_sim_ms: List[float] = field(default_factory=list)
    request_wall_ms: List[float] = field(default_factory=list)
    request_sim_ms: List[float] = field(default_factory=list)
    queue_wait_sim_ms: List[float] = field(default_factory=list)
    batch_sizes: List[int] = field(default_factory=list)
    snr_trace: List[float] = field(default_factory=list)
    #: The program's counters when the drive loop started (after set-up).
    start_counts: Dict[str, object] = field(default_factory=dict)
    #: Deterministic counts; every episode of one seed must agree.
    counts: Dict[str, object] = field(default_factory=dict)
    tracer: Optional[Tracer] = None

    @property
    def snr_digest(self) -> str:
        return hashlib.sha1(
            np.asarray(self.snr_trace, dtype=np.float64).tobytes()
        ).hexdigest()

    def delta(self, name: str) -> float:
        """Change of counter ``name`` over the drive loop."""
        return self.counts[name] - self.start_counts[name]

    def fingerprint(self) -> Dict[str, object]:
        """Everything that must repeat exactly for one seed."""
        sims = np.asarray(
            self.reaction_sim_ms + [-1.0] + self.request_sim_ms + [-1.0]
            + self.queue_wait_sim_ms,
            dtype=np.float64,
        )
        return {
            "snr_digest": self.snr_digest,
            "sim_digest": hashlib.sha1(sims.tobytes()).hexdigest(),
            "batch_sizes": list(self.batch_sizes),
            **self.counts,
        }


def _counts(system: SurfOS) -> Dict[str, object]:
    """The program's public counters at the end of an episode."""
    orch = system.orchestrator
    sim = orch.simulator
    stats = system.pipeline.stats
    tel = system.telemetry
    counter_names = (
        "optimizer.objective_evaluations",
        "solver.budget_iterations",
        "solver.used_iterations",
        "solver.warm_hits",
        "solver.early_stops",
        "hwmgr.retries",
        "hwmgr.push_failures",
        "orchestrator.push_failures",
        "broker.rejections",
        "faults.injected",
    )
    counts: Dict[str, object] = {
        "solves": stats.reoptimizations,
        "submitted": stats.submitted,
        "rejected": stats.rejected,
        "admitted": stats.admitted,
        "admission_failures": stats.admission_failures,
        "triggers": stats.triggers,
        "reoptimize_failures": stats.reoptimize_failures,
        "served": len(stats.latencies),
        "window_sum_ms": stats.window_sum_s * 1e3,
        "leg_hits": sim.leg_cache_stats[0],
        "legs_retraced": sim.leg_cache_stats[1],
        "legs_prefetched": sim.prefetch_stats[0],
        "prefetch_hits": sim.prefetch_stats[1],
        "prefetch_wasted": sim.prefetch_stats[2],
    }
    for name in counter_names:
        counts[name] = int(tel.get_counter(name))
    return counts


def _observe_points(system: SurfOS) -> np.ndarray:
    room = system.env.room(system.scene.observe_room)
    return room.grid(system.orchestrator.grid_spacing_m, z=1.0)


def _median_snr(system: SurfOS, points: np.ndarray) -> float:
    """Median SNR (dB) over ``points`` under the live configurations."""
    orch = system.orchestrator
    panels = orch.hardware.panels()
    model = orch.simulator.build(orch.ap.node(), points, panels)
    configs = {
        p.panel_id: p.configuration.coefficients().reshape(-1) for p in panels
    }
    return float(np.median(snr_map_db(model, configs, orch.budget)))


# ----------------------------------------------------------------------
# daemon-driven workloads: roam, dwell-faults
# ----------------------------------------------------------------------


def _optimizer(
    seed: int, iterations: int, adaptive: bool = False, scale: float = 1.0,
    decay: float = 0.9,
) -> RandomSearch:
    """RandomSearch; adaptive runs also stop early on a plateau."""
    return RandomSearch(
        max_iterations=iterations,
        seed=seed,
        initial_scale=scale,
        decay=decay,
        early_stop_eps=1e-3 if adaptive else None,
        early_stop_patience=2,
    )


def _budget(inputs: DaemonInputs) -> Optional[SolveBudgetConfig]:
    if not inputs.adaptive:
        return None
    return SolveBudgetConfig(
        enabled=True,
        floor=max(2, inputs.solve_iterations // 12),
        drift_low=5e-3,
        drift_high=5e-2,
    )


def _injector(plan: Optional[FaultPlan]) -> Optional[FaultInjector]:
    if plan is None:
        return None
    injector = FaultInjector(seed=plan.seed)
    injector.kill_panel(plan.dead_panel, at_time=plan.death_at_s)
    injector.lossy_link(
        plan.link_panel,
        drop_probability=plan.drop_probability,
        extra_delay_s=plan.extra_delay_s,
        at_time=plan.link_from_s,
        until=plan.link_until_s,
    )
    return injector


def setup_daemon(inputs: DaemonInputs) -> Tuple[SurfOS, float]:
    """Stand the system up; returns it with the set-up wall seconds."""
    reset_task_counter()
    reset_request_counter()
    start = time.perf_counter()
    system = SurfOS.from_scene(
        SCENE,
        panel_size=PANEL_SIZE,
        optimizer=_optimizer(
            inputs.optimizer_seed, inputs.solve_iterations, inputs.adaptive,
            inputs.search_scale, inputs.search_decay,
        ),
        grid_spacing_m=GRID_SPACING_M,
        fault_injector=_injector(inputs.faults),
        channel_workers=CHANNEL_WORKERS,
        solve_budget=_budget(inputs),
    )
    system.attach_pipeline(pipeline_config())
    scene = system.scene
    for j, speed in enumerate(inputs.walker_speeds):
        loop = scene.walker_loops[j % len(scene.walker_loops)]
        system.dynamics.add_walker(
            Walker(
                f"walker-{j}",
                model=WaypointWalker(loop, speed_mps=speed),
            )
        )
    base = scene.client_loops[0]
    for i, offset in enumerate(CLIENT_OFFSETS):
        loop = tuple(base[offset:]) + tuple(base[:offset])
        client = system.add_client(ClientDevice(f"mc{i}", tuple(map(float, loop[0]))))
        system.dynamics.attach_client(
            client,
            WaypointWalker(
                loop,
                speed_mps=inputs.client_speeds[i],
                pauses=inputs.client_pause_s[i] or None,
            ),
        )
    system.orchestrator.optimize_coverage(scene.observe_room)
    for i in range(len(CLIENT_OFFSETS)):
        system.orchestrator.enhance_link(f"mc{i}", snr=LINK_SNR_DB)
    system.orchestrator.reoptimize(now=0.0)
    return system, time.perf_counter() - start


def _predicted_points(system: SurfOS, dt: float) -> Optional[np.ndarray]:
    """The point set the next reoptimization will build with.

    Per-task point blocks in ``active_contexts()`` order, with each
    mobile client's block replaced by its model's exact ``peek(dt)``.
    """
    predictions = system.dynamics.peek_clients(dt)
    blocks = []
    for ctx in system.orchestrator.active_contexts():
        client_id = ctx.task.goal.get("client")
        if client_id is not None and client_id in predictions:
            blocks.append(as_vec3(predictions[client_id])[None, :])
        else:
            blocks.append(ctx.points)
    return np.concatenate(blocks, axis=0) if blocks else None


def _time_trigger_requests(system: SurfOS, episode: Episode) -> None:
    """Time each environment trigger from ``note_trigger`` to its serving tick.

    On the daemon-driven workloads a request is an environment trigger
    the daemon notes to the pipeline.  The hooks are instance
    attributes that only read the clocks around the original calls.
    """
    pipeline = system.pipeline
    orch = system.orchestrator
    note, tick = pipeline.note_trigger, pipeline.tick
    pending: List[Tuple[float, float]] = []

    def note_trigger(kind, now=None):
        at = pipeline.clock.now if now is None else now
        pending.append((time.perf_counter(), at))
        return note(kind, now)

    def timed_tick(now=None):
        outcome = tick(now)
        if outcome.reoptimized:
            end = time.perf_counter()
            for wall, at in pending:
                episode.request_wall_ms.append((end - wall) * 1e3)
                episode.request_sim_ms.append((orch.clock_now - at) * 1e3)
            pending.clear()
        elif outcome.failure_reason:
            pending.clear()
        return outcome

    pipeline.note_trigger = note_trigger
    pipeline.tick = timed_tick


def run_daemon(inputs: DaemonInputs, tracer: Optional[Tracer] = None) -> Episode:
    """Set up, then drive ``inputs.steps`` daemon cycles."""
    episode = Episode(tracer=tracer)
    system, episode.setup_s = setup_daemon(inputs)
    episode.start_counts = _counts(system)
    orch = system.orchestrator
    simulator = orch.simulator
    daemon = system.daemon
    points = _observe_points(system)
    _time_trigger_requests(system, episode)
    try:
        for step in range(inputs.steps):
            unit = tracer.begin_unit(step, lambda: _counts(system)) if tracer else -1
            start = time.perf_counter()
            predicted = _predicted_points(system, inputs.dt_s)
            if predicted is not None:
                simulator.prefetch(orch.ap.node(), predicted, orch.hardware.panels())
            stepped = time.perf_counter()
            record = daemon.step(inputs.dt_s)
            end = time.perf_counter()
            if tracer:
                tracer.end_unit(unit, reacted=record is not None)
            episode.drive_s += end - start
            if record is not None:
                episode.reaction_wall_ms.append((end - stepped) * 1e3)
                episode.reaction_sim_ms.append(record.reaction_latency_s * 1e3)
            episode.snr_trace.append(_median_snr(system, points))
    finally:
        system.pipeline.close()
    episode.counts = _counts(system)
    episode.counts["reactions"] = len(daemon.reactions)
    episode.counts["trigger_kinds"] = dict(
        sorted(Counter(r.trigger for r in daemon.reactions).items())
    )
    episode.counts["daemon_reoptimize_failures"] = daemon.reoptimize_failures
    episode.counts["faults_activated"] = (
        len(system.hardware.faults.history) if system.hardware.faults else 0
    )
    return episode


# ----------------------------------------------------------------------
# request-driven workload: admit-churn
# ----------------------------------------------------------------------


def setup_churn(inputs: ChurnInputs) -> Tuple[SurfOS, float]:
    """Static apartment with one resident coverage task, converged."""
    reset_task_counter()
    reset_request_counter()
    start = time.perf_counter()
    system = SurfOS.from_scene(
        SCENE,
        panel_size=PANEL_SIZE,
        optimizer=_optimizer(inputs.optimizer_seed, inputs.solve_iterations),
        grid_spacing_m=GRID_SPACING_M,
        channel_workers=CHANNEL_WORKERS,
    )
    system.attach_pipeline(pipeline_config())
    system.orchestrator.optimize_coverage(system.scene.observe_room)
    system.orchestrator.reoptimize(now=0.0)
    return system, time.perf_counter() - start


def run_churn(inputs: ChurnInputs, tracer: Optional[Tracer] = None) -> Episode:
    """Set up, then drive the open-loop arrival trace to completion.

    Submissions and stops are clock callbacks; the loop advances the
    sim clock straight to the next callback or pipeline deadline and
    ticks there (the event-driven discipline of ``RequestPipeline.pump``,
    with each tick timed).
    """
    episode = Episode(tracer=tracer)
    system, episode.setup_s = setup_churn(inputs)
    episode.start_counts = _counts(system)
    orch = system.orchestrator
    pipeline = system.pipeline
    clock = pipeline.clock
    room = system.scene.observe_room
    points = _observe_points(system)
    outstanding: List[Tuple[object, float, Arrival]] = []
    settled = 0
    rejected = 0
    peak_live = len(orch.active_contexts())
    multi_request_solves = 0

    def submit(index: int, arrival: Arrival) -> None:
        client_id = f"guest-{index}"
        system.add_client(ClientDevice(client_id, CHURN_SPOTS[arrival.spot]))
        submitted = time.perf_counter()
        handle = pipeline.submit(demand_for(arrival.app, client_id, room))
        outstanding.append((handle, submitted, arrival))

    def stop(app: str, client_id: str) -> None:
        system.broker.stop_application(app, client_id)
        system.hardware.unregister_client(client_id)

    for index, arrival in enumerate(inputs.arrivals):
        clock.schedule(arrival.at_s, lambda i=index, a=arrival: submit(i, a))
    horizon = inputs.arrivals[-1].at_s + 60.0
    unit = 0
    try:
        while settled < len(inputs.arrivals):
            now = clock.now
            targets = [
                t for t in (clock.next_event_at(), pipeline.next_deadline(now))
                if t is not None
            ]
            if not targets or min(targets) > horizon:
                raise RuntimeError(
                    f"admit-churn stalled at t={now:.3f}s with "
                    f"{len(inputs.arrivals) - settled} requests unsettled"
                )
            root = tracer.begin_unit(unit, lambda: _counts(system)) if tracer else -1
            start = time.perf_counter()
            clock.advance(max(0.0, min(targets) - now))
            ticked = time.perf_counter()
            outcome = pipeline.tick()
            end = time.perf_counter()
            if tracer:
                tracer.end_unit(root, reacted=outcome.reoptimized)
            unit += 1
            episode.drive_s += end - start
            if outcome.drained:
                episode.batch_sizes.append(outcome.drained)
            served_now = 0
            still: List[Tuple[object, float, Arrival]] = []
            for handle, submitted, arrival in outstanding:
                if handle.served_at is not None:
                    served_now += 1
                    settled += 1
                    episode.request_wall_ms.append((end - submitted) * 1e3)
                    episode.request_sim_ms.append(
                        (handle.served_at - handle.submitted_at) * 1e3
                    )
                    episode.queue_wait_sim_ms.append(
                        (handle.admitted_at - handle.submitted_at) * 1e3
                    )
                    demand = handle.request.demand
                    clock.schedule(
                        handle.served_at + arrival.hold_s,
                        lambda app=demand.app_name, c=demand.client_id: stop(app, c),
                    )
                elif handle.status in (HandleStatus.REJECTED, HandleStatus.FAILED):
                    settled += 1
                    rejected += 1
                else:
                    still.append((handle, submitted, arrival))
            outstanding = still
            if outcome.reoptimized:
                episode.reaction_wall_ms.append((end - ticked) * 1e3)
                episode.reaction_sim_ms.append(
                    (orch.clock_now - outcome.first_trigger_at) * 1e3
                )
                if served_now > 1:
                    multi_request_solves += 1
                episode.snr_trace.append(_median_snr(system, points))
            peak_live = max(peak_live, len(orch.active_contexts()))
    finally:
        pipeline.close()
    episode.counts = _counts(system)
    episode.counts["reactions"] = len(episode.reaction_wall_ms)
    episode.counts["requests"] = len(inputs.arrivals)
    episode.counts["settled_rejected"] = rejected
    episode.counts["multi_request_solves"] = multi_request_solves
    episode.counts["peak_live_tasks"] = peak_live
    return episode
