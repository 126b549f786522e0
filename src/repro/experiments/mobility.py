"""Mobility & churn scenarios with speculative leg prefetch.

Continuous-motion endpoints (waypoint walkers crossing doorways),
obstacle walkers, and Poisson arrival/departure churn drive the real
daemon → pipeline → orchestrator loop on any registered scene
(``two-room``, ``apartment``, the two-storey ``office``).  Every step
the driver optionally *pre-traces* the channel legs for where the
mobility models will be next:

1. :meth:`~repro.runtime.dynamics.EnvironmentDynamics.peek_clients`
   runs each model's ``peek(dt)`` — the exact arithmetic of the real
   next step on a copy, so predictions are bit-identical to where the
   endpoints actually move;
2. the predicted per-task point blocks are concatenated in
   ``active_contexts()`` order (exactly how ``reoptimize`` will
   assemble them) and handed to
   :meth:`~repro.channel.simulator.ChannelSimulator.prefetch`, warming
   the ``direct``/``surface_to_points`` legs in the leg LRU off the
   reaction path.

Prefetching only warms a cache keyed by the exact float bytes of the
point set, so outputs are bit-identical with it on, off, or cold — the
determinism gates below diff a per-step median-SNR trace to prove it.
``benchmarks/test_bench_mobility.py`` turns the same driver into the
``BENCH_mobility.json`` artifact (prefetch-on vs -off vs cold wall
reaction latency).
"""

from __future__ import annotations

import hashlib
import time
import zlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..analysis.tables import render_table
from ..broker.calls import reset_request_counter
from ..channel import live_configs
from ..core.errors import SchedulingError
from ..core.kernel import SurfOS
from ..geometry.vec import as_vec3
from ..hwmgr.devices import ClientDevice
from ..mobility import RandomWalk, WaypointWalker, churn_schedule
from ..orchestrator.optimizers import RandomSearch
from ..orchestrator.solvebudget import SolveBudgetConfig
from ..orchestrator.tasks import reset_task_counter
from ..pipeline import AdaptiveCoalesceConfig, PipelineConfig
from ..runtime.dynamics import Walker
from ..services.connectivity import snr_map_db
from ..telemetry import Telemetry
from .result import ExperimentResultBase

#: Optimizer budget per joint solve — small enough for CI, large
#: enough that reaction wall time is dominated by solve + channel work.
SOLVE_ITERATIONS = 24

#: Link-SNR target asked of every mobile client's task.
_LINK_SNR_DB = 20.0

#: Drift band for ``adaptive_budget`` runs, calibrated on the bench
#: workload: settled re-solves probe below ~0.5% drift (the residual
#: from neighbouring panels' freshly pushed configs) and earn the floor
#: budget; genuine motion probes 2–40% and earns the full ceiling.
_DRIFT_LOW = 5e-3
_DRIFT_HIGH = 5e-2


def _solve_budget_config(config: "MobilityConfig") -> SolveBudgetConfig:
    """The drift-aware budget profile for one mobility run."""
    return SolveBudgetConfig(
        enabled=True,
        floor=max(2, config.solve_iterations // 12),
        drift_low=_DRIFT_LOW,
        drift_high=_DRIFT_HIGH,
    )


@dataclass(frozen=True)
class MobilityConfig:
    """One mobility scenario run.

    Attributes:
        scene: registered scene name (``repro.geometry.scenes``).
        seed: master seed (walker speeds, churn schedule, spawns).
        steps: daemon cycles to run.
        dt_s: simulated seconds per cycle.
        clients: mobile endpoints walking the scene's client loops.
        walkers: obstacle walkers on the scene's walker loops.
        churn_rate_hz: Poisson arrival rate of transient guest clients
            (0 disables churn — the pure-motion regime).
        churn_lifetime_s: mean guest dwell time.
        churn_max_live: cap on simultaneously live guests.
        prefetch: speculatively pre-trace predicted legs each step.
        panel_size: elements per surface side.
        grid_spacing_m: coverage/observation grid pitch.
        leg_cache_size: override for the simulator's leg LRU bound
            (``None`` keeps the default; ``0`` disables leg caching —
            the "cold" baseline).
        measure_wall: record wall-clock reaction times (kept out of
            the summary; the bench reads them off the result).
        adaptive_budget: drift-aware adaptive solve budgets + solution
            memory + optimizer early-stop (off = fixed budgets,
            byte-identical to the pre-feature control plane).
        client_pause_s: dwell seconds at each client waypoint (0 keeps
            the legacy always-moving endpoints).  Dwells create
            quiescent reactions where the objective goes static — the
            regime adaptive budgets harvest.
        search_scale: RandomSearch initial perturbation scale.
        search_decay: RandomSearch scale decay on failed iterations —
            lower values converge (and so plateau) within the budget.
        early_stop_eps: relative-improvement early-stop threshold used
            when ``adaptive_budget`` is on (``None`` disables the
            stop; budgets still apply).
        early_stop_patience: consecutive stalled iterations before the
            early stop fires.
    """

    scene: str = "apartment"
    seed: int = 0
    steps: int = 60
    dt_s: float = 0.25
    clients: int = 1
    walkers: int = 1
    churn_rate_hz: float = 0.0
    churn_lifetime_s: float = 8.0
    churn_max_live: int = 3
    prefetch: bool = True
    panel_size: int = 8
    solve_iterations: int = SOLVE_ITERATIONS
    grid_spacing_m: float = 1.0
    leg_cache_size: Optional[int] = None
    measure_wall: bool = False
    adaptive_budget: bool = False
    client_pause_s: float = 0.0
    search_scale: float = 1.0
    search_decay: float = 0.9
    early_stop_eps: Optional[float] = 1e-3
    early_stop_patience: int = 2


@dataclass
class MobilityResult(ExperimentResultBase):
    """Outcome of one mobility scenario run."""

    config: MobilityConfig
    reactions: int = 0
    reaction_p50_s: float = 0.0
    reaction_p95_s: float = 0.0
    triggers: Dict[str, int] = field(default_factory=dict)
    legs_prefetched: int = 0
    prefetch_hits: int = 0
    prefetch_wasted: int = 0
    legs_retraced: int = 0
    leg_cache_full_purges: int = 0
    churn_arrivals: int = 0
    churn_departures: int = 0
    reoptimize_failures: int = 0
    median_snr_db: float = 0.0
    snr_digest: str = ""
    #: Per-step median observed SNR (the deterministic functional
    #: output the bit-identity gates diff).  Not summarized.
    snr_trace: List[float] = field(default_factory=list, repr=False)
    #: Wall-clock seconds of each daemon step that fired a reaction
    #: (only with ``measure_wall``); nondeterministic, bench-only.
    wall_reaction_s: List[float] = field(default_factory=list, repr=False)
    #: The same steps' wall-clock seconds with the step's prefetch
    #: included (only with ``measure_wall``); nondeterministic, bench-only.
    wall_step_s: List[float] = field(default_factory=list, repr=False)
    #: Wall-clock seconds of each fired reaction's *optimize* phase
    #: (only with ``measure_wall``); nondeterministic, bench-only.
    wall_solve_s: List[float] = field(default_factory=list, repr=False)
    #: Adaptive solve-budget totals over the run (``solver.*``
    #: counters; all zero when ``adaptive_budget`` is off).
    solver_budgeted_iterations: int = 0
    solver_used_iterations: int = 0
    solver_warm_hits: int = 0
    solver_early_stops: int = 0

    @property
    def prefetch_hit_rate(self) -> float:
        """Hits over resolved (hit or wasted) prefetched legs."""
        resolved = self.prefetch_hits + self.prefetch_wasted
        if resolved <= 0:
            return 0.0
        return self.prefetch_hits / resolved

    def summary(self) -> Dict[str, object]:
        cfg = self.config
        return {
            "scene": cfg.scene,
            "seed": cfg.seed,
            "steps": cfg.steps,
            "dt_s": cfg.dt_s,
            "clients": cfg.clients,
            "walkers": cfg.walkers,
            "churn_rate_hz": cfg.churn_rate_hz,
            "prefetch": cfg.prefetch,
            "reactions": self.reactions,
            "reaction_p50_s": round(self.reaction_p50_s, 6),
            "reaction_p95_s": round(self.reaction_p95_s, 6),
            "triggers": dict(sorted(self.triggers.items())),
            "legs_prefetched": self.legs_prefetched,
            "prefetch_hits": self.prefetch_hits,
            "prefetch_wasted": self.prefetch_wasted,
            "prefetch_hit_rate": round(self.prefetch_hit_rate, 4),
            "legs_retraced": self.legs_retraced,
            "leg_cache_full_purges": self.leg_cache_full_purges,
            "churn_arrivals": self.churn_arrivals,
            "churn_departures": self.churn_departures,
            "reoptimize_failures": self.reoptimize_failures,
            "median_snr_db": round(self.median_snr_db, 6),
            "snr_digest": self.snr_digest,
            "adaptive_budget": cfg.adaptive_budget,
            "solver_budgeted_iterations": self.solver_budgeted_iterations,
            "solver_used_iterations": self.solver_used_iterations,
            "solver_warm_hits": self.solver_warm_hits,
            "solver_early_stops": self.solver_early_stops,
        }

    def gate_failures(self) -> List[str]:
        failures = []
        if self.reactions <= 0:
            failures.append("no reactions fired over the run")
        if self.reoptimize_failures:
            failures.append(
                f"{self.reoptimize_failures} reoptimizations failed"
            )
        if self.config.churn_rate_hz <= 0 and self.leg_cache_full_purges:
            failures.append(
                "pure-motion run full-purged the leg cache "
                f"{self.leg_cache_full_purges}x (attribution regression)"
            )
        if (
            self.config.prefetch
            and self.config.churn_rate_hz <= 0
            and self.config.leg_cache_size != 0
            and self.prefetch_hit_rate < 0.5
        ):
            failures.append(
                f"prefetch hit rate {self.prefetch_hit_rate:.2f} below 0.5"
            )
        return failures

    def render(self) -> str:
        cfg = self.config
        rows = [
            ("reactions", str(self.reactions)),
            ("reaction p50 (sim s)", f"{self.reaction_p50_s:.3f}"),
            ("reaction p95 (sim s)", f"{self.reaction_p95_s:.3f}"),
            (
                "triggers",
                ", ".join(
                    f"{k}:{v}" for k, v in sorted(self.triggers.items())
                )
                or "-",
            ),
            (
                "prefetch legs (hit/wasted)",
                f"{self.legs_prefetched} "
                f"({self.prefetch_hits}/{self.prefetch_wasted})",
            ),
            ("prefetch hit rate", f"{self.prefetch_hit_rate:.2f}"),
            ("legs retraced", str(self.legs_retraced)),
            ("leg-cache full purges", str(self.leg_cache_full_purges)),
            (
                "churn (arrive/depart)",
                f"{self.churn_arrivals}/{self.churn_departures}",
            ),
            ("median SNR (dB)", f"{self.median_snr_db:.2f}"),
        ]
        if cfg.adaptive_budget:
            rows.append(
                (
                    "solver iters (used/budgeted)",
                    f"{self.solver_used_iterations}"
                    f"/{self.solver_budgeted_iterations}",
                )
            )
            rows.append(
                (
                    "solver warm hits / early stops",
                    f"{self.solver_warm_hits}/{self.solver_early_stops}",
                )
            )
        mode = "prefetch on" if cfg.prefetch else "prefetch off"
        if cfg.leg_cache_size == 0:
            mode = "cold (no leg cache)"
        return render_table(
            ("metric", "value"),
            rows,
            title=(
                f"Mobility: scene={cfg.scene} steps={cfg.steps} "
                f"clients={cfg.clients} walkers={cfg.walkers} "
                f"churn={cfg.churn_rate_hz:g}/s [{mode}] (seed {cfg.seed})"
            ),
        )


def _guest_seed(seed: int, client_id: str) -> int:
    """Id-derived seed: stable across arrival order."""
    return seed * 7919 + zlib.crc32(client_id.encode("utf-8"))


class _ChurnDriver:
    """Registers guest arrivals/departures on the daemon clock."""

    def __init__(self, system: SurfOS, config: MobilityConfig):
        self.system = system
        self.config = config
        self.scene = system.scene
        self.arrivals = 0
        self.departures = 0
        self._tasks: Dict[str, List[str]] = {}
        events = churn_schedule(
            config.churn_rate_hz,
            horizon_s=config.steps * config.dt_s,
            seed=config.seed + 101,
            lifetime_s=config.churn_lifetime_s,
            max_live=config.churn_max_live,
            prefix="guest",
        )
        clock = system.daemon.clock
        for event in events:
            handler = (
                self._arrive if event.kind == "arrive" else self._depart
            )
            clock.schedule(event.at, lambda e=event, h=handler: h(e.client_id))

    def _arrive(self, client_id: str) -> None:
        rng = np.random.default_rng(
            _guest_seed(self.config.seed, client_id)
        )
        position = tuple(map(float, self.scene.spawn_position(rng)))
        client = self.system.add_client(ClientDevice(client_id, position))
        task = self.system.orchestrator.enhance_link(
            client_id, snr=_LINK_SNR_DB, priority=5
        )
        self._tasks[client_id] = [task.task_id]
        self.system.dynamics.attach_client(
            client,
            RandomWalk(
                position,
                self.scene.spawn_lo,
                self.scene.spawn_hi,
                speed_mps=0.8,
                seed=_guest_seed(self.config.seed, client_id) + 1,
            ),
        )
        self.arrivals += 1

    def _depart(self, client_id: str) -> None:
        for task_id in self._tasks.pop(client_id, []):
            try:
                self.system.orchestrator.complete_task(task_id)
            except SchedulingError:
                pass  # already completed, failed or preempted
        self.system.dynamics.detach_client(client_id)
        self.system.hardware.unregister_client(client_id)
        self.departures += 1


def build_system(
    config: MobilityConfig, telemetry: Optional[Telemetry] = None
) -> SurfOS:
    """Stand up the scenario's booted system + pipeline + mobility."""
    reset_task_counter()
    reset_request_counter()
    system = SurfOS.from_scene(
        config.scene,
        panel_size=config.panel_size,
        optimizer=RandomSearch(
            max_iterations=config.solve_iterations,
            seed=config.seed,
            initial_scale=config.search_scale,
            decay=config.search_decay,
            early_stop_eps=(
                config.early_stop_eps if config.adaptive_budget else None
            ),
            early_stop_patience=config.early_stop_patience,
        ),
        grid_spacing_m=config.grid_spacing_m,
        telemetry=telemetry,
        solve_budget=(
            _solve_budget_config(config) if config.adaptive_budget else None
        ),
    )
    if config.leg_cache_size is not None:
        system.orchestrator.simulator.leg_cache_size = config.leg_cache_size
    system.attach_pipeline(PipelineConfig(adaptive=AdaptiveCoalesceConfig()))
    scene = system.scene
    if config.walkers and not scene.walker_loops:
        raise ValueError(f"scene {scene.name!r} defines no walker loops")
    if config.clients and not scene.client_loops:
        raise ValueError(f"scene {scene.name!r} defines no client loops")
    for j in range(config.walkers):
        loop = scene.walker_loops[j % len(scene.walker_loops)]
        # People dwell: pausing at each waypoint leaves the environment
        # untouched for those steps (dynamics skips unchanged walkers),
        # so prefetched direct legs survive through the dwell.
        system.dynamics.add_walker(
            Walker(
                f"walker-{j}",
                model=WaypointWalker(
                    loop, speed_mps=0.9 + 0.15 * j, pauses=2.0
                ),
            )
        )
    for i in range(config.clients):
        loop = scene.client_loops[i % len(scene.client_loops)]
        client_id = f"mc{i}"
        client = system.add_client(
            ClientDevice(client_id, tuple(map(float, loop[0])))
        )
        system.dynamics.attach_client(
            client,
            WaypointWalker(
                loop,
                speed_mps=1.0 + 0.1 * i,
                pauses=config.client_pause_s or None,
            ),
        )
    system.orchestrator.optimize_coverage(scene.observe_room)
    for i in range(config.clients):
        system.orchestrator.enhance_link(f"mc{i}", snr=_LINK_SNR_DB)
    return system


def _predicted_points(system: SurfOS, dt: float) -> Optional[np.ndarray]:
    """The point set the *next* reoptimization will build with.

    Mirrors ``reoptimize``'s assembly exactly: per-task point blocks in
    ``active_contexts()`` order, with each mobile client's block
    replaced by its model's bit-exact ``peek(dt)`` prediction.
    """
    predictions = system.dynamics.peek_clients(dt)
    blocks = []
    for ctx in system.orchestrator.active_contexts():
        client_id = ctx.task.goal.get("client")
        if client_id is not None and client_id in predictions:
            blocks.append(as_vec3(predictions[client_id])[None, :])
        else:
            blocks.append(ctx.points)
    if not blocks:
        return None
    return np.concatenate(blocks, axis=0)


def run(
    config: MobilityConfig = MobilityConfig(),
    jsonl: Optional[str] = None,
    telemetry: Optional[Telemetry] = None,
) -> MobilityResult:
    """Run one mobility scenario end to end."""
    telemetry = telemetry or Telemetry()
    system = build_system(config, telemetry=telemetry)
    orchestrator = system.orchestrator
    simulator = orchestrator.simulator
    daemon = system.daemon
    churn = (
        _ChurnDriver(system, config) if config.churn_rate_hz > 0 else None
    )
    # Converge the starting placement so the run measures *reactions*.
    orchestrator.reoptimize(now=0.0)
    observe_points = daemon._points()
    panels = orchestrator.hardware.panels()
    result = MobilityResult(config=config)
    for _ in range(config.steps):
        step_start = time.perf_counter() if config.measure_wall else 0.0
        if config.prefetch and simulator.leg_cache_size > 0:
            predicted = _predicted_points(system, config.dt_s)
            if predicted is not None:
                simulator.prefetch(
                    orchestrator.ap.node(), predicted, panels
                )
        start = time.perf_counter() if config.measure_wall else 0.0
        record = daemon.step(config.dt_s)
        if config.measure_wall and record is not None:
            end = time.perf_counter()
            result.wall_reaction_s.append(end - start)
            result.wall_step_s.append(end - step_start)
            result.wall_solve_s.append(record.wall_solve_s)
        # Deterministic functional output: the observed-grid median
        # SNR under the live configurations.  This re-uses the
        # model the daemon's own observe() just built (cache hit)
        # rather than calling observe() again, which would feed the
        # monitor duplicate samples and skew anomaly detection.
        model = simulator.build(
            orchestrator.ap.node(), observe_points, panels
        )
        snrs = snr_map_db(model, live_configs(panels), orchestrator.budget)
        result.snr_trace.append(float(np.median(snrs)))
    latencies = [r.reaction_latency_s for r in daemon.reactions]
    result.reactions = len(latencies)
    if latencies:
        arr = np.asarray(latencies)
        result.reaction_p50_s = float(np.percentile(arr, 50.0))
        result.reaction_p95_s = float(np.percentile(arr, 95.0))
    result.triggers = dict(Counter(r.trigger for r in daemon.reactions))
    prefetched, hits, wasted = simulator.prefetch_stats
    result.legs_prefetched = prefetched
    result.prefetch_hits = hits
    result.prefetch_wasted = wasted
    result.legs_retraced = int(simulator.leg_cache_stats[1])
    result.leg_cache_full_purges = int(
        telemetry.get_counter("channel.leg_cache_full_purges")
    )
    if churn is not None:
        result.churn_arrivals = churn.arrivals
        result.churn_departures = churn.departures
    result.reoptimize_failures = daemon.reoptimize_failures
    result.solver_budgeted_iterations = int(
        telemetry.get_counter("solver.budget_iterations")
    )
    result.solver_used_iterations = int(
        telemetry.get_counter("solver.used_iterations")
    )
    result.solver_warm_hits = int(telemetry.get_counter("solver.warm_hits"))
    result.solver_early_stops = int(
        telemetry.get_counter("solver.early_stops")
    )
    if result.snr_trace:
        result.median_snr_db = result.snr_trace[-1]
    result.snr_digest = hashlib.sha1(
        np.asarray(result.snr_trace, dtype=float).tobytes()
    ).hexdigest()
    if jsonl:
        telemetry.export_jsonl(jsonl, sim_only=True)
    return result
