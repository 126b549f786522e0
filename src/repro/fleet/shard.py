"""Environment shards: one self-contained SurfOS stack per zone.

The fleet tier scales SurfOS out the way the paper's "millions of
users" north star demands: not by growing one orchestrator, but by
running N independent environments — each with its own
:class:`~repro.geometry.environment.Environment`,
:class:`~repro.hwmgr.manager.HardwareManager`,
:class:`~repro.orchestrator.orchestrator.SurfaceOrchestrator`, and
request pipeline — behind one global broker.  A :class:`ShardSpec`
declares a shard; :class:`EnvironmentShard` builds and owns the booted
stack plus the load/health signals the placement strategies consume.

All shards share one :class:`~repro.runtime.clock.SimClock` and one
:class:`~repro.telemetry.Telemetry` stream, so a fleet run stays a
single deterministic simulation: same seed → byte-identical sim-only
JSONL.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..core.kernel import SurfOS
from ..geometry.scenes import build_scene
from ..hwmgr.devices import ClientDevice
from ..hwmgr.health import HealthStatus
from ..orchestrator.optimizers import RandomSearch
from ..pipeline import PipelineConfig, RequestPipeline
from ..runtime.clock import SimClock
from ..telemetry import Telemetry

#: Carrier used by the default shard builder (28 GHz, the repo default).
_CARRIER_HZ = 28e9

#: Optimizer budget per solve for the default builder — small panels and
#: few iterations keep an N-shard fleet CI-fast.
_SOLVE_ITERATIONS = 40


@dataclass(frozen=True)
class ShardSpec:
    """Declarative description of one environment shard.

    Attributes:
        shard_id: unique shard identifier (also its telemetry tag).
        zone: the zone tag this shard serves (static zone routing keys
            client ids ``"<zone>:<device>"`` to it).
        seed: per-shard RNG seed (optimizer + client placement).
        panel_size: elements per side of the shard's programmable panel.
        queue_capacity: the shard pipeline's bounded queue size.
        coalesce_window_s: base coalescing window; the fleet staggers
            the effective window per shard to spread joint solves.
        builder: optional override building the shard's booted
            :class:`~repro.core.kernel.SurfOS`; called as
            ``builder(spec, telemetry)``.  Defaults to building the
            registered scene named by ``scene``.
        scene: registered scene the default builder stands up (and the
            spawn region ``ensure_client`` draws from).
    """

    shard_id: str
    zone: str
    seed: int = 0
    panel_size: int = 8
    queue_capacity: int = 64
    coalesce_window_s: float = 0.1
    builder: Optional[Callable[["ShardSpec", Telemetry], SurfOS]] = None
    scene: str = "two-room"


@dataclass(frozen=True)
class ShardLoad:
    """The load/health signal one shard exposes to placement strategies.

    Attributes:
        shard_id: which shard this snapshot describes.
        queue_depth: requests parked in the shard's pipeline queue.
        queue_capacity: the queue's bound (saturated when depth == cap).
        active_tasks: non-terminal tasks the shard's scheduler holds.
        operational_fraction: share of the shard's panels still taking
            control-plane writes (PR-3 health ladder).
        quarantined: whether the fleet (or total hardware loss) has
            pulled the shard out of rotation.
    """

    shard_id: str
    queue_depth: int
    queue_capacity: int
    active_tasks: int
    operational_fraction: float
    quarantined: bool

    @property
    def utilization(self) -> float:
        """Queue fill fraction in [0, 1]."""
        if self.queue_capacity <= 0:
            return 1.0
        return self.queue_depth / self.queue_capacity


def default_shard_system(spec: ShardSpec, telemetry: Telemetry) -> SurfOS:
    """The default shard: the spec's registered scene, one stack."""
    return SurfOS.from_scene(
        spec.scene,
        frequency_hz=_CARRIER_HZ,
        panel_size=spec.panel_size,
        optimizer=RandomSearch(
            max_iterations=_SOLVE_ITERATIONS, seed=spec.seed
        ),
        grid_spacing_m=1.0,
        telemetry=telemetry,
        device_prefix=f"{spec.shard_id}-",
    )


class EnvironmentShard:
    """One booted SurfOS stack plus its pipeline and load signals."""

    def __init__(
        self,
        spec: ShardSpec,
        clock: SimClock,
        telemetry: Telemetry,
        stagger_s: float = 0.0,
    ):
        self.spec = spec
        self.shard_id = spec.shard_id
        self.zone = spec.zone
        self.clock = clock
        self.telemetry = telemetry
        builder = spec.builder or default_shard_system
        self.system = builder(spec, telemetry)
        #: Effective coalescing window: the fleet staggers windows so N
        #: shards don't all fire their joint solves on the same tick
        #: (reoptimization load-balancing on the shared clock).
        self.coalesce_window_s = spec.coalesce_window_s + stagger_s
        # Shards tick their own pipeline on the shared fleet clock and
        # never step their daemon.
        self.pipeline = RequestPipeline(
            self.system.broker,
            clock=clock,
            config=PipelineConfig(
                queue_capacity=spec.queue_capacity,
                coalesce_window_s=self.coalesce_window_s,
            ),
        )
        #: Set by :meth:`FleetBroker.quarantine_shard`; a quarantined
        #: shard takes no new placements until reinstated.
        self.fleet_quarantined = False

    # -- load / health ---------------------------------------------------

    @property
    def broker(self):
        """The shard's single-environment service broker."""
        return self.system.broker

    @property
    def orchestrator(self):
        """The shard's surface orchestrator."""
        return self.system.orchestrator

    def operational_fraction(self) -> float:
        """Share of the shard's panels still accepting writes."""
        report = self.system.hardware.health_report()
        if not report:
            return 0.0
        operational = sum(
            1
            for health in report.values()
            if health.status
            not in (HealthStatus.QUARANTINED, HealthStatus.DEAD)
        )
        return operational / len(report)

    def active_task_count(self) -> int:
        """Non-terminal tasks currently held by the shard's scheduler."""
        return sum(
            1
            for ctx in self.orchestrator.active_contexts()
            if not ctx.task.is_terminal
        )

    def load(self) -> ShardLoad:
        """Snapshot the shard's load/health signal for placement."""
        fraction = self.operational_fraction()
        return ShardLoad(
            shard_id=self.shard_id,
            queue_depth=self.pipeline.queue.depth,
            queue_capacity=self.pipeline.queue.capacity,
            active_tasks=self.active_task_count(),
            operational_fraction=fraction,
            quarantined=self.fleet_quarantined or fraction <= 0.0,
        )

    # -- clients ---------------------------------------------------------

    def ensure_client(self, client_id: str) -> None:
        """Register the client device on this shard if it is new.

        Fleet requests name clients the shard has never seen; the shard
        materializes them at a deterministic seeded position inside the
        serviceable room (stable across runs — the position derives
        from the client id, not from arrival order).
        """
        try:
            self.system.hardware.client(client_id)
            return
        except Exception:
            pass
        digest = zlib.crc32(client_id.encode("utf-8"))
        rng = np.random.default_rng(self.spec.seed * 7919 + digest)
        scene = getattr(self.system, "scene", None)
        if scene is None:
            # Custom builders without a Scene keep the legacy two-room
            # spawn region (identical draws, bit for bit).
            scene = build_scene(self.spec.scene)
        position = tuple(map(float, scene.spawn_position(rng)))
        self.system.add_client(ClientDevice(client_id, position))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EnvironmentShard({self.shard_id!r}, zone={self.zone!r}, "
            f"window={self.coalesce_window_s:g}s)"
        )
