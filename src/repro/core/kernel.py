"""The SurfOS kernel façade: one object wiring every layer together.

Construction order mirrors Figure 3: hardware manager at the bottom,
surface orchestrator above it, service broker and LLM intent translation
in user space, and the runtime daemon watching the environment.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..broker.broker import ServiceBroker
from ..broker.calls import ServiceCall
from ..geometry.environment import Environment
from ..hwmgr.devices import AccessPoint, ClientDevice, Sensor
from ..hwmgr.manager import HardwareManager
from ..llm.client import LLMClient
from ..llm.intent import IntentTranslator, dispatch_calls
from ..llm.mock import MockLLM
from ..orchestrator.optimizers import Optimizer
from ..orchestrator.orchestrator import SurfaceOrchestrator
from ..pipeline import PipelineConfig, RequestPipeline
from ..runtime.clock import SimClock
from ..runtime.daemon import SurfOSDaemon
from ..runtime.dynamics import EnvironmentDynamics
from ..surfaces.panel import SurfacePanel
from ..telemetry import Telemetry
from .errors import SurfOSError


class SurfOS:
    """The metasurface operating system for one radio environment.

    Typical setup::

        surfos = SurfOS(env, frequency_hz=ghz(28))
        surfos.add_access_point(AccessPoint("ap", pos, 4, ghz(28)))
        surfos.add_surface(panel)
        surfos.add_client(ClientDevice("phone", pos))
        surfos.boot()
        task = surfos.orchestrator.optimize_coverage("bedroom")
        surfos.orchestrator.reoptimize()
        print(surfos.telemetry.summary())

    One :class:`~repro.telemetry.Telemetry` instance is threaded
    through every layer (hardware manager, channel simulator,
    orchestrator, daemon, broker) and exposed as ``surfos.telemetry``.

    Pass ``fault_injector`` (a :class:`~repro.faults.FaultInjector`) to
    exercise hardware failures; the daemon then reacts to surface
    degradation exactly like it reacts to motion.  Without one, no
    fault code runs at all.

    Pass ``channel_workers`` to fan cold channel-leg traces across a
    thread pool; results are bit-identical to serial at any worker
    count, so this is purely a latency knob.
    """

    def __init__(
        self,
        env: Environment,
        frequency_hz: float,
        llm: Optional[LLMClient] = None,
        optimizer: Optional[Optimizer] = None,
        grid_spacing_m: float = 0.7,
        telemetry: Optional[Telemetry] = None,
        fault_injector=None,
        channel_workers: int = 0,
        solve_budget=None,
    ):
        self.env = env
        self.frequency_hz = frequency_hz
        #: Thread-pool size for parallel channel-leg tracing (<=1 = serial).
        self.channel_workers = channel_workers
        #: Optional :class:`~repro.orchestrator.SolveBudgetConfig` for
        #: drift-aware adaptive solve budgets (None = fixed budgets).
        self.solve_budget = solve_budget
        self.telemetry = telemetry or Telemetry()
        self.hardware = HardwareManager(
            telemetry=self.telemetry, fault_injector=fault_injector
        )
        self.llm = llm or MockLLM()
        self._optimizer = optimizer
        self._grid_spacing = grid_spacing_m
        self.orchestrator: Optional[SurfaceOrchestrator] = None
        self.broker: Optional[ServiceBroker] = None
        self.translator: Optional[IntentTranslator] = None
        self.daemon: Optional[SurfOSDaemon] = None
        #: The daemon's request pipeline, built by :meth:`boot`.
        self.pipeline: Optional[RequestPipeline] = None
        self.dynamics = EnvironmentDynamics(env)
        #: The Scene this system was built from (set by from_scene).
        self.scene = None

    @classmethod
    def from_scene(
        cls,
        scene,
        *,
        frequency_hz: float = 28e9,
        panel_size: int = 8,
        ap_antennas: int = 4,
        optimizer: Optional[Optimizer] = None,
        grid_spacing_m: float = 1.0,
        telemetry: Optional[Telemetry] = None,
        fault_injector=None,
        channel_workers: int = 0,
        solve_budget=None,
        device_prefix: str = "",
        boot: bool = True,
    ) -> "SurfOS":
        """Stand up a system on a registered scene (or a ``Scene``).

        The scene supplies the environment, AP mount, surface sites,
        and observation room; this builds the hardware on top of them.
        ``device_prefix`` prefixes every device id (fleet shards pass
        ``"{shard_id}-"``), and ``boot=False`` leaves the system
        un-booted for callers that register extra hardware first.
        """
        from ..geometry.scenes import Scene, build_scene
        from ..surfaces.catalog import GENERIC_PROGRAMMABLE_28

        if not isinstance(scene, Scene):
            scene = build_scene(scene)
        system = cls(
            scene.env,
            frequency_hz=frequency_hz,
            optimizer=optimizer,
            grid_spacing_m=grid_spacing_m,
            telemetry=telemetry,
            fault_injector=fault_injector,
            channel_workers=channel_workers,
            solve_budget=solve_budget,
        )
        system.scene = scene
        system.add_access_point(
            AccessPoint(
                f"{device_prefix}ap",
                np.asarray(scene.ap_position, dtype=float),
                ap_antennas,
                frequency_hz,
                boresight=scene.ap_boresight,
            )
        )
        for site in scene.panel_sites:
            system.add_surface(
                SurfacePanel(
                    f"{device_prefix}{site.panel_id}",
                    GENERIC_PROGRAMMABLE_28,
                    panel_size,
                    panel_size,
                    np.asarray(site.center, dtype=float),
                    np.asarray(site.normal, dtype=float),
                )
            )
        if boot:
            system.boot(observe_room=scene.observe_room)
        return system

    # ------------------------------------------------------------------
    # hardware registration (pre-boot or live)
    # ------------------------------------------------------------------

    def add_surface(self, panel: SurfacePanel):
        """Register a surface panel; returns its driver."""
        return self.hardware.register_surface(panel)

    def add_access_point(self, ap: AccessPoint) -> AccessPoint:
        """Register an access point."""
        return self.hardware.register_access_point(ap)

    def add_client(self, client: ClientDevice) -> ClientDevice:
        """Register a client device."""
        return self.hardware.register_client(client)

    def add_sensor(self, sensor: Sensor) -> Sensor:
        """Register an external sensor."""
        return self.hardware.register_sensor(sensor)

    # ------------------------------------------------------------------

    def boot(self, observe_room: Optional[str] = None) -> "SurfOS":
        """Instantiate the orchestrator, broker, translator, pipeline, daemon."""
        if self.orchestrator is not None:
            raise SurfOSError("SurfOS already booted")
        self.orchestrator = SurfaceOrchestrator(
            self.env,
            self.hardware,
            self.frequency_hz,
            optimizer=self._optimizer,
            grid_spacing_m=self._grid_spacing,
            telemetry=self.telemetry,
            channel_workers=self.channel_workers,
            solve_budget=self.solve_budget,
        )
        self.broker = ServiceBroker(self.orchestrator)
        self.translator = IntentTranslator(self.llm)
        # A zero window reoptimizes on the trigger's own tick.
        self.pipeline = RequestPipeline(
            self.broker,
            clock=SimClock(),
            config=PipelineConfig(coalesce_window_s=0.0),
        )
        self.daemon = SurfOSDaemon(
            self.orchestrator,
            self.pipeline,
            self.dynamics,
            observe_room=observe_room,
        )
        return self

    def attach_pipeline(self, config=None):
        """Replace the daemon's request pipeline with a configured one.

        The pipeline :meth:`boot` built is closed (its evaluator
        unbound and released) and a new
        :class:`~repro.pipeline.RequestPipeline` is built over the
        broker on the same clock, shared with the daemon so environment
        triggers (motion, degradation) coalesce with admission
        triggers.  Pass a :class:`~repro.pipeline.PipelineConfig` to
        tune queue capacity, batch size and the coalescing window.
        Returns the new pipeline.
        """
        self._require_boot()
        self.pipeline.close()
        self.pipeline = RequestPipeline(
            self.broker, clock=self.daemon.clock, config=config
        )
        self.daemon.pipeline = self.pipeline
        return self.pipeline

    def _require_boot(self) -> None:
        if self.orchestrator is None:
            raise SurfOSError("call boot() before using services")

    # ------------------------------------------------------------------
    # user space conveniences
    # ------------------------------------------------------------------

    def handle_user_demand(self, text: str) -> List[object]:
        """Natural language → service tasks (the Fig. 6 path)."""
        self._require_boot()
        calls = self.translator.translate(text)
        return dispatch_calls(calls, self.orchestrator)

    def translate_only(self, text: str) -> List[ServiceCall]:
        """Natural language → validated calls, without executing them."""
        self._require_boot()
        return self.translator.translate(text)

    def serve_application(self, app_name: str, client_id: str, room_id: str, **kw):
        """Register an application demand through the broker."""
        self._require_boot()
        return self.broker.register_profile(app_name, client_id, room_id, **kw)

    def reoptimize(self, **kwargs):
        """Re-run the joint optimization for every active task."""
        self._require_boot()
        return self.orchestrator.reoptimize(**kwargs)

    def summary(self) -> str:
        """One-line system state."""
        booted = "booted" if self.orchestrator is not None else "not booted"
        return f"SurfOS({self.env.name!r}, {booted}, {self.hardware.summary()})"
