"""The seeded fault injector: turns fault specs into hardware state.

One :class:`FaultInjector` is attached to the hardware manager
(:meth:`~repro.hwmgr.manager.HardwareManager.attach_faults`) and ticked
from the runtime clock.  It owns three kinds of state:

* **Element impairment** — dead/stuck element masks and cumulative
  phase-drift offsets per surface, applied to the panels' live
  configurations through :meth:`corrupt`.
* **Control-link behavior** — per-attempt drop/timeout/lag decisions
  consumed by the manager's retry loop (:meth:`link_attempt`).
* **An activation schedule** — time-driven specs that arm when the
  simulated clock passes ``at_time`` (:meth:`advance`).

Determinism is load-bearing: every random draw comes from a per-surface,
per-channel stream derived from ``(seed, crc32(surface_id), channel)``,
so two runs with the same seed and the same call sequence produce
bit-identical failures, retry schedules, and recovery behavior.  With
no injector attached the rest of the stack takes no fault code path at
all.
"""

from __future__ import annotations

import math
import zlib
from typing import Dict, List, Mapping, Optional, Set, Tuple

import numpy as np

from ..core.configuration import SurfaceConfiguration
from ..core.errors import HardwareTimeoutError, TransientHardwareError
from ..surfaces.panel import SurfacePanel
from ..telemetry import Telemetry
from .models import (
    ControlLinkFault,
    ElementFailure,
    FaultSpec,
    InjectedFault,
    PanelDeath,
    PhaseDrift,
)

# RNG sub-stream ids, one per decision channel.
_CH_ELEMENTS = 0
_CH_DRIFT = 1
_CH_LINK = 2


class FaultInjector:
    """Deterministic, time-driven fault injection for one deployment.

    Args:
        seed: root seed for every per-surface random stream.
        telemetry: where ``faults.injected`` accounting goes; the
            hardware manager rebinds this to its own instance on
            attach.
    """

    def __init__(self, seed: int = 0, telemetry: Optional[Telemetry] = None):
        self.seed = int(seed)
        self.telemetry = telemetry or Telemetry(enabled=False)
        self._pending: List[FaultSpec] = []
        self._dead: Set[str] = set()
        self._dead_elements: Dict[str, np.ndarray] = {}
        self._stuck: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        self._drift_specs: Dict[str, PhaseDrift] = {}
        self._drift: Dict[str, np.ndarray] = {}
        self._links: Dict[str, ControlLinkFault] = {}
        self._streams: Dict[Tuple[str, int], np.random.Generator] = {}
        self._now = 0.0
        self._history: List[InjectedFault] = []

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def schedule(self, spec: FaultSpec) -> FaultSpec:
        """Arm a fault spec; it activates when the clock passes its time."""
        self._pending.append(spec)
        self._pending.sort(key=lambda s: s.at_time)
        return spec

    def kill_panel(self, surface_id: str, at_time: float = 0.0) -> FaultSpec:
        """Schedule a whole-panel death."""
        return self.schedule(PanelDeath(surface_id, at_time))

    def lossy_link(
        self,
        surface_id: str,
        drop_probability: float = 0.2,
        timeout_probability: float = 0.0,
        extra_delay_s: float = 0.0,
        timeout_s: float = 0.1,
        at_time: float = 0.0,
        until: float = math.inf,
    ) -> FaultSpec:
        """Schedule a lossy/laggy control link."""
        return self.schedule(
            ControlLinkFault(
                surface_id,
                at_time,
                drop_probability=drop_probability,
                timeout_probability=timeout_probability,
                extra_delay_s=extra_delay_s,
                timeout_s=timeout_s,
                until=until,
            )
        )

    # ------------------------------------------------------------------
    # deterministic randomness
    # ------------------------------------------------------------------

    def _stream(self, surface_id: str, channel: int) -> np.random.Generator:
        key = (surface_id, channel)
        rng = self._streams.get(key)
        if rng is None:
            token = zlib.crc32(surface_id.encode("utf-8"))
            rng = np.random.default_rng([self.seed, token, channel])
            self._streams[key] = rng
        return rng

    # ------------------------------------------------------------------
    # clock tick
    # ------------------------------------------------------------------

    def advance(
        self, now: float, panels: Mapping[str, SurfacePanel]
    ) -> List[InjectedFault]:
        """Activate due faults and accumulate drift up to ``now``.

        ``panels`` supplies lattice shapes (for element masks) and the
        live phases stuck elements freeze at.  Returns the faults that
        activated during this tick; drift accumulation alone reports
        nothing.
        """
        activated: List[InjectedFault] = []
        still_pending: List[FaultSpec] = []
        for spec in self._pending:
            if spec.at_time > now:
                still_pending.append(spec)
                continue
            event = self._activate(spec, panels)
            if event is not None:
                activated.append(event)
        self._pending = still_pending

        for sid, spec in self._drift_specs.items():
            dt = now - max(self._now, spec.at_time)
            if dt <= 0.0 or sid not in self._drift:
                continue
            rng = self._stream(sid, _CH_DRIFT)
            self._drift[sid] += rng.normal(
                0.0,
                spec.sigma_rad_per_sqrt_s * math.sqrt(dt),
                size=self._drift[sid].shape,
            )

        self._now = max(self._now, now)
        if activated:
            self.telemetry.counter("faults.injected", len(activated))
            for event in activated:
                self.telemetry.event(
                    "fault.injected",
                    kind=event.kind,
                    surface=event.surface_id,
                    detail=event.detail,
                )
        self._history.extend(activated)
        return activated

    def _activate(
        self, spec: FaultSpec, panels: Mapping[str, SurfacePanel]
    ) -> Optional[InjectedFault]:
        sid = spec.surface_id
        if isinstance(spec, PanelDeath):
            self._dead.add(sid)
            return InjectedFault(spec.kind, sid, spec.at_time, "all elements dark")
        if isinstance(spec, ControlLinkFault):
            self._links[sid] = spec
            return InjectedFault(
                spec.kind,
                sid,
                spec.at_time,
                f"drop={spec.drop_probability:g} "
                f"timeout={spec.timeout_probability:g}",
            )
        panel = panels.get(sid)
        if panel is None:
            # Unknown surface: drop the spec silently (the deployment
            # may legitimately not include it).
            return None
        if isinstance(spec, ElementFailure):
            n = panel.num_elements
            count = max(1, int(round(spec.fraction * n)))
            rng = self._stream(sid, _CH_ELEMENTS)
            indices = rng.choice(n, size=min(count, n), replace=False)
            mask = np.zeros(n, dtype=bool)
            mask[indices] = True
            if spec.mode == "dead":
                merged = self._dead_elements.get(sid)
                self._dead_elements[sid] = (
                    mask if merged is None else (merged | mask)
                )
            else:
                frozen = panel.configuration.flat_phases()[mask].copy()
                self._stuck[sid] = (mask, frozen)
            return InjectedFault(
                spec.kind,
                sid,
                spec.at_time,
                f"{int(mask.sum())}/{n} elements {spec.mode}",
            )
        if isinstance(spec, PhaseDrift):
            self._drift_specs[sid] = spec
            self._drift.setdefault(
                sid, np.zeros(panel.num_elements, dtype=float)
            )
            return InjectedFault(
                spec.kind,
                sid,
                spec.at_time,
                f"sigma={spec.sigma_rad_per_sqrt_s:g} rad/sqrt(s)",
            )
        raise TypeError(f"unknown fault spec {type(spec).__name__}")

    # ------------------------------------------------------------------
    # control-link behavior (consumed by the manager's retry loop)
    # ------------------------------------------------------------------

    def link_attempt(self, surface_id: str, now: float) -> float:
        """Decide one control-plane attempt's fate.

        Returns the extra link latency on success; raises
        :class:`TransientHardwareError` on a drop or
        :class:`HardwareTimeoutError` (carrying ``timeout_s``) on a
        timeout.
        """
        spec = self._links.get(surface_id)
        if spec is None or now < spec.at_time or now >= spec.until:
            return 0.0
        u = float(self._stream(surface_id, _CH_LINK).random())
        if u < spec.drop_probability:
            raise TransientHardwareError(
                f"{surface_id}: control link dropped the write"
            )
        if u < spec.drop_probability + spec.timeout_probability:
            exc = HardwareTimeoutError(
                f"{surface_id}: control link timed out after "
                f"{spec.timeout_s:g}s"
            )
            exc.timeout_s = spec.timeout_s
            raise exc
        return spec.extra_delay_s

    # ------------------------------------------------------------------
    # data-plane corruption
    # ------------------------------------------------------------------

    def impaired_surfaces(self) -> List[str]:
        """Surfaces whose element-level state is currently impaired."""
        impaired = (
            self._dead
            | set(self._dead_elements)
            | set(self._stuck)
            | set(self._drift)
        )
        return sorted(impaired)

    def corrupt(
        self, surface_id: str, config: SurfaceConfiguration
    ) -> SurfaceConfiguration:
        """Apply the surface's current impairments to a configuration.

        Idempotent with respect to the *intended* configuration: always
        corrupt the clean intent, never an already-corrupted output
        (drift would double-apply).
        """
        phases = config.phases.copy()
        amplitudes = config.amplitudes.copy()
        flat_phases = phases.reshape(-1)
        flat_amplitudes = amplitudes.reshape(-1)
        if surface_id in self._dead:
            flat_amplitudes[:] = 0.0
        else:
            dead = self._dead_elements.get(surface_id)
            if dead is not None:
                flat_amplitudes[dead] = 0.0
            stuck = self._stuck.get(surface_id)
            if stuck is not None:
                mask, frozen = stuck
                flat_phases[mask] = frozen
            drift = self._drift.get(surface_id)
            if drift is not None:
                flat_phases += drift
        return SurfaceConfiguration(
            phases=phases,
            amplitudes=amplitudes,
            name=f"{config.name}+faults" if config.name else "faulted",
            frequency_hz=config.frequency_hz,
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def history(self) -> List[InjectedFault]:
        """Every fault activated so far, in activation order."""
        return list(self._history)

    def pending_count(self) -> int:
        """Scheduled faults not yet activated."""
        return len(self._pending)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultInjector(seed={self.seed}, {len(self._pending)} pending, "
            f"{len(self._history)} activated, {len(self._dead)} dead panels)"
        )
