"""Degraded-mode recovery: two of five panels die mid-run.

The robustness scenario behind the fault-injection subsystem: the
apartment's bedroom is covered by *five* programmable panels sharing a
coverage task.  At ``FAULT_TIME_S`` a seeded
:class:`~repro.faults.FaultInjector` kills two of them (power loss /
bricked controllers).  The SurfOS daemon sees the degradation as a
:class:`~repro.runtime.SurfaceDegraded` event and re-optimizes the
three survivors around the dead sheets — which stay in the channel
model (they are still mounted) but scatter nothing.

Expected shape: coverage drops when the panels die, then recovers to
within :data:`RECOVERY_BOUND_DB` of the pre-fault median SNR, with zero
unhandled exceptions along the way.  The whole run is deterministic per
seed: ``repro.cli determinism faults`` runs it twice and diffs the
sim-only telemetry exports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.tables import render_table
from ..core.kernel import SurfOS
from ..faults import FaultInjector
from ..geometry.floorplans import apartment_sites, two_room_apartment
from ..hwmgr.devices import AccessPoint
from ..orchestrator.optimizers import Adam, Optimizer
from ..surfaces.catalog import GENERIC_PROGRAMMABLE_28
from ..surfaces.panel import SurfacePanel
from .result import ExperimentResultBase
from .scenario import CARRIER_HZ

#: Panels in the bedroom array.
PANEL_COUNT = 5

#: Elements per panel side (small keeps the scenario CI-fast).
PANEL_SIZE = 10

#: Simulated time the two panels die (seconds).
FAULT_TIME_S = 1.0

#: Which panels die mid-run.
DEFAULT_KILL: Tuple[str, ...] = ("rs-2", "rs-4")

#: The stated recovery bound: after re-optimizing around the dead
#: panels, the bedroom's median SNR must sit within this many dB of its
#: pre-fault value.  Losing 2/5 of the aperture caps coherent gain at
#: 20·log10(3/5) ≈ −4.4 dB in the fully-coherent limit; re-optimizing
#: the three survivors keeps the *median* loss inside 4 dB.
RECOVERY_BOUND_DB = 4.0

#: Mounting sites: three panels on the bedroom's north wall, two on the
#: east wall, all facing into the room (the canonical programmable and
#: single-surface sites plus offsets along the same walls).
_NORTH_XS = (5.8, 6.6, 7.4)
_EAST_YS = (2.6, 1.4)


def panel_sites() -> List[Tuple[str, Tuple[float, float, float], Tuple[float, float, float]]]:
    """The five ``(panel_id, center, normal)`` mounting sites."""
    sites = []
    for i, x in enumerate(_NORTH_XS):
        sites.append(((f"rs-{i + 1}"), (x, 3.98, 1.8), (0.0, -1.0, 0.0)))
    for j, y in enumerate(_EAST_YS):
        sites.append(((f"rs-{len(_NORTH_XS) + j + 1}"), (8.48, y, 1.8), (-1.0, 0.0, 0.0)))
    return sites


@dataclass
class DegradationResult(ExperimentResultBase):
    """Outcome of one degraded-mode recovery run.

    Attributes:
        pre_fault_median_snr_db: bedroom median SNR before the fault.
        degraded_median_snr_db: median SNR right after the panels died,
            before the daemon's re-optimization went live.
        recovered_median_snr_db: median SNR after recovery.
        killed: ids of the panels that died.
        fault_time_s: simulated time the fault hit.
        reaction_latency_s: detection → configurations-live latency of
            the recovery reaction (simulated seconds).
        recovery_bound_db: the stated bound the recovery is judged by.
        reoptimize_failures: daemon re-optimizations that failed (must
            be zero — the degraded-mode guarantee).
        faults_injected: fault activations recorded by the injector.
        seed: the run's root seed.
    """

    pre_fault_median_snr_db: float
    degraded_median_snr_db: float
    recovered_median_snr_db: float
    killed: Tuple[str, ...]
    fault_time_s: float
    reaction_latency_s: float
    recovery_bound_db: float
    reoptimize_failures: int
    faults_injected: int
    seed: int

    @property
    def recovery_gap_db(self) -> float:
        """How far below the pre-fault median the recovered median sits."""
        return self.pre_fault_median_snr_db - self.recovered_median_snr_db

    @property
    def recovered_within_bound(self) -> bool:
        """Whether recovery met the stated bound."""
        return self.recovery_gap_db <= self.recovery_bound_db

    def summary(self) -> Dict[str, object]:
        """Flat form for JSON artifacts and the CI gate."""
        return {
            "seed": self.seed,
            "killed": list(self.killed),
            "fault_time_s": round(self.fault_time_s, 6),
            "pre_fault_median_snr_db": round(
                self.pre_fault_median_snr_db, 4
            ),
            "degraded_median_snr_db": round(self.degraded_median_snr_db, 4),
            "recovered_median_snr_db": round(
                self.recovered_median_snr_db, 4
            ),
            "recovery_gap_db": round(self.recovery_gap_db, 4),
            "recovery_bound_db": self.recovery_bound_db,
            "reaction_latency_s": round(self.reaction_latency_s, 6),
            "reoptimize_failures": self.reoptimize_failures,
            "faults_injected": self.faults_injected,
            "recovered_within_bound": self.recovered_within_bound,
        }

    def gate_failures(self) -> List[str]:
        """Recovery must land within bound with zero failed solves."""
        failures = []
        if not self.recovered_within_bound:
            failures.append(
                f"recovery gap {self.recovery_gap_db:.1f} dB exceeds "
                f"bound {self.recovery_bound_db:.1f} dB"
            )
        if self.reoptimize_failures:
            failures.append(
                f"{self.reoptimize_failures} reoptimize failures during "
                f"recovery (degraded-mode guarantee requires zero)"
            )
        return failures

    def render(self) -> str:
        """Human-readable run summary."""
        rows = [
            ("pre-fault", f"{self.pre_fault_median_snr_db:.1f}", "5/5 panels"),
            (
                "degraded",
                f"{self.degraded_median_snr_db:.1f}",
                f"{', '.join(self.killed)} dead",
            ),
            (
                "recovered",
                f"{self.recovered_median_snr_db:.1f}",
                f"gap {self.recovery_gap_db:.1f} dB "
                f"(bound {self.recovery_bound_db:.1f})",
            ),
        ]
        table = render_table(
            ("phase", "median SNR (dB)", "notes"),
            rows,
            title=(
                f"Degraded-mode recovery: {len(self.killed)}/{PANEL_COUNT} "
                f"panels die at t={self.fault_time_s:g}s (seed {self.seed})"
            ),
        )
        verdict = "within bound" if self.recovered_within_bound else "OUT OF BOUND"
        return (
            f"{table}\n"
            f"reaction latency: {self.reaction_latency_s:.3f} s (simulated); "
            f"faults injected: {self.faults_injected}; "
            f"reoptimize failures: {self.reoptimize_failures}; "
            f"recovery {verdict}"
        )


def build_system(
    seed: int = 0,
    panel_size: int = PANEL_SIZE,
    optimizer: Optional[Optimizer] = None,
) -> SurfOS:
    """The five-panel apartment deployment with a fault injector attached."""
    env = two_room_apartment()
    sites = apartment_sites()
    system = SurfOS(
        env,
        frequency_hz=CARRIER_HZ,
        optimizer=optimizer or Adam(max_iterations=60),
        grid_spacing_m=1.0,
        fault_injector=FaultInjector(seed=seed),
    )
    system.add_access_point(
        AccessPoint(
            "ap", sites.ap_position, 4, CARRIER_HZ, boresight=(1.0, 0.3, 0.0)
        )
    )
    for panel_id, center, normal in panel_sites():
        system.add_surface(
            SurfacePanel(
                panel_id,
                GENERIC_PROGRAMMABLE_28,
                panel_size,
                panel_size,
                np.array(center),
                np.array(normal),
            )
        )
    return system.boot(observe_room="bedroom")


def run(
    seed: int = 0,
    fault_time_s: float = FAULT_TIME_S,
    kill: Sequence[str] = DEFAULT_KILL,
    panel_size: int = PANEL_SIZE,
    steps: int = 6,
    dt: float = 0.5,
    recovery_bound_db: float = RECOVERY_BOUND_DB,
    optimizer: Optional[Optimizer] = None,
    system: Optional[SurfOS] = None,
    jsonl: Optional[str] = None,
) -> DegradationResult:
    """Kill ``kill`` mid-run and measure the daemon's recovery (sim-only log to ``jsonl``)."""
    system = system or build_system(
        seed=seed, panel_size=panel_size, optimizer=optimizer
    )
    injector = system.hardware.faults
    for panel_id in kill:
        injector.kill_panel(panel_id, at_time=fault_time_s)

    system.orchestrator.optimize_coverage("bedroom")
    system.reoptimize()
    pre_fault = float(np.median(system.daemon.observe()))

    degraded = pre_fault
    recovered = pre_fault
    reaction_latency_s = 0.0
    for _ in range(steps):
        record = system.daemon.step(dt=dt)
        if record is not None and record.trigger == "surface-degraded":
            degraded = record.median_snr_before_db
            recovered = record.median_snr_after_db
            reaction_latency_s = record.reaction_latency_s
    if system.daemon.clock.now <= fault_time_s:
        raise ValueError(
            f"run too short: {steps} steps of {dt}s never reached the "
            f"fault at t={fault_time_s}s"
        )
    if jsonl:
        system.telemetry.export_jsonl(jsonl, sim_only=True)

    return DegradationResult(
        pre_fault_median_snr_db=pre_fault,
        degraded_median_snr_db=degraded,
        recovered_median_snr_db=recovered,
        killed=tuple(kill),
        fault_time_s=fault_time_s,
        reaction_latency_s=reaction_latency_s,
        recovery_bound_db=recovery_bound_db,
        reoptimize_failures=system.daemon.reoptimize_failures,
        faults_injected=len(injector.history),
        seed=seed,
    )
