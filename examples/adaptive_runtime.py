"""Why an OS and not a library: runtime adaptation to a changing world.

The paper's §5 argument, executable: a person walks through the serving
beam; the SurfOS daemon detects the degradation through its channel
monitor and re-optimizes the surfaces, restoring coverage.  A
compile-time library would have kept serving the stale configuration.

Run with::

    python examples/adaptive_runtime.py
"""

import numpy as np

from repro import SurfOS, ghz
from repro.geometry import apartment_sites, two_room_apartment
from repro.hwmgr import AccessPoint, ClientDevice
from repro.mobility import WaypointWalker
from repro.orchestrator import Adam
from repro.runtime import Walker
from repro.surfaces import GENERIC_PROGRAMMABLE_28, SurfacePanel


def main() -> None:
    env = two_room_apartment()
    sites = apartment_sites()
    frequency = ghz(28)
    system = SurfOS(
        env,
        frequency_hz=frequency,
        optimizer=Adam(max_iterations=70),
        grid_spacing_m=0.9,
    )
    system.add_access_point(
        AccessPoint("ap", sites.ap_position, 4, frequency, boresight=(1, 0.3, 0))
    )
    system.add_surface(
        SurfacePanel(
            "wall-panel",
            GENERIC_PROGRAMMABLE_28,
            16,
            16,
            sites.single_surface_center,
            sites.single_surface_normal,
        )
    )
    system.add_client(ClientDevice("phone", (6.5, 1.5, 1.0)))
    system.boot(observe_room="bedroom")

    system.orchestrator.optimize_coverage("bedroom")
    system.reoptimize()
    baseline = np.median(system.daemon.observe())
    print(f"steady state: median bedroom SNR {baseline:.1f} dB")

    print("\na person starts pacing through the beam corridor …")
    system.dynamics.add_walker(
        Walker(
            "person",
            model=WaypointWalker([(5.6, 3.2), (8.0, 1.0)], speed_mps=1.5),
        )
    )

    for step in range(12):
        record = system.daemon.step(dt=0.5)
        snr = np.median(system.daemon.monitor.history[-1].snrs_db)
        line = f"t={system.daemon.clock.now:4.1f}s  median SNR {snr:5.1f} dB"
        if record is not None:
            line += (
                f"   ← daemon re-optimized (latency "
                f"{record.reaction_latency_s * 1e3:.2f} ms, "
                f"{record.median_snr_before_db:.1f} → "
                f"{record.median_snr_after_db:.1f} dB)"
            )
        print(line)

    # Every reaction also landed in the telemetry event log, alongside
    # the span timings for each reoptimize pass.
    anomalies = len(system.daemon.monitor.anomalies)
    reactions = system.telemetry.get_counter("daemon.reactions")
    print(
        f"\n{anomalies} degradations detected, {reactions} re-optimizations "
        "fired — the runtime kept the room served while the world moved."
    )
    print()
    print(system.telemetry.summary())


if __name__ == "__main__":
    main()
