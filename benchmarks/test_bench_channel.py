"""Perf bench — incremental leg-level channel cache vs monolithic builds.

Times four variants of ``ChannelSimulator.build()`` on the reference
apartment scene: a cold build (empty caches), a warm incremental
rebuild after a client move (AP→surface and surface→surface legs served
from the leg cache), a new task on a warm point set (the cached point
set plus one new receive point: only that point's rows are traced),
and the old monolithic path (``leg_cache_size=0``, every leg re-traced
on any change).  Each warm repetition uses a distinct point set so the
exact-match model cache never short-circuits the build.  Results land
in ``BENCH_channel.json`` at the repo root.

A fifth arm times one direct trace (``node_to_points`` with wall
reflections, every panel an obstacle) at 2 receive points and at the
full grid, and asserts each point traced alone equals its row of the
full-grid trace bit for bit.

A ``leg_pool`` arm builds each multi-panel scene's observation grid
cold (``SurfOS.from_scene``, every panel it places) at 0 and 2 channel
workers, alternating the two, and records the median and interquartile
range of the build times.  It runs in a child process with every BLAS
pool pinned to one thread, asserts the models are bit-identical across
worker counts, and gates no timing: it is the evidence for keeping or
deleting ``ChannelSimulator(parallel_workers=)``.

Other timings use best-of-N (minimum): on a small shared host, mean
timings are far too noisy to compare against.

Set ``PERF_BENCH_SMALL=1`` for the CI smoke variant (coarser grid,
fewer repetitions).  The >=2x incremental-rebuild floor stays asserted
even in the smoke variant: the cached legs dominate the build at any
scene size, so the gate is robust.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from _meta import bench_meta
from conftest import run_once
from repro import SurfOS
from repro.analysis.tables import render_table
from repro.channel import ChannelSimulator, ula_node
from repro.channel.links import node_to_points
from repro.channel.tracer import PanelObstacle
from repro.core.units import ghz
from repro.geometry import apartment_sites, two_room_apartment
from repro.surfaces import (
    GENERIC_PASSIVE_28,
    GENERIC_PROGRAMMABLE_28,
    SurfacePanel,
)

FREQ = ghz(28)
SMALL = bool(os.environ.get("PERF_BENCH_SMALL"))
GRID_SPACING = 1.4 if SMALL else 1.0
COLD_REPS = 3 if SMALL else 6
WARM_REPS = 4 if SMALL else 10
DIRECT_REPS = 20 if SMALL else 60
LEG_POOL_REPS = 5 if SMALL else 9
LEG_POOL_SCENES = ("apartment", "office")
LEG_POOL_WORKERS = (0, 2)
#: Thread-count variables pinned to 1 in the leg_pool child process
#: (they only take effect before NumPy is imported).
BLAS_THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

ROOT = Path(__file__).resolve().parents[1]
OUTPUT = ROOT / "BENCH_channel.json"


def make_scene():
    env = two_room_apartment()
    sites = apartment_sites()
    ap = ula_node(
        "ap", sites.ap_position, 4, FREQ, axis=(0, 0, 1), boresight=(1, 0.3, 0)
    )
    panels = [
        SurfacePanel(
            "s1",
            GENERIC_PROGRAMMABLE_28,
            16,
            16,
            sites.single_surface_center,
            sites.single_surface_normal,
        ),
        SurfacePanel(
            "passive",
            GENERIC_PASSIVE_28,
            12,
            12,
            sites.passive_center,
            sites.passive_normal,
        ),
        SurfacePanel(
            "prog",
            GENERIC_PROGRAMMABLE_28,
            8,
            8,
            sites.programmable_center,
            sites.programmable_normal,
        ),
    ]
    points = env.room("bedroom").grid(GRID_SPACING)
    return env, ap, panels, points


def jittered(points, reps):
    """Distinct client-move point sets — one per repetition.

    Each set misses the exact-match model cache but leaves every
    AP→surface and surface→surface leg untouched.
    """
    rng = np.random.default_rng(11)
    return [
        points + rng.uniform(-0.2, 0.2, size=(1, 3)) * np.array([1, 1, 0])
        for _ in range(reps)
    ]


def best_of(fn, reps):
    """Minimum wall time over ``reps`` runs (noise-robust on shared CPUs)."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_cold():
    """From-scratch build on a fresh simulator each repetition."""
    env, ap, panels, points = make_scene()

    def once():
        ChannelSimulator(env, FREQ).build(ap, points, panels)

    return best_of(once, COLD_REPS)


def bench_warm_incremental():
    """Client-move rebuilds served through the leg cache."""
    env, ap, panels, points = make_scene()
    sim = ChannelSimulator(env, FREQ)
    model = sim.build(ap, points, panels)
    moves = jittered(points, WARM_REPS)
    retraced_before = sim.leg_cache_stats[1]
    best = float("inf")
    for moved in moves:
        t0 = time.perf_counter()
        sim.build(ap, moved, panels)
        best = min(best, time.perf_counter() - t0)
    legs_retraced = (sim.leg_cache_stats[1] - retraced_before) // WARM_REPS
    return best, legs_retraced, model.num_legs


def bench_new_point():
    """A new task on a warm point set: one extra receive point per build.

    Returns the best time, the legs and point rows traced per build,
    and the worst max-abs difference against a monolithic build.
    """
    env, ap, panels, points = make_scene()
    sim = ChannelSimulator(env, FREQ)
    sim.build(ap, points, panels)
    rng = np.random.default_rng(5)
    room = env.room("bedroom")
    tel = sim.telemetry
    best = float("inf")
    legs, rows, worst = set(), set(), 0.0
    for _ in range(WARM_REPS):
        extra = np.array(
            [[rng.uniform(room.x_min, room.x_max), rng.uniform(room.y_min, room.y_max), 1.0]]
        )
        grown = np.concatenate([points, extra])
        legs_before = sim.leg_cache_stats[1]
        rows_before = tel.get_counter("channel.rows_traced")
        t0 = time.perf_counter()
        model = sim.build(ap, grown, panels)
        best = min(best, time.perf_counter() - t0)
        legs.add(sim.leg_cache_stats[1] - legs_before)
        rows.add(tel.get_counter("channel.rows_traced") - rows_before)
        golden = ChannelSimulator(env, FREQ, leg_cache_size=0).build(
            ap, grown, panels
        )
        worst = max(worst, model_max_diff(model, golden))
    assert len(legs) == 1 and len(rows) == 1, (legs, rows)
    return best, legs.pop(), rows.pop(), worst


def bench_monolithic():
    """The same client-move rebuilds with the leg cache disabled."""
    env, ap, panels, points = make_scene()
    sim = ChannelSimulator(env, FREQ, leg_cache_size=0)
    sim.build(ap, points, panels)
    best = float("inf")
    for moved in jittered(points, WARM_REPS):
        t0 = time.perf_counter()
        sim.build(ap, moved, panels)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_direct_trace():
    """One direct trace at 2 points and at the full grid (best-of-N).

    Every point traced alone must equal its row of the full-grid trace
    exactly: the leg cache stacks rows traced in different calls.
    """
    env, ap, panels, points = make_scene()
    obstacles = [PanelObstacle(p) for p in panels]

    def trace(pts):
        return node_to_points(env, ap, pts, FREQ, obstacles)

    full = trace(points)
    for k in range(points.shape[0]):
        assert np.array_equal(trace(points[k : k + 1]), full[k : k + 1]), k
    two_s = best_of(lambda: trace(points[:2]), DIRECT_REPS)
    grid_s = best_of(lambda: trace(points), DIRECT_REPS)
    return two_s, grid_s


def bench_leg_pool():
    """Cold observation-grid builds at each channel worker count.

    One booted system per worker count; every repetition empties the
    simulator's caches and rebuilds the daemon's observation grid with
    every panel, alternating worker counts so drift hits both alike.
    """
    rows = []
    for name in LEG_POOL_SCENES:
        systems = {
            w: SurfOS.from_scene(name, channel_workers=w)
            for w in LEG_POOL_WORKERS
        }
        times = {w: [] for w in LEG_POOL_WORKERS}
        models = {}
        for _ in range(LEG_POOL_REPS):
            for w, system in systems.items():
                orch = system.orchestrator
                points = orch._room_points(system.scene.observe_room)
                panels = orch.hardware.panels()
                orch.simulator.invalidate()
                t0 = time.perf_counter()
                models[w] = orch.simulator.build(orch.ap.node(), points, panels)
                times[w].append(time.perf_counter() - t0)
        serial = models[LEG_POOL_WORKERS[0]]
        for w in LEG_POOL_WORKERS:
            q1, median, q3 = np.percentile(times[w], [25, 50, 75])
            rows.append(
                {
                    "scene": name,
                    "channel_workers": w,
                    "panels": len(panels),
                    "points": int(points.shape[0]),
                    "reps": LEG_POOL_REPS,
                    "median_ms": float(median) * 1e3,
                    "iqr_ms": float(q3 - q1) * 1e3,
                    "bit_identical": model_max_diff(models[w], serial) == 0.0,
                }
            )
    return rows


def measure_leg_pool():
    """:func:`bench_leg_pool` in a child process with BLAS on one thread."""
    env = dict(os.environ, **{name: "1" for name in BLAS_THREAD_ENV})
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))
    )
    child = subprocess.run(
        [sys.executable, __file__, "--leg-pool"],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    )
    return json.loads(child.stdout)


def model_max_diff(a, b):
    """Max abs difference across every leg tensor of two models."""
    diffs = [float(np.abs(a.direct - b.direct).max())]
    for sid in a.ap_to_surface:
        diffs.append(
            float(np.abs(a.ap_to_surface[sid] - b.ap_to_surface[sid]).max())
        )
        diffs.append(
            float(
                np.abs(a.surface_to_points[sid] - b.surface_to_points[sid]).max()
            )
        )
    for key in a.surface_to_surface:
        diffs.append(
            float(
                np.abs(a.surface_to_surface[key] - b.surface_to_surface[key]).max()
            )
        )
    return max(diffs)


def check_equivalence():
    """Incremental rebuild must match a from-scratch monolithic build."""
    env, ap, panels, points = make_scene()
    sim = ChannelSimulator(env, FREQ)
    sim.build(ap, points, panels)
    moved = points + np.array([0.17, 0.11, 0.0])
    incremental = sim.build(ap, moved, panels)
    golden = ChannelSimulator(env, FREQ, leg_cache_size=0).build(
        ap, moved, panels
    )
    return model_max_diff(incremental, golden)


def run_channel_suite():
    max_abs_diff = check_equivalence()
    cold_s = bench_cold()
    warm_s, legs_retraced, total_legs = bench_warm_incremental()
    new_s, new_legs, new_rows, new_diff = bench_new_point()
    mono_s = bench_monolithic()
    direct_two_s, direct_grid_s = bench_direct_trace()
    leg_pool = measure_leg_pool()
    _, _, _, points = make_scene()
    return {
        "small_scene": SMALL,
        "num_points": int(points.shape[0]),
        "num_panels": 3,
        "total_legs": int(total_legs),
        "legs_retraced_warm": int(legs_retraced),
        "cold_ms": cold_s * 1e3,
        "warm_incremental_ms": warm_s * 1e3,
        "new_point_ms": new_s * 1e3,
        "legs_retraced_new_point": int(new_legs),
        "rows_traced_new_point": int(new_rows),
        "monolithic_rebuild_ms": mono_s * 1e3,
        "direct_trace_2pt_ms": direct_two_s * 1e3,
        "direct_trace_grid_ms": direct_grid_s * 1e3,
        "speedup_warm_vs_cold": cold_s / warm_s,
        "speedup_warm_vs_monolithic": mono_s / warm_s,
        "speedup_new_point_vs_monolithic": mono_s / new_s,
        "max_abs_diff_vs_monolithic": max(max_abs_diff, new_diff),
        "leg_pool": leg_pool,
    }


def test_bench_channel(benchmark):
    results = run_once(benchmark, run_channel_suite)
    results["meta"] = bench_meta()
    OUTPUT.write_text(json.dumps(results, indent=2) + "\n")
    print()
    print(
        render_table(
            ("path", "rebuild ms", "legs traced", "speedup"),
            [
                (
                    f"cold build ({results['num_points']} pts, "
                    f"{results['num_panels']} panels)",
                    f"{results['cold_ms']:.2f}",
                    str(results["total_legs"]),
                    "1.00x",
                ),
                (
                    "monolithic rebuild (leg cache off)",
                    f"{results['monolithic_rebuild_ms']:.2f}",
                    str(results["total_legs"]),
                    f"{results['cold_ms'] / results['monolithic_rebuild_ms']:.2f}x",
                ),
                (
                    "incremental rebuild (client move)",
                    f"{results['warm_incremental_ms']:.2f}",
                    str(results["legs_retraced_warm"]),
                    f"{results['speedup_warm_vs_cold']:.2f}x",
                ),
                (
                    "new task on a warm point set (+1 point)",
                    f"{results['new_point_ms']:.2f}",
                    str(results["legs_retraced_new_point"]),
                    f"{results['cold_ms'] / results['new_point_ms']:.2f}x",
                ),
                (
                    "direct trace (node_to_points, 2 pts)",
                    f"{results['direct_trace_2pt_ms']:.2f}",
                    "1",
                    "",
                ),
                (
                    f"direct trace (node_to_points, {results['num_points']} pts)",
                    f"{results['direct_trace_grid_ms']:.2f}",
                    "1",
                    "",
                ),
                *(
                    (
                        f"cold observe build, {row['scene']} ({row['points']} "
                        f"pts, {row['panels']} panels), "
                        f"{row['channel_workers']} workers",
                        f"{row['median_ms']:.2f} (IQR {row['iqr_ms']:.2f})",
                        "",
                        "",
                    )
                    for row in results["leg_pool"]
                ),
            ],
            title="Channel: incremental leg cache vs monolithic rebuilds",
        )
    )
    print(f"results written to {OUTPUT}")
    assert results["max_abs_diff_vs_monolithic"] == 0.0
    assert results["legs_retraced_warm"] < results["total_legs"]
    # Row-granular legs: a new point on a warm set traces only its own
    # rows — one direct row and one surface→points row per panel.
    num_panels = results["num_panels"]
    assert results["rows_traced_new_point"] == 1 + num_panels
    assert results["legs_retraced_new_point"] == 1 + num_panels
    # The incremental-rebuild contract: a client move must cost far
    # less than re-tracing the scene.  >=2x is the CI gate; the full
    # scene typically lands much higher (recorded in the JSON).
    assert results["speedup_warm_vs_cold"] >= 2.0
    assert results["speedup_warm_vs_monolithic"] >= 2.0
    # The leg pool is measured, not gated: it must only never change a
    # bit of the model.
    assert all(row["bit_identical"] for row in results["leg_pool"])


if __name__ == "__main__":
    if sys.argv[1:] == ["--leg-pool"]:
        print(json.dumps(bench_leg_pool()))
