"""Mobility bench — speculative leg prefetch off the reaction path.

Runs the mobility scenario (continuous endpoint motion, reaction every
step) three ways over the identical seeded motion:

* **prefetch-on** — each step the mobility models' ``peek(dt)``
  predictions are pre-traced into the channel leg LRU *before* the
  daemon cycle, so the reaction's channel build serves them as cache
  hits;
* **prefetch-off** — the same legs are traced inline, on the reaction
  path;
* **cold** — the leg cache is disabled outright (every build re-traces
  every leg).

Gates:

* prefetch changes nothing: the per-step median-SNR traces of all
  three runs are bit-identical (``max_abs_diff == 0.0``);
* every prefetched leg is consumed (hit rate 1.0 ≥ the 0.5 gate) —
  predictions are exact, endpoint motion never mutates the
  environment;
* prefetch-on median reaction wall latency is strictly below
  prefetch-off (and below cold) on trial medians.

Each arm also records ``median_step_wall_s``: the median wall time of
a reacting step with its prefetch included, the cost prefetch-on pays
that the reaction latency alone does not show.

A walker + churn variant is recorded as data (obstacle motion purges
some speculatively warmed legs, so its hit rate is the interesting
number), not latency-gated.  It runs :data:`CHURN_STEPS` steps in
every mode, long enough for its seeded schedule to admit and release
guests, and asserts that it did.  Results land in ``BENCH_mobility.json``
at the repo root.  Set ``PERF_BENCH_SMALL=1`` for the CI smoke
variant.
"""

import json
import os
import statistics
from pathlib import Path

import numpy as np
from _meta import bench_meta
from conftest import run_once

from repro.analysis.tables import render_table
from repro.experiments import mobility

SMALL = bool(os.environ.get("PERF_BENCH_SMALL"))
STEPS = 10 if SMALL else 20
TRIALS = 2 if SMALL else 3

#: Bench shape: pure endpoint mobility (no obstacle walkers), a finer
#: grid and larger panel so the speculatively warmed legs carry real
#: trace cost relative to the solve.
SCENE = "apartment"
CLIENTS = 2
PANEL_SIZE = 12
GRID_SPACING_M = 0.5
SOLVE_ITERATIONS = 12
SEED = 0

#: Churn-variant horizon (15 s at 0.25 s steps).  Its seeded schedule's
#: first guest arrives at 10.2 s; 60 steps see 3 arrivals and 3
#: departures.
CHURN_STEPS = 60

OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_mobility.json"


def _config(**kw) -> mobility.MobilityConfig:
    return mobility.MobilityConfig(
        scene=SCENE,
        seed=SEED,
        steps=STEPS,
        clients=CLIENTS,
        walkers=0,
        panel_size=PANEL_SIZE,
        grid_spacing_m=GRID_SPACING_M,
        solve_iterations=SOLVE_ITERATIONS,
        measure_wall=True,
        **kw,
    )


_MODES = {
    "prefetch_on": {},
    "prefetch_off": {"prefetch": False},
    "cold": {"prefetch": False, "leg_cache_size": 0},
}


def run_prefetch_comparison():
    """Interleaved trials of on/off/cold over the identical motion."""
    wall = {mode: [] for mode in _MODES}
    step_wall = {mode: [] for mode in _MODES}
    results = {}
    for _ in range(TRIALS):
        for mode, kw in _MODES.items():
            result = mobility.run(_config(**kw))
            assert result.gate_failures() == [], result.gate_failures()
            wall[mode].append(
                statistics.median(result.wall_reaction_s)
            )
            step_wall[mode].append(statistics.median(result.wall_step_s))
            results[mode] = result
    out = {}
    for mode, medians in wall.items():
        result = results[mode]
        out[mode] = {
            "median_reaction_wall_s": round(statistics.median(medians), 6),
            "median_step_wall_s": round(statistics.median(step_wall[mode]), 6),
            "reactions": result.reactions,
            "legs_prefetched": result.legs_prefetched,
            "prefetch_hits": result.prefetch_hits,
            "prefetch_wasted": result.prefetch_wasted,
            "prefetch_hit_rate": round(result.prefetch_hit_rate, 4),
            "legs_retraced": result.legs_retraced,
            "snr_digest": result.snr_digest,
        }
    on = results["prefetch_on"]
    for mode, result in results.items():
        diff = float(
            np.max(
                np.abs(
                    np.asarray(on.snr_trace) - np.asarray(result.snr_trace)
                )
            )
        )
        out[mode]["max_abs_diff_vs_on"] = diff
    return out


def run_churn_variant():
    """Obstacle walker + churn: realistic (partial) hit rate, as data."""
    result = mobility.run(
        mobility.MobilityConfig(
            scene=SCENE,
            seed=SEED,
            steps=CHURN_STEPS,
            clients=1,
            walkers=1,
            churn_rate_hz=0.4,
        )
    )
    assert result.gate_failures() == [], result.gate_failures()
    # Precondition: the variant measures churn only if guests came and went.
    assert result.churn_arrivals > 0, "churn variant admitted no guests"
    assert result.churn_departures > 0, "churn variant released no guests"
    return result.summary()


def test_bench_mobility_prefetch(benchmark):
    comparison = run_once(benchmark, run_prefetch_comparison)
    churn = run_churn_variant()

    print()
    rows = [
        (
            mode,
            f"{stats['median_reaction_wall_s'] * 1e3:.1f}",
            f"{stats['median_step_wall_s'] * 1e3:.1f}",
            f"{stats['prefetch_hit_rate']:.2f}",
            str(stats["legs_retraced"]),
            f"{stats['max_abs_diff_vs_on']:g}",
        )
        for mode, stats in comparison.items()
    ]
    print(
        render_table(
            ("mode", "reaction (ms)", "step (ms)", "hit rate", "retraced", "Δ vs on"),
            rows,
            title=(
                f"Mobility prefetch: {STEPS} steps, {CLIENTS} clients, "
                f"{PANEL_SIZE}x{PANEL_SIZE} panels"
            ),
        )
    )

    on = comparison["prefetch_on"]
    off = comparison["prefetch_off"]
    cold = comparison["cold"]
    # Bit-identity: prefetch only warms a cache, it never changes outputs.
    assert off["max_abs_diff_vs_on"] == 0.0
    assert cold["max_abs_diff_vs_on"] == 0.0
    assert off["snr_digest"] == on["snr_digest"] == cold["snr_digest"]
    # Predictions are exact and endpoints are not geometry, so every
    # speculative leg is consumed.
    assert on["prefetch_hit_rate"] >= 0.5
    # The point of speculation: trace cost leaves the reaction path.
    assert (
        on["median_reaction_wall_s"] < off["median_reaction_wall_s"]
    ), "prefetch-on must beat prefetch-off reaction latency"
    assert (
        on["median_reaction_wall_s"] < cold["median_reaction_wall_s"]
    ), "prefetch-on must beat the cold baseline"

    OUTPUT.write_text(
        json.dumps(
            {
                "meta": bench_meta(
                    small=SMALL,
                    steps=STEPS,
                    trials=TRIALS,
                    scene=SCENE,
                    clients=CLIENTS,
                    panel_size=PANEL_SIZE,
                    grid_spacing_m=GRID_SPACING_M,
                    solve_iterations=SOLVE_ITERATIONS,
                    churn_steps=CHURN_STEPS,
                ),
                "comparison": comparison,
                "churn_variant": churn,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"\nresults written to {OUTPUT}")
