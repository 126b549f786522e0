"""Solver bench — drift-aware adaptive budgets on the mobility workload.

Runs the mobility dwell workload (a single endpoint walking waypoint
legs with pauses at each waypoint, a reaction every step) two ways over
the identical seeded motion:

* **fixed** — every reaction pays the optimizer's full iteration
  budget, warm-started only from the live hardware configuration (the
  pre-adaptive control plane);
* **adaptive** — the solution store warm-starts each solve from last
  reaction's converged phases, a one-evaluation drift probe scales the
  iteration budget between floor and ceiling, and quiescent dwell
  reactions (the objective goes static while the endpoint pauses) drop
  to the floor budget.

The search is configured to *converge* inside the ceiling
(``search_scale``/``search_decay`` shrink the perturbation fast), so
the fixed baseline's tail iterations on quiescent reactions are
genuinely redundant — that redundancy is what the adaptive path
harvests.  Per-seed trajectories are deterministic, so the quality
ratio is exact and repeatable; only wall time carries machine noise,
which interleaved trials average out.

Gates:

* median reaction-solve wall time (the daemon's ``optimize_s``) speeds
  up by at least **1.5x** under adaptive budgets;
* quality parity: the mean linear observed-grid SNR over the run,
  averaged across the seed set, stays within **1%** of the
  fixed-budget baseline — the saved iterations were redundant;
* determinism: two adaptive runs produce the same SNR digest.

Results land in ``BENCH_solver.json`` at the repo root (override with
``PERF_BENCH_OUTPUT``).  Evaluation is serial: each 16-row
RandomSearch population runs as one chunk on the calling thread.
Set ``PERF_BENCH_SMALL=1`` for the CI smoke variant.
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
SEEDS = (0, 1) if SMALL else (0, 1, 2)
TRIALS = 1 if SMALL else 2

#: Bench shape: one endpoint walking the apartment client loop with
#: waypoint dwells — quiescent reactions where the objective is static.
#: The search converges well inside the 96-iteration ceiling, so the
#: fixed baseline's tail iterations are redundant on those reactions.
SCENE = "apartment"
CLIENTS = 1
WALKERS = 0
CLIENT_PAUSE_S = 1.5
PANEL_SIZE = 8
GRID_SPACING_M = 0.75
STEPS = 20
SOLVE_ITERATIONS = 96
SEARCH_SCALE = 0.5
SEARCH_DECAY = 0.7

SPEEDUP_GATE = 1.5
QUALITY_TOLERANCE = 0.01

OUTPUT = Path(
    os.environ.get("PERF_BENCH_OUTPUT")
    or Path(__file__).resolve().parents[1] / "BENCH_solver.json"
)


def _config(adaptive: bool, seed: int) -> mobility.MobilityConfig:
    return mobility.MobilityConfig(
        scene=SCENE,
        seed=seed,
        steps=STEPS,
        clients=CLIENTS,
        walkers=WALKERS,
        client_pause_s=CLIENT_PAUSE_S,
        panel_size=PANEL_SIZE,
        grid_spacing_m=GRID_SPACING_M,
        solve_iterations=SOLVE_ITERATIONS,
        search_scale=SEARCH_SCALE,
        search_decay=SEARCH_DECAY,
        adaptive_budget=adaptive,
        # Budget savings only: the early stop stays out of the bench
        # path so floored quiescent solves replay exact prefixes of the
        # fixed baseline's solves (tests pin the early stop separately).
        early_stop_eps=None,
        measure_wall=True,
    )


def _mean_linear_snr(result) -> float:
    return float(np.mean(10.0 ** (np.asarray(result.snr_trace) / 10.0)))


def run_solver_comparison():
    """Interleaved fixed/adaptive runs over an identical seed set."""
    wall = {"fixed": [], "adaptive": []}
    snr = {"fixed": [], "adaptive": []}
    last = {}
    for _ in range(TRIALS):
        for seed in SEEDS:
            for mode, adaptive in (("fixed", False), ("adaptive", True)):
                result = mobility.run(_config(adaptive, seed))
                assert result.gate_failures() == [], result.gate_failures()
                wall[mode].extend(result.wall_solve_s)
                snr[mode].append(_mean_linear_snr(result))
                last[mode] = result
    out = {}
    for mode, result in last.items():
        out[mode] = {
            "median_solve_wall_s": round(statistics.median(wall[mode]), 6),
            "reactions": result.reactions,
            "mean_linear_snr": round(
                float(np.mean(snr[mode][: len(SEEDS)])), 6
            ),
            "final_median_snr_db": round(result.median_snr_db, 4),
            "snr_digest": result.snr_digest,
            "solver_budgeted_iterations": result.solver_budgeted_iterations,
            "solver_used_iterations": result.solver_used_iterations,
            "solver_warm_hits": result.solver_warm_hits,
            "solver_early_stops": result.solver_early_stops,
        }
    out["seeds"] = list(SEEDS)
    out["speedup"] = round(
        out["fixed"]["median_solve_wall_s"]
        / out["adaptive"]["median_solve_wall_s"],
        3,
    )
    out["quality_ratio"] = round(
        out["adaptive"]["mean_linear_snr"] / out["fixed"]["mean_linear_snr"],
        6,
    )
    return out


def run_determinism_check():
    """Two adaptive runs must agree bit for bit on sim-visible output."""
    a = mobility.run(_config(adaptive=True, seed=SEEDS[0]))
    b = mobility.run(_config(adaptive=True, seed=SEEDS[0]))
    assert a.snr_digest == b.snr_digest, "adaptive run is nondeterministic"
    return a.snr_digest


def test_bench_solver_adaptive_budgets(benchmark):
    comparison = run_once(benchmark, run_solver_comparison)
    digest = run_determinism_check()

    print()
    rows = [
        (
            mode,
            f"{stats['median_solve_wall_s'] * 1e3:.1f}",
            f"{stats['solver_used_iterations']}"
            f"/{stats['solver_budgeted_iterations']}",
            str(stats["solver_warm_hits"]),
            f"{stats['mean_linear_snr']:.3f}",
        )
        for mode, stats in comparison.items()
        if isinstance(stats, dict)
    ]
    print(
        render_table(
            ("mode", "solve (ms)", "iters used/budgeted", "warm", "mean SNR"),
            rows,
            title=(
                f"Adaptive solve budgets: {STEPS} steps x {len(SEEDS)} "
                f"seeds, {CLIENTS} client, {SOLVE_ITERATIONS} iters, "
                "serial evaluation"
            ),
        )
    )
    print(
        f"speedup {comparison['speedup']:.2f}x, "
        f"quality ratio {comparison['quality_ratio']:.4f}"
    )

    adaptive = comparison["adaptive"]
    # The budget machinery actually engaged: the store warm-started
    # solves, and no solve overran its cap.  (The speedup gate below is
    # the real proof the caps bit — a renamed fixed loop can't clear
    # 1.5x on identical work.)
    assert adaptive["solver_warm_hits"] > 0
    assert (
        adaptive["solver_used_iterations"]
        <= adaptive["solver_budgeted_iterations"]
    )
    # The headline gate: reaction solves at least 1.5x faster at
    # quality parity.
    assert comparison["speedup"] >= SPEEDUP_GATE, (
        f"adaptive speedup {comparison['speedup']:.2f}x "
        f"below the {SPEEDUP_GATE}x gate"
    )
    assert comparison["quality_ratio"] >= 1.0 - QUALITY_TOLERANCE, (
        f"adaptive quality ratio {comparison['quality_ratio']:.4f} "
        f"lost more than {QUALITY_TOLERANCE:.0%} mean linear SNR"
    )

    OUTPUT.write_text(
        json.dumps(
            {
                "meta": bench_meta(
                    small=SMALL,
                    steps=STEPS,
                    seeds=list(SEEDS),
                    trials=TRIALS,
                    scene=SCENE,
                    clients=CLIENTS,
                    walkers=WALKERS,
                    client_pause_s=CLIENT_PAUSE_S,
                    panel_size=PANEL_SIZE,
                    grid_spacing_m=GRID_SPACING_M,
                    solve_iterations=SOLVE_ITERATIONS,
                    search_scale=SEARCH_SCALE,
                    search_decay=SEARCH_DECAY,
                    speedup_gate=SPEEDUP_GATE,
                    quality_tolerance=QUALITY_TOLERANCE,
                ),
                "comparison": comparison,
                "adaptive_snr_digest": digest,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"\nresults written to {OUTPUT}")
