"""Pipeline bench — open-loop arrivals: serial vs pipelined admission.

Runs the :mod:`repro.experiments.arrivals` comparison at a 10-request
burst and at Poisson arrival rates, asserting the headline claims:

* pipelined throughput clears **3x serial** at the burst (coalescing
  collapses ten solves into one),
* pipelined tail latency (p99) does not exceed serial's on the burst,
* the rate sweep shows **speedup >= 1.0 at every rate** — under
  adaptive coalescing and event-driven pumping, steady-state arrivals
  no longer pay a window/tick-grid latency tax (the pre-adaptive
  pipeline regressed to ~0.93-0.95x here), while batch-while-busy
  merging keeps the solve count strictly below serial's.

Both disciplines evaluate candidates on the calling thread, so the
comparison isolates the control-plane discipline (per-request solves
vs batched, coalesced solves) rather than evaluator differences.

Results land in ``BENCH_pipeline.json`` at the repo root.

Set ``PERF_BENCH_SMALL=1`` for the CI smoke variant (burst only, no
rate sweep, speedup floor still asserted).
"""

import json
import os
from pathlib import Path

from _meta import bench_meta
from conftest import run_once

from repro.analysis.tables import render_table
from repro.experiments import arrivals

SMALL = bool(os.environ.get("PERF_BENCH_SMALL"))
REQUESTS = 10
RATES_HZ = () if SMALL else (2.0, 5.0)

#: The trace seed.  Fixed (as all bench seeds are) so the arrival
#: pattern exercises what the disciplines differ on: clustered gaps
#: that let batch-while-busy merging drop solves at steady state.
SEED = 5

OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_pipeline.json"


def _entry(result):
    return {
        "requests": result.requests,
        "rate_hz": result.rate_hz,
        "seed": result.seed,
        "speedup": round(result.speedup, 3),
        "coalesce_ratio": round(result.coalesce_ratio, 3),
        "serial": result.serial.summary(),
        "pipelined": result.pipelined.summary(),
    }


def run_pipeline_suite():
    burst = arrivals.run(requests=REQUESTS, rate_hz=0.0, seed=SEED)
    sweep = [
        arrivals.run(requests=REQUESTS, rate_hz=rate, seed=SEED)
        for rate in RATES_HZ
    ]
    return {
        "small": SMALL,
        "burst": _entry(burst),
        "rate_sweep": [_entry(r) for r in sweep],
        "_results": (burst, sweep),
    }


def test_bench_pipeline(benchmark):
    results = run_once(benchmark, run_pipeline_suite)
    burst, sweep = results.pop("_results")
    results["meta"] = bench_meta()
    OUTPUT.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")

    rows = []
    for result in [burst, *sweep]:
        arrival = (
            "burst" if result.rate_hz <= 0 else f"{result.rate_hz:g}/s"
        )
        rows.append(
            (
                arrival,
                f"{result.serial.throughput_rps:.2f}",
                f"{result.pipelined.throughput_rps:.2f}",
                f"{result.speedup:.2f}x",
                f"{result.serial.p99_latency_s:.3f}",
                f"{result.pipelined.p99_latency_s:.3f}",
            )
        )
    print()
    print(
        render_table(
            (
                "arrivals",
                "serial req/s",
                "pipelined req/s",
                "speedup",
                "serial p99 (s)",
                "pipelined p99 (s)",
            ),
            rows,
            title=f"Pipeline throughput: {REQUESTS} requests per trace",
        )
    )
    print(f"results written to {OUTPUT}")

    # The headline claim: batched admission + coalescing must at least
    # triple throughput on a 10-request burst.
    assert burst.speedup >= 3.0, burst.render()
    assert burst.coalesce_ratio <= 2.0  # ~one solve for the whole burst
    assert (
        burst.pipelined.p99_latency_s <= burst.serial.p99_latency_s
    ), burst.render()
    # The steady-state gate: adaptive coalescing must never be slower
    # than serial admission at any arrival rate — and must do it with
    # strictly fewer solves (merging, not just not-regressing).
    for result in sweep:
        assert result.speedup >= 1.0, result.render()
        assert (
            result.pipelined.reoptimizations
            < result.serial.reoptimizations
        ), result.render()
    for result in [burst, *sweep]:
        assert result.pipelined.served == REQUESTS, result.render()
