"""Pipeline bench — a 10-request burst: one solve per request vs the pipeline.

Runs the :mod:`repro.experiments.arrivals` comparison and asserts:

* the pipeline serves the whole burst with **one** solve, and both arms
  serve every request,
* pipelined throughput clears **3x serial**,
* pipelined tail latency (p99) does not exceed serial's.

Both arms time real solves on the calling thread and put no wall time
on the sim clock, so the comparison isolates the control-plane
discipline (per-request solves vs one batched, coalesced solve).

Results land in ``BENCH_pipeline.json`` at the repo root.
"""

import json
from pathlib import Path

from _meta import bench_meta
from conftest import run_once

from repro.analysis.tables import render_table
from repro.experiments import arrivals

REQUESTS = 10

#: The placement and optimizer seed.
SEED = 5

OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_pipeline.json"


def test_bench_pipeline(benchmark):
    burst = run_once(benchmark, arrivals.run, requests=REQUESTS, seed=SEED)
    results = {"burst": burst.summary(), "meta": bench_meta()}
    OUTPUT.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")

    print()
    print(
        render_table(
            ("mode", "req/s", "p50 (s)", "p99 (s)", "solves"),
            [
                (
                    mode.mode,
                    f"{mode.throughput_rps:.2f}",
                    f"{mode.p50_latency_s:.3f}",
                    f"{mode.p99_latency_s:.3f}",
                    str(mode.reoptimizations),
                )
                for mode in (burst.serial, burst.pipelined)
            ],
            title=f"Pipeline burst: {REQUESTS} requests, speedup "
            f"{burst.speedup:.2f}x",
        )
    )
    print(f"results written to {OUTPUT}")

    summary = results["burst"]
    assert burst.serial.served == REQUESTS, summary
    assert burst.pipelined.served == REQUESTS, summary
    # Batched admission + coalescing: one solve serves the whole burst.
    assert burst.pipelined.reoptimizations == 1, summary
    assert burst.speedup >= 3.0, summary
    assert burst.pipelined.p99_latency_s <= burst.serial.p99_latency_s, summary
