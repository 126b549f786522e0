"""What the benchmark measures, and why: the source of ``BENCHMARK.json``.

Design rules, each answering a measured way in which the figures of a
benchmark of this control plane moved from run to run with the same
code:

* **Compute is never charged to the sim clock.**  With
  ``charge_compute`` on, measured wall time steered the adaptive
  coalescer, so one seed coalesced 2.125, 2.0 or 1.75 triggers per
  solve and its median SNR changed between runs (4.253 vs 4.242 dB).
  With it off the coalescer's cost estimate stays at its prior and the
  busy threshold is a constant 62.5 ms.
* **Evaluation is serial** (``parallelism=1``): a two-thread evaluator
  made a 60-request run 1.6 to 2.6 times slower than serial on a
  two-core host, with a wider spread.  Channel legs are traced serially
  (``channel_workers=0``) for the same reason.
* **BLAS is pinned to one thread** before NumPy is imported: 200-reaction
  roam runs held p50 within 75.1 to 77.9 ms pinned, 72.6 to 81.2 ms not.
* **Runs are long and report medians**; set-up is repeated and its
  median reported, so a short set-up cannot swing ``setup_s``.

Every workload's control decisions are therefore a function of the
seed alone; wall time is measured, never fed back.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Tuple

COMMAND = ["python3", "surfbench/run.py"]
PATHS = ["surfbench"]
#: Measured seconds per run (episodes repeat until this has passed).
RUN_SECONDS = 36


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Threads the workload is configured to run (main thread only).
    threads: int = 1


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "roam",
        "2 always-moving clients + 1 obstacle walker, prefetch on, fixed "
        "budgets: a reaction nearly every step, time in leg retraces and "
        "full solves; no admission",
    ),
    Workload(
        "dwell-faults",
        "dwelling clients, adaptive budgets + early stop, one panel dies and "
        "the other's link drops writes: warm floor-budget solves, cached legs, "
        "hwmgr retries and recovery",
    ),
    Workload(
        "admit-churn",
        "static clients, open-loop seeded demands (lone arrivals and flash "
        "bursts) held then stopped: queue, batch admission, broker and "
        "multi-task coalesced solves",
    ),
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float = 0.0
    doc: str = ""


#: Measured with tracing off.  ``bound`` is the share of the parent's
#: median by which a later change may worsen the metric.
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25,
           "median wall time from SurfOS.from_scene to the first converged "
           "configuration, over repeated set-ups"),
    Metric("reaction_p50_ms", "ms", "lower", 0.25,
           "median wall time of a step that fired a reoptimization "
           "(daemon.step on roam/dwell-faults, the solving tick on admit-churn)"),
    Metric("reaction_p90_ms", "ms", "lower", 0.25,
           "p90 of the same; at least 10 samples lie beyond it"),
    Metric("reactions_per_s", "1/s", "higher", 0.25,
           "reoptimizations per wall second of the whole drive loop "
           "(prefetch and steps that did not react included)"),
    Metric("request_p50_ms", "ms", "lower", 0.25,
           "median wall time from a request's entry to the end of the tick "
           "that served it; a request is a demand submitted to the pipeline "
           "(admit-churn) or an environment trigger the daemon notes "
           "(roam, dwell-faults)"),
    Metric("request_p90_ms", "ms", "lower", 0.25,
           "p90 of the same; at least 10 samples lie beyond it"),
    Metric("requests_per_s", "1/s", "higher", 0.25,
           "requests served per wall second of the drive loop"),
    Metric("median_snr", "ratio", "higher", 0.25,
           "median over steps of the per-step median SNR on the observed "
           "grid, as a linear power ratio (deterministic per seed)"),
    Metric("peak_rss_mb", "MB", "lower", 0.1,
           "peak resident memory of the benchmark process after its first "
           "episode"),
)

#: Measured in a separate traced run; no bound.  ``_ms`` layer times are
#: wall milliseconds per reaction over the traced drive loop (the
#: layer's covered time divided by the reactions), so they add up with
#: ``trace.unattributed_ms`` to the drive time per reaction.  Counts are
#: totals over one episode's drive loop.
PER_LAYER: Tuple[Metric, ...] = (
    Metric("channel.build_ms", "ms", "lower"),
    Metric("channel.legs_retraced", "count", "lower"),
    Metric("channel.leg_hit_ratio", "ratio", "higher"),
    Metric("channel.prefetch_ms", "ms", "lower"),
    Metric("channel.prefetch_hit_ratio", "ratio", "higher"),
    Metric("channel.prefetch_wasted", "count", "lower"),
    Metric("solver.optimize_ms", "ms", "lower"),
    Metric("solver.evaluations", "count", "lower"),
    Metric("solver.iterations_used", "count", "lower"),
    Metric("solver.used_over_budgeted", "ratio", "lower"),
    Metric("solver.warm_hits", "count", "higher"),
    Metric("solver.early_stops", "count", "higher"),
    Metric("orchestrator.reoptimize_ms", "ms", "lower"),
    Metric("orchestrator.reoptimize_self_ms", "ms", "lower"),
    Metric("orchestrator.tasks_per_solve", "count", "lower"),
    Metric("orchestrator.admit_batch_ms", "ms", "lower"),
    Metric("broker.serve_ms", "ms", "lower"),
    Metric("broker.rejections", "count", "lower"),
    Metric("pipeline.batch_size", "count", "higher"),
    Metric("pipeline.tick_self_ms", "ms", "lower"),
    Metric("pipeline.requests_per_solve", "ratio", "higher"),
    Metric("pipeline.triggers_per_solve", "ratio", "higher"),
    Metric("pipeline.window_sim_ms", "ms", "lower"),
    Metric("pipeline.queue_wait_sim_ms", "ms", "lower"),
    Metric("hwmgr.push_ms", "ms", "lower"),
    Metric("hwmgr.commit_ms", "ms", "lower"),
    Metric("hwmgr.push_retries", "count", "lower"),
    Metric("hwmgr.push_failures", "count", "lower"),
    Metric("hwmgr.settle_sim_ms", "ms", "lower"),
    Metric("runtime.observe_ms", "ms", "lower"),
    Metric("runtime.dynamics_step_ms", "ms", "lower"),
    Metric("trace.unattributed_ms", "ms", "lower"),
    Metric("trace.overhead_ratio", "ratio", "lower"),
    Metric("reaction_sim_p90_ms", "ms", "lower"),
    Metric("request_sim_p90_ms", "ms", "lower"),
    Metric("failed_share", "ratio", "lower"),
    Metric("median_snr_db", "dB", "higher"),
)

#: Which end-to-end metric each layer metric should move, and where.
#: Written before measuring; a change claiming a gain cites these.
PREDICTIONS: Dict[str, str] = {
    "channel.build_ms, channel.legs_retraced, channel.leg_hit_ratio":
        "reaction_p50_ms on roam; flat on dwell-faults and admit-churn",
    "channel.prefetch_ms, channel.prefetch_hit_ratio, channel.prefetch_wasted":
        "reactions_per_s on roam; moving work into prefetch lowers "
        "reaction_p50_ms but not reactions_per_s",
    "solver.optimize_ms, solver.evaluations":
        "reaction_p50_ms on roam, request_p90_ms on admit-churn",
    "solver.iterations_used, solver.used_over_budgeted, solver.warm_hits, "
    "solver.early_stops":
        "reaction_p50_ms on dwell-faults; zero and flat on roam and admit-churn",
    "orchestrator.reoptimize_ms, orchestrator.reoptimize_self_ms, "
    "orchestrator.tasks_per_solve, orchestrator.admit_batch_ms":
        "request_p90_ms on admit-churn",
    "broker.serve_ms, broker.rejections, pipeline.batch_size, "
    "pipeline.tick_self_ms":
        "request_p50_ms on admit-churn",
    "pipeline.requests_per_solve, pipeline.triggers_per_solve, "
    "pipeline.window_sim_ms, pipeline.queue_wait_sim_ms":
        "request_sim_p90_ms and requests_per_s on admit-churn",
    "hwmgr.push_ms, hwmgr.commit_ms, hwmgr.push_retries, "
    "hwmgr.push_failures, hwmgr.settle_sim_ms":
        "reaction_sim_p90_ms, reaction_p90_ms and failed_share on dwell-faults",
    "runtime.observe_ms, runtime.dynamics_step_ms":
        "reactions_per_s on roam and dwell-faults",
    "trace.unattributed_ms, trace.overhead_ratio": "every workload",
}

# The deterministic metrics, which repeat exactly for one seed, are
# median_snr, median_snr_db, reaction_sim_p90_ms, request_sim_p90_ms and
# failed_share.  All but median_snr are reported with the per-layer
# metrics: they can be zero (failed_share), negative (median_snr_db) or
# read the same on every seed (a sim latency made of the constant settle
# time alone, as on roam), and a relative bound cannot judge those.  On
# dwell-faults too the reaction sim latency is the settle time alone:
# the orchestrator's clock does not advance by link lag or retry
# backoff, which show in hwmgr.settle_sim_ms instead.


def workload(name: str) -> Workload:
    for w in WORKLOADS:
        if w.name == name:
            return w
    known = ", ".join(w.name for w in WORKLOADS)
    raise KeyError(f"unknown workload {name!r}; known: {known}")


def benchmark_json() -> Dict[str, object]:
    """The ``BENCHMARK.json`` document."""

    def metric(m: Metric, bound: bool) -> Dict[str, object]:
        out: Dict[str, object] = {"name": m.name, "unit": m.unit, "better": m.better}
        if bound:
            out["bound"] = m.bound
        return out

    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [metric(m, True) for m in END_TO_END],
        "per_layer": [metric(m, False) for m in PER_LAYER],
    }


def render_benchmark_json() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


def metric_names(trace: bool) -> List[str]:
    return [m.name for m in (PER_LAYER if trace else END_TO_END)]
