"""Run one workload for a time budget, check it, and compute its metrics.

A run repeats *episodes* (one set-up plus one fixed-length drive of the
workload's seeded inputs) until the measured time has passed.  Every
episode of a run replays the same seed, so all of them must agree
exactly on the SNR trace, the sim-time latencies and the solve, batch
and leg counts; a mismatch fails the run.  Untraced episodes give the
end-to-end metrics; with ``trace`` on, traced episodes alternate with
untraced ones and give the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import math
import resource
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import spec
import workloads
from spans import Tracer
from stats import (
    TooFewSamples,
    failed_share,
    median,
    ratio,
    tail_percentile,
)

#: Set-up-only repetitions timed before each episode, so ``setup_s``
#: is the median of many set-ups spread over the whole run.
SETUPS_PER_EPISODE = 3


@dataclass(frozen=True)
class Runner:
    inputs: Callable[[int], object]
    setup: Callable[[object], object]
    run: Callable[..., workloads.Episode]


RUNNERS: Dict[str, Runner] = {
    "roam": Runner(workloads.roam_inputs, workloads.setup_daemon, workloads.run_daemon),
    "dwell-faults": Runner(
        workloads.dwell_faults_inputs, workloads.setup_daemon, workloads.run_daemon
    ),
    "admit-churn": Runner(
        workloads.churn_inputs, workloads.setup_churn, workloads.run_churn
    ),
}


@dataclass
class RunResult:
    correct: bool = True
    problems: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Deterministic figures and counts, printed for readers.
    details: Dict[str, object] = field(default_factory=dict)
    episodes: List[workloads.Episode] = field(default_factory=list)

    def fail(self, problem: str) -> None:
        self.correct = False
        self.problems.append(problem)


# ----------------------------------------------------------------------
# preconditions: each workload provably exercises its mechanism
# ----------------------------------------------------------------------


def preconditions(name: str, ep: workloads.Episode) -> List[str]:
    """Why this episode did not exercise its workload (empty when it did)."""
    c = ep.counts
    gates = []
    if ep.delta("solves") <= 0:
        gates.append("no solve ran in the drive loop")
    if name == "roam":
        if ep.delta("legs_retraced") <= 0:
            gates.append("roam retraced no channel legs")
        if ep.delta("prefetch_hits") <= 0:
            gates.append("roam had no prefetch hits")
    elif name == "dwell-faults":
        if c["faults_activated"] < 2:
            gates.append(f"only {c['faults_activated']} of 2 faults activated")
        if ep.delta("hwmgr.retries") <= 0:
            gates.append("dwell-faults paid no push retries")
        if ep.delta("solver.warm_hits") <= 0:
            gates.append("dwell-faults had no warm solver starts")
        if ep.delta("solver.early_stops") <= 0:
            gates.append("dwell-faults had no solver early stops")
    elif name == "admit-churn":
        if c["multi_request_solves"] <= 0:
            gates.append("no solve served more than one request")
        if c["served"] + c["settled_rejected"] != c["requests"]:
            gates.append(
                f"served {c['served']} + rejected {c['settled_rejected']} "
                f"!= submitted {c['requests']}"
            )
        if c["submitted"] + c["rejected"] != c["requests"]:
            gates.append("pipeline did not see every request")
        if c["peak_live_tasks"] >= workloads.LIVE_TASK_BOUND:
            gates.append(
                f"peak live tasks {c['peak_live_tasks']} reached the bound "
                f"{workloads.LIVE_TASK_BOUND}"
            )
    return gates


def _sanity(ep: workloads.Episode) -> List[str]:
    problems = []
    if not ep.snr_trace or not all(math.isfinite(v) for v in ep.snr_trace):
        problems.append("SNR trace empty or not finite")
    sims = ep.reaction_sim_ms + ep.request_sim_ms + ep.queue_wait_sim_ms
    if any(v < 0 for v in sims):
        problems.append("negative sim-time latency")
    if len(ep.reaction_wall_ms) != ep.counts["reactions"]:
        problems.append("reaction samples do not match the reaction count")
    return problems


# ----------------------------------------------------------------------
# running
# ----------------------------------------------------------------------


def _episode(runner: Runner, inputs, traced: bool) -> workloads.Episode:
    if not traced:
        return runner.run(inputs)
    tracer = Tracer()
    tracer.install(workloads.RandomSearch)
    try:
        return runner.run(inputs, tracer=tracer)
    finally:
        tracer.uninstall()


def run(name: str, seed: int, seconds: float, trace: bool, nproc: int) -> RunResult:
    runner = RUNNERS[name]
    inputs = runner.inputs(seed)
    result = RunResult()
    setups: List[float] = []
    peak_rss_mb = 0.0
    start = time.perf_counter()
    while True:
        for _ in range(SETUPS_PER_EPISODE):
            system, setup_s = runner.setup(inputs)
            system.pipeline.close()
            setups.append(setup_s)
        traced = trace and len(result.episodes) % 2 == 1
        episode = _episode(runner, inputs, traced)
        result.episodes.append(episode)
        setups.append(episode.setup_s)
        if len(result.episodes) == 1:
            # After a fixed amount of work, so the figure does not grow
            # with the number of episodes a run happens to fit.
            peak_rss_mb = _peak_rss_mb()
        if threading.active_count() > nproc:
            result.fail(f"{threading.active_count()} threads alive; nproc is {nproc}")
        untraced = [e for e in result.episodes if e.tracer is None]
        enough = len(untraced) >= 2 and (not trace or len(untraced) < len(result.episodes))
        elapsed = time.perf_counter() - start
        # Stop at the episode boundary nearest the time budget.
        if enough and elapsed + 0.5 * elapsed / len(result.episodes) >= seconds:
            break
    _check(name, result)
    for ep in result.episodes:
        parts = _failure_parts(ep)
        result.failed += sum(parts[:3])
        result.attempted += sum(parts[3:])
    try:
        result.details.update(_deterministic(result.episodes[0]))
        if trace:
            result.metrics = layer_metrics(result)
        else:
            result.metrics = end_to_end_metrics(result, setups, peak_rss_mb)
    except TooFewSamples as exc:
        result.fail(str(exc))
    result.details["episodes"] = len(result.episodes)
    result.details["episode_drive_s"] = [round(e.drive_s, 4) for e in result.episodes]
    result.details["traced_episodes"] = sum(e.tracer is not None for e in result.episodes)
    return result


def _check(name: str, result: RunResult) -> None:
    reference = result.episodes[0].fingerprint()
    for index, episode in enumerate(result.episodes):
        kind = "traced" if episode.tracer is not None else "untraced"
        for gate in preconditions(name, episode) + _sanity(episode):
            result.fail(f"episode {index} ({kind}): {gate}")
        fingerprint = episode.fingerprint()
        if fingerprint != reference:
            diff = sorted(k for k in reference if fingerprint.get(k) != reference[k])
            result.fail(f"episode {index} ({kind}) diverged from episode 0 in {diff}")


def _failure_parts(ep: workloads.Episode) -> Tuple[int, int, int, int, int]:
    """``failed_share`` inputs: three kinds of failure, then the attempts."""
    d = ep.delta
    return (
        int(d("rejected")),
        int(d("admission_failures")),
        int(d("reoptimize_failures")),
        int(d("submitted") + d("rejected")),
        int(d("triggers")),
    )


def _deterministic(ep: workloads.Episode) -> Dict[str, object]:
    """The seed-determined figures of one episode."""
    return {
        "median_snr_db": median(ep.snr_trace),
        "snr_digest": ep.snr_digest,
        "reactions": ep.counts["reactions"],
        "solves": ep.delta("solves"),
        "legs_retraced": ep.delta("legs_retraced"),
        "failed_share": failed_share(*_failure_parts(ep)),
        "reaction_sim_p90_ms": tail_percentile(ep.reaction_sim_ms, 90)[0],
        "request_sim_p90_ms": tail_percentile(ep.request_sim_ms, 90)[0],
    }


def _peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(
    result: RunResult, setups: List[float], peak_rss_mb: float
) -> Dict[str, float]:
    untraced = [e for e in result.episodes if e.tracer is None]
    reactions = [v for e in untraced for v in e.reaction_wall_ms]
    requests = [v for e in untraced for v in e.request_wall_ms]
    drive_s = sum(e.drive_s for e in untraced)
    reaction_p90, _ = tail_percentile(reactions, 90)
    request_p90, _ = tail_percentile(requests, 90)
    snr_db = result.episodes[0].snr_trace
    result.details["reaction_samples"] = len(reactions)
    result.details["request_samples"] = len(requests)
    result.details["setup_samples"] = len(setups)
    return {
        "setup_s": median(setups),
        "reaction_p50_ms": median(reactions),
        "reaction_p90_ms": reaction_p90,
        "reactions_per_s": len(reactions) / drive_s,
        "request_p50_ms": median(requests),
        "request_p90_ms": request_p90,
        "requests_per_s": len(requests) / drive_s,
        "median_snr": median([10.0 ** (v / 10.0) for v in snr_db]),
        "peak_rss_mb": peak_rss_mb,
    }


def _one_traced(ep: workloads.Episode, overhead: float) -> Dict[str, float]:
    tr: Tracer = ep.tracer
    solves = int(ep.delta("solves"))
    reactions = ep.counts["reactions"]

    def per_reaction(seconds: float) -> float:
        return seconds * 1e3 / reactions

    def d(name: str) -> int:
        return int(ep.delta(name))

    leg_hits, retraced = d("leg_hits"), d("legs_retraced")
    pushes = [s.attrs["latency_s"] for s in tr.named("hwmgr.push") if s.attrs.get("attempts")]
    tasks = [s.attrs["tasks"] for s in tr.named("orchestrator.reoptimize")]
    budgeted = d("solver.budget_iterations")
    det = _deterministic(ep)
    return {
        "channel.build_ms": per_reaction(tr.covered_s("channel.build")),
        "channel.legs_retraced": retraced,
        "channel.leg_hit_ratio": ratio(leg_hits, leg_hits + retraced),
        "channel.prefetch_ms": per_reaction(tr.covered_s("channel.prefetch")),
        "channel.prefetch_hit_ratio": ratio(d("prefetch_hits"), d("legs_prefetched")),
        "channel.prefetch_wasted": d("prefetch_wasted"),
        "solver.optimize_ms": per_reaction(tr.covered_s("solver.optimize")),
        "solver.evaluations": d("optimizer.objective_evaluations"),
        "solver.iterations_used": d("solver.used_iterations"),
        "solver.used_over_budgeted": ratio(d("solver.used_iterations"), budgeted),
        "solver.warm_hits": d("solver.warm_hits"),
        "solver.early_stops": d("solver.early_stops"),
        "orchestrator.reoptimize_ms": per_reaction(tr.covered_s("orchestrator.reoptimize")),
        "orchestrator.reoptimize_self_ms": per_reaction(tr.self_s("orchestrator.reoptimize")),
        "orchestrator.tasks_per_solve": ratio(sum(tasks), len(tasks)),
        "orchestrator.admit_batch_ms": per_reaction(tr.covered_s("orchestrator.admit_batch")),
        "broker.serve_ms": per_reaction(tr.covered_s("broker.serve")),
        "broker.rejections": d("broker.rejections"),
        "pipeline.batch_size": ratio(sum(ep.batch_sizes), len(ep.batch_sizes)),
        "pipeline.tick_self_ms": per_reaction(tr.self_s("pipeline.tick")),
        "pipeline.requests_per_solve": ratio(d("served"), solves),
        "pipeline.triggers_per_solve": ratio(d("triggers"), solves),
        "pipeline.window_sim_ms": ratio(ep.delta("window_sum_ms"), solves),
        "pipeline.queue_wait_sim_ms": ratio(
            sum(ep.queue_wait_sim_ms), len(ep.queue_wait_sim_ms)
        ),
        "hwmgr.push_ms": per_reaction(tr.covered_s("hwmgr.push")),
        "hwmgr.commit_ms": per_reaction(tr.covered_s("hwmgr.commit")),
        "hwmgr.push_retries": d("hwmgr.retries"),
        "hwmgr.push_failures": d("hwmgr.push_failures"),
        "hwmgr.settle_sim_ms": 1e3 * ratio(sum(pushes), len(pushes)),
        "runtime.observe_ms": per_reaction(tr.covered_s("runtime.observe")),
        "runtime.dynamics_step_ms": per_reaction(tr.covered_s("runtime.dynamics_step")),
        "trace.unattributed_ms": per_reaction(tr.unattributed_s()),
        "trace.overhead_ratio": overhead,
        "reaction_sim_p90_ms": det["reaction_sim_p90_ms"],
        "request_sim_p90_ms": det["request_sim_p90_ms"],
        "failed_share": det["failed_share"],
        "median_snr_db": det["median_snr_db"],
    }


def layer_metrics(result: RunResult) -> Dict[str, float]:
    traced = [e for e in result.episodes if e.tracer is not None]
    untraced = [e for e in result.episodes if e.tracer is None]
    overhead = median([e.drive_s for e in traced]) / median([e.drive_s for e in untraced])
    per_episode = [_one_traced(e, overhead) for e in traced]
    return {
        name: median([m[name] for m in per_episode])
        for name in spec.metric_names(trace=True)
    }


def export_spans(result: RunResult, path: str, meta: Dict[str, object]) -> None:
    """Write the last traced episode's spans as JSON lines."""
    traced = [e for e in result.episodes if e.tracer is not None]
    if traced:
        traced[-1].tracer.export(path, meta)
