"""Mobility scenario: determinism, prefetch identity, churn, gating."""

import numpy as np
import pytest

from repro.experiments import mobility

FAST = dict(steps=8, panel_size=6, solve_iterations=6)


def _run(tmp_path=None, name="run.jsonl", **kw):
    config = mobility.MobilityConfig(**{**FAST, **kw})
    jsonl = str(tmp_path / name) if tmp_path is not None else None
    return mobility.run(config, jsonl=jsonl), jsonl


def test_same_seed_byte_identical_jsonl(tmp_path):
    _, a = _run(tmp_path, "a.jsonl")
    _, b = _run(tmp_path, "b.jsonl")
    assert open(a, "rb").read() == open(b, "rb").read()


def test_prefetch_only_warms_the_cache():
    on, _ = _run()
    off, _ = _run(prefetch=False)
    assert on.snr_digest == off.snr_digest
    diff = float(
        np.max(np.abs(np.asarray(on.snr_trace) - np.asarray(off.snr_trace)))
    )
    assert diff == 0.0
    # But the reaction path traced fewer legs inline.
    assert on.legs_retraced < off.legs_retraced
    assert on.legs_prefetched > 0 and off.legs_prefetched == 0


def test_pure_motion_never_full_purges():
    """Motion attribution regression pin: bounded dirty regions only."""
    result, _ = _run(walkers=2)
    assert result.leg_cache_full_purges == 0
    assert result.reactions > 0
    assert result.reoptimize_failures == 0


def test_gate_failures_empty_on_defaults():
    result, _ = _run()
    assert result.gate_failures() == []
    assert result.prefetch_hit_rate >= 0.5


def test_churn_arrivals_and_departures_run():
    result, _ = _run(
        steps=16, churn_rate_hz=2.0, churn_lifetime_s=1.5, churn_max_live=2
    )
    assert result.churn_arrivals > 0
    assert result.churn_departures > 0
    assert result.reoptimize_failures == 0
    # Churn runs never gate on hit rate (departures purge warmed legs).
    assert result.gate_failures() == []


def test_departure_after_guest_task_already_completed():
    """A guest whose task finished before its departure fired still
    departs cleanly: the already-completed task is skipped, the guest
    is unregistered and counted."""
    config = mobility.MobilityConfig(**FAST, churn_rate_hz=0.4)
    system = mobility.build_system(config)
    driver = mobility._ChurnDriver(system, config)
    driver._arrive("guest-early")
    (task_id,) = driver._tasks["guest-early"]
    system.orchestrator.complete_task(task_id)
    driver._depart("guest-early")
    assert driver.arrivals == driver.departures == 1
    assert "guest-early" not in {c.client_id for c in system.hardware.clients()}


def test_churn_with_tiny_leg_cache_evicts_under_pressure():
    """LRU eviction at capacity while clients churn stays correct."""
    result, _ = _run(
        steps=16,
        churn_rate_hz=2.0,
        churn_lifetime_s=1.5,
        churn_max_live=2,
        leg_cache_size=4,
    )
    assert result.reactions > 0
    assert result.reoptimize_failures == 0
    # With 4 slots and several point-dependent legs per plan, warmed
    # legs get evicted before use.
    assert result.prefetch_wasted > 0


def test_office_scene_runs():
    result, _ = _run(scene="office", walkers=1)
    assert result.reactions > 0
    assert result.gate_failures() == []


def test_unknown_scene_is_rejected():
    from repro.core.errors import SurfOSError

    with pytest.raises(SurfOSError, match="unknown scene"):
        mobility.run(mobility.MobilityConfig(scene="penthouse", **FAST))


def test_adaptive_budget_same_seed_byte_identical(tmp_path):
    _, a = _run(tmp_path, "ada.jsonl", adaptive_budget=True)
    _, b = _run(tmp_path, "adb.jsonl", adaptive_budget=True)
    assert open(a, "rb").read() == open(b, "rb").read()


def test_adaptive_budget_skips_iterations_and_reports_stats():
    adaptive, _ = _run(adaptive_budget=True)
    assert adaptive.reactions > 0
    assert adaptive.reoptimize_failures == 0
    assert adaptive.solver_warm_hits > 0
    assert 0 < adaptive.solver_used_iterations < (
        adaptive.solver_budgeted_iterations
    )
    summary = adaptive.summary()
    assert summary["adaptive_budget"] is True
    assert summary["solver_warm_hits"] == adaptive.solver_warm_hits
    assert "wall_solve_s" not in summary


def test_disabled_adaptive_leaves_solver_stats_zero():
    fixed, _ = _run()
    assert fixed.solver_budgeted_iterations == 0
    assert fixed.solver_warm_hits == 0


def test_client_pause_and_search_knobs_change_the_trajectory():
    # The bench workload knobs are real: dwells and a converging search
    # produce a different (still gated, still deterministic) run.
    base, _ = _run(walkers=0)
    dwell, _ = _run(
        walkers=0, client_pause_s=1.5, search_scale=0.5, search_decay=0.7
    )
    again, _ = _run(
        walkers=0, client_pause_s=1.5, search_scale=0.5, search_decay=0.7
    )
    assert dwell.snr_digest != base.snr_digest
    assert dwell.snr_digest == again.snr_digest
    assert dwell.reoptimize_failures == 0


def test_summary_shape():
    result, _ = _run()
    summary = result.summary()
    for key in (
        "reactions",
        "reaction_p50_s",
        "prefetch_hit_rate",
        "legs_retraced",
        "snr_digest",
        "leg_cache_full_purges",
    ):
        assert key in summary
    assert "snr_trace" not in summary
    assert "wall_reaction_s" not in summary
