"""Manager health tracking: retries, backoff determinism, quarantine."""

import numpy as np
import pytest

from repro.core import OperationStatus, SurfaceConfiguration
from repro.faults import ElementFailure, FaultInjector
from repro.geometry import vec3
from repro.hwmgr import HardwareManager
from repro.hwmgr.health import HealthStatus, RetryPolicy
from repro.surfaces import GENERIC_PROGRAMMABLE_28, SurfacePanel
from repro.telemetry import Telemetry


def make_panel(pid="s1", rows=4, cols=4):
    return SurfacePanel(
        pid, GENERIC_PROGRAMMABLE_28, rows, cols, vec3(0, 0, 1.5), vec3(0, -1, 0)
    )


def make_manager(seed=0, drop=0.5, timeout=0.0, **policy_kw):
    manager = HardwareManager(
        telemetry=Telemetry(),
        fault_injector=FaultInjector(seed=seed),
        retry_policy=RetryPolicy(seed=seed, **policy_kw),
    )
    manager.register_surface(make_panel())
    manager.faults.lossy_link(
        "s1", drop_probability=drop, timeout_probability=timeout
    )
    manager.tick_faults(0.0)
    return manager


def push_many(manager, count, rows=4, cols=4):
    rng = np.random.default_rng(0)
    results = []
    for i in range(count):
        cfg = SurfaceConfiguration.random(rows, cols, rng=rng)
        results.append(
            manager.push_configuration("s1", cfg, now=float(i), name=f"c{i}")
        )
    return results


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter_fraction=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(quarantine_after=0)

    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(
            base_backoff_s=0.01, backoff_factor=2.0, jitter_fraction=0.0
        )
        rng = policy.make_rng()
        assert policy.backoff_s(1, rng) == pytest.approx(0.01)
        assert policy.backoff_s(2, rng) == pytest.approx(0.02)
        assert policy.backoff_s(3, rng) == pytest.approx(0.04)


class TestRetryDeterminism:
    def test_same_seed_identical_retry_schedules(self):
        runs = []
        for _ in range(2):
            manager = make_manager(seed=5, drop=0.5)
            results = push_many(manager, 10)
            retries = [
                (e.attrs["attempt"], e.attrs["backoff_s"])
                for e in manager.telemetry.events("hwmgr.retry")
            ]
            statuses = [r.status for r in results]
            health = manager.health("s1")
            runs.append(
                (
                    retries,
                    statuses,
                    health.status,
                    health.retries,
                    health.total_failures,
                )
            )
        assert runs[0] == runs[1]
        assert runs[0][0]  # some retries actually happened

    def test_retries_counted_in_telemetry(self):
        manager = make_manager(seed=5, drop=0.5)
        push_many(manager, 10)
        counters = manager.telemetry.counters
        assert counters.get("hwmgr.retries", 0) == manager.health("s1").retries
        assert counters["hwmgr.retries"] > 0

    def test_retried_status_and_attempts(self):
        manager = make_manager(seed=5, drop=0.5)
        results = push_many(manager, 10)
        retried = [r for r in results if r.status is OperationStatus.RETRIED]
        assert retried  # p=0.5: some pushes needed a retry
        assert all(r.attempts > 1 for r in retried)
        assert all(r.ready_at is not None for r in retried)


class TestQuarantine:
    def test_repeat_failures_trip_quarantine(self):
        manager = make_manager(
            seed=0, drop=1.0, max_attempts=2, quarantine_after=3
        )
        degradations = []
        manager.on_degraded = lambda sid, reason: degradations.append(
            (sid, reason)
        )
        results = push_many(manager, 5)
        health = manager.health("s1")
        assert health.status is HealthStatus.QUARANTINED
        assert degradations == [("s1", "quarantined")]
        assert manager.telemetry.counters["hwmgr.quarantined"] == 1
        # First three operations fail outright, the rest are rejected
        # without touching the link.
        assert [r.status for r in results[:3]] == [OperationStatus.FAILED] * 3
        assert [r.status for r in results[3:]] == [OperationStatus.REJECTED] * 2
        assert results[3].attempts == 0

    def test_quarantined_surface_masked_from_operational(self):
        manager = make_manager(seed=0, drop=1.0, max_attempts=1, quarantine_after=1)
        push_many(manager, 1)
        assert manager.operational_panels() == []
        assert manager.panels() != []  # still mounted

    def test_success_resets_streak(self):
        manager = make_manager(seed=0, drop=0.5, quarantine_after=3)
        push_many(manager, 10)
        health = manager.health("s1")
        # With p=0.5 drops and 4 attempts per push, operations succeed
        # often enough that the streak never reaches 3.
        assert health.status is HealthStatus.HEALTHY
        assert health.consecutive_failures < 3

    def test_reinstate(self):
        manager = make_manager(seed=0, drop=1.0, max_attempts=1, quarantine_after=1)
        push_many(manager, 1)
        assert manager.health("s1").status is HealthStatus.QUARANTINED
        manager.reinstate("s1")
        assert manager.health("s1").status is HealthStatus.HEALTHY
        assert manager.health("s1").consecutive_failures == 0

    def test_operator_quarantine(self):
        manager = HardwareManager()
        manager.register_surface(make_panel())
        manager.quarantine("s1", reason="maintenance")
        assert manager.health("s1").status is HealthStatus.QUARANTINED
        result = manager.push_configuration(
            "s1", SurfaceConfiguration.zeros(4, 4), now=0.0
        )
        assert result.status is OperationStatus.REJECTED
        assert not result.ok


class TestTickFaults:
    def test_panel_death_updates_health_and_notifies(self):
        manager = HardwareManager(fault_injector=FaultInjector(seed=0))
        manager.register_surface(make_panel())
        seen = []
        manager.on_degraded = lambda sid, reason: seen.append((sid, reason))
        manager.faults.kill_panel("s1", at_time=1.0)
        manager.tick_faults(0.5)
        assert manager.health("s1").status is HealthStatus.HEALTHY
        manager.tick_faults(1.5)
        assert manager.health("s1").status is HealthStatus.DEAD
        assert seen == [("s1", "panel-dead")]
        assert np.all(manager.panel("s1").configuration.amplitudes == 0.0)

    def test_element_failure_marks_degraded(self):
        manager = HardwareManager(fault_injector=FaultInjector(seed=0))
        manager.register_surface(make_panel())
        manager.faults.schedule(ElementFailure("s1", fraction=0.25))
        manager.tick_faults(0.0)
        assert manager.health("s1").status is HealthStatus.DEGRADED
        assert manager.health("s1").operational
        assert manager.telemetry.counters["faults.injected"] == 1

    def test_commit_reapplies_corruption(self):
        manager = HardwareManager(fault_injector=FaultInjector(seed=0))
        manager.register_surface(make_panel())
        manager.faults.schedule(ElementFailure("s1", fraction=0.25))
        manager.tick_faults(0.0)
        dark_before = manager.panel("s1").configuration.amplitudes == 0.0
        assert dark_before.any()
        # A degraded surface still takes writes; committing the clean
        # intent must not resurrect the dead elements.
        result = manager.push_configuration(
            "s1", SurfaceConfiguration.zeros(4, 4), now=0.0
        )
        assert result.ok
        manager.commit_all(now=result.ready_at)
        dark_after = manager.panel("s1").configuration.amplitudes == 0.0
        np.testing.assert_array_equal(dark_before, dark_after)

    def test_no_injector_is_inert(self):
        manager = HardwareManager()
        manager.register_surface(make_panel())
        assert manager.tick_faults(1.0) == []
        assert manager.faults is None
