"""Adaptive coalescing: controller and coalescing-core unit tests,
window boundary pin, event-driven pumping, and adaptive-over-fixed
window precedence."""

import pytest

from repro.broker import ApplicationDemand, HandleStatus
from repro.core.errors import ServiceError
from repro.pipeline import (
    AdaptiveCoalesceConfig,
    AdaptiveCoalescer,
    CoalescingCore,
    PipelineConfig,
    WINDOW_CLOSE_EPS_S,
)
from repro.pipeline.workers import DEFAULT_EVAL_CHUNK


def demand(i, priority=5):
    return ApplicationDemand(
        app_name=f"app-{i}",
        client_id=f"cl-{i}",
        room_id="bedroom",
        throughput_mbps=10.0,
        priority=priority,
    )


class TestAdaptiveCoalescer:
    def test_cold_window_is_minimum(self):
        coalescer = AdaptiveCoalescer()
        assert coalescer.window_s(0.0) == 0.0

    def test_pressure_opens_window(self):
        # Triggers arriving much faster than the solve cost → coalesce
        # for about one solve's worth of time.
        coalescer = AdaptiveCoalescer(
            AdaptiveCoalesceConfig(initial_cost_s=0.1)
        )
        for i in range(5):
            coalescer.observe_trigger(i * 0.01)
        assert coalescer.window_s(0.05) == pytest.approx(0.1)

    def test_silence_collapses_open_window(self):
        # The same pressured controller: once the silence since the
        # last trigger exceeds the solve cost, the window drops to the
        # minimum even though the gap EWMA is still small.
        coalescer = AdaptiveCoalescer(
            AdaptiveCoalesceConfig(initial_cost_s=0.1)
        )
        for i in range(5):
            coalescer.observe_trigger(i * 0.01)
        assert coalescer.window_s(0.04 + 0.5) == 0.0

    def test_sparse_triggers_keep_window_closed(self):
        coalescer = AdaptiveCoalescer(
            AdaptiveCoalesceConfig(initial_cost_s=0.05)
        )
        for i in range(5):
            coalescer.observe_trigger(i * 1.0)  # 1 s apart, cost 50 ms
        assert coalescer.window_s(4.0) == 0.0

    def test_solve_cost_ewma(self):
        coalescer = AdaptiveCoalescer(
            AdaptiveCoalesceConfig(alpha=0.5, initial_cost_s=0.1)
        )
        coalescer.observe_solve_cost(0.3)
        assert coalescer.solve_cost_estimate_s == pytest.approx(0.2)
        coalescer.observe_solve_cost(-1.0)  # ignored
        assert coalescer.solve_cost_estimate_s == pytest.approx(0.2)

    def test_window_capped_at_max(self):
        coalescer = AdaptiveCoalescer(
            AdaptiveCoalesceConfig(max_window_s=0.08, initial_cost_s=0.2)
        )
        for i in range(5):
            coalescer.observe_trigger(i * 0.01)
        assert coalescer.window_s(0.05) == pytest.approx(0.08)

    def test_reset_returns_to_cold(self):
        coalescer = AdaptiveCoalescer(
            AdaptiveCoalesceConfig(initial_cost_s=0.1)
        )
        for i in range(5):
            coalescer.observe_trigger(i * 0.01)
        coalescer.observe_solve_cost(0.4)
        coalescer.reset()
        assert coalescer.window_s(1.0) == 0.0
        assert coalescer.solve_cost_estimate_s == pytest.approx(0.1)

    def test_equal_bounds_fix_the_window(self):
        # A fixed window W is the controller clamped to [W, W]: idle,
        # pressured and silent, the core closes it W after the first
        # pending trigger.
        core = CoalescingCore(
            AdaptiveCoalesceConfig(
                min_window_s=0.2, max_window_s=0.2, initial_cost_s=0.1
            )
        )
        assert core.window_s(0.0) == 0.2
        for i in range(5):
            core.note_trigger(i * 0.01)
        core.coalescer.observe_solve_cost(5.0)
        assert core.window_s(0.05) == 0.2
        assert core.window_s(100.0) == 0.2
        assert core.next_deadline(0.05) == pytest.approx(0.2)
        assert core.close(0.19) is None
        triggers, window = core.close(0.2)
        assert len(triggers) == 5 and window == 0.2

    def test_config_validation(self):
        with pytest.raises(ServiceError):
            AdaptiveCoalesceConfig(min_window_s=-0.1)
        # The fixed-window form rejects a negative window too.
        with pytest.raises(ServiceError):
            AdaptiveCoalesceConfig(min_window_s=-0.1, max_window_s=-0.1)
        with pytest.raises(ServiceError):
            AdaptiveCoalesceConfig(min_window_s=0.5, max_window_s=0.1)
        with pytest.raises(ServiceError):
            AdaptiveCoalesceConfig(alpha=0.0)
        with pytest.raises(ServiceError):
            AdaptiveCoalesceConfig(busy_factor=0.0)


class TestWindowBoundary:
    def test_window_closes_on_exact_boundary_tick(self):
        # The pinned float bug: accumulated 0.05 s ticks land a hair
        # below first_at + window in the last ulps, so the strict
        # `now - first_at < window` comparison kept the window open one
        # tick too long.  The inclusive (epsilon) close must solve on
        # the boundary tick.
        core = CoalescingCore(
            AdaptiveCoalesceConfig(min_window_s=0.5, max_window_s=0.5)
        )
        now = 0.05
        core.note_trigger(now, "admission")
        closed_at = None
        for _ in range(14):
            now += 0.05
            if core.close(now) is not None:
                closed_at = now
                break
        assert closed_at is not None
        # The accumulated tick sits ulps short of the nominal close, so
        # a strict comparison would have missed it.
        assert closed_at - 0.05 < 0.5
        # Inclusive close: the window closes on the tick that *reaches*
        # first_at + window (0.55), not the one after (0.60).
        assert closed_at == pytest.approx(0.05 + 0.5, abs=1e-6)

    def test_epsilon_is_subtick(self):
        assert 0 < WINDOW_CLOSE_EPS_S < 1e-6
        # A window one epsilon short of its nominal close counts as
        # closed; two epsilons short does not.
        core = CoalescingCore(
            AdaptiveCoalesceConfig(min_window_s=0.5, max_window_s=0.5)
        )
        core.note_trigger(0.0)
        assert core.close(0.5 - 2 * WINDOW_CLOSE_EPS_S) is None
        assert core.close(0.5 - WINDOW_CLOSE_EPS_S) is not None


class TestCoalescingCore:
    def fixed(self, window_s=0.0):
        return CoalescingCore(
            AdaptiveCoalesceConfig(min_window_s=window_s, max_window_s=window_s)
        )

    def test_idle_core_has_no_deadline(self):
        core = self.fixed()
        assert core.next_deadline(1.0) is None
        assert core.close(1.0) is None
        # Queued work is due at once while the solver is free.
        assert core.next_deadline(1.0, queued=True) == 1.0

    def test_next_deadline_waits_for_busy_solver(self):
        core = self.fixed(0.1)
        core.note_trigger(0.0)
        _, window = core.close(0.1)
        core.solved(0.1, window, served_at=0.4, cost_s=0.3)
        assert core.busy_until == pytest.approx(0.4)
        core.note_trigger(0.2)
        # The window closes at 0.3, but the solver frees only at 0.4.
        assert core.next_deadline(0.2) == pytest.approx(0.4)
        assert core.next_deadline(0.2, queued=True) == pytest.approx(0.4)
        assert core.next_deadline(0.5) == 0.5

    def test_solve_held_until_busy_until(self):
        core = self.fixed(0.0)
        core.note_trigger(0.0)
        _, window = core.close(0.0)
        core.solved(0.0, window, served_at=0.25, cost_s=0.25)
        core.note_trigger(0.1)
        assert core.close(0.2) is None
        assert core.pending == [(0.1, "")]
        triggers, _ = core.close(0.25)
        assert triggers == [(0.1, "")]
        assert core.pending == []

    def test_trigger_without_work_is_dropped(self):
        # close() consumes the triggers; a caller with nothing admitted
        # skips its solve, and no solve is counted.
        core = self.fixed(0.0)
        core.note_trigger(0.0, "admission")
        assert core.close(0.0) == ([(0.0, "admission")], 0.0)
        assert core.next_deadline(0.0) is None
        assert (core.triggers, core.reoptimizations) == (1, 0)
        assert core.coalesce_ratio == 0.0

    def test_uncharged_solve_takes_no_sim_time(self):
        core = CoalescingCore(AdaptiveCoalesceConfig(initial_cost_s=0.1))
        core.note_trigger(1.0)
        _, window = core.close(1.0)
        core.solved(1.0, window, served_at=1.0)
        assert core.busy_until == 0.0
        assert core.coalescer.solve_cost_estimate_s == pytest.approx(0.1)
        core.note_trigger(1.5)
        assert core.close(1.5) is not None

    def test_counters_and_latest_served(self):
        core = self.fixed(0.2)
        for at in (0.0, 0.1):
            core.note_trigger(at)
        _, window = core.close(0.2)
        core.solved(0.2, window, served_at=0.5, cost_s=0.1)
        core.note_trigger(1.0)
        _, window = core.close(1.2)
        core.solved(1.2, window, served_at=1.3, cost_s=0.1)
        assert (core.triggers, core.reoptimizations) == (3, 2)
        assert core.coalesce_ratio == pytest.approx(1.5)
        assert core.mean_window_s == pytest.approx(0.2)
        assert core.window_max_s == pytest.approx(0.2)
        assert core.last_served_at == pytest.approx(1.3)


class TestPipelineDropsIdleTriggers:
    def test_trigger_with_no_active_task_is_dropped(self, system):
        pipeline = system.attach_pipeline(
            PipelineConfig(coalesce_window_s=0.0)
        )
        assert not system.orchestrator.active_contexts()
        pipeline.note_trigger("endpoint-moved")
        outcome = pipeline.tick()
        assert not outcome.reoptimized
        assert not outcome.failure_reason
        assert (pipeline.stats.triggers, pipeline.stats.reoptimizations) == (
            1,
            0,
        )
        assert pipeline.next_deadline() is None


class TestEventDrivenPump:
    def test_lone_request_solved_at_arrival_without_grid(self, system):
        # pump() must advance the clock to the exact admission/window
        # instants — a lone request under adaptive coalescing is solved
        # with zero added window latency, on no tick grid at all.
        pipeline = system.attach_pipeline(
            PipelineConfig(adaptive=AdaptiveCoalesceConfig())
        )
        handle = pipeline.submit(demand(0))
        results = pipeline.pump(horizon_s=5.0)
        assert handle.status is HandleStatus.RUNNING
        assert pipeline.stats.reoptimizations == 1
        # The solve happened immediately (cold coalescer → zero
        # window), not at the 5 s horizon.
        assert pipeline.clock.now < 1.0
        assert any(r.reoptimized for r in results)

    def test_pump_idles_out_when_nothing_pending(self, system):
        pipeline = system.attach_pipeline(
            PipelineConfig(adaptive=AdaptiveCoalesceConfig())
        )
        assert pipeline.pump(horizon_s=1.0) == []

    def test_pump_respects_scheduled_arrivals(self, system):
        pipeline = system.attach_pipeline(
            PipelineConfig(adaptive=AdaptiveCoalesceConfig())
        )
        pipeline.clock.schedule(0.7, lambda: pipeline.submit(demand(0)))
        pipeline.pump(horizon_s=5.0)
        assert pipeline.stats.reoptimizations == 1
        # Clock jumped to the arrival, then the admission instant —
        # never past what the events required.
        assert 0.7 <= pipeline.clock.now < 1.7

    def test_next_deadline_tracks_pending_window(self, system):
        pipeline = system.attach_pipeline(
            PipelineConfig(coalesce_window_s=0.3)
        )
        assert pipeline.next_deadline() is None
        pipeline.submit(demand(0))
        # Queued work → immediate deadline.
        assert pipeline.next_deadline() == pipeline.clock.now
        pipeline.clock.advance(0.01)
        pipeline.tick()  # drains the queue, opens the window
        deadline = pipeline.next_deadline()
        assert deadline == pytest.approx(0.01 + 0.3)


class TestConfigConflict:
    def test_adaptive_excludes_fixed_window_semantics(self, system):
        # With adaptive set, the effective window comes from the
        # controller, not coalesce_window_s.
        pipeline = system.attach_pipeline(
            PipelineConfig(
                adaptive=AdaptiveCoalesceConfig(),
                coalesce_window_s=0.4,
            )
        )
        assert pipeline.core.window_s(0.0) == 0.0


class TestEvaluatorConfig:
    def test_pipeline_evaluator_follows_parallelism(self, system):
        # parallelism is the one evaluation setting; the chunk grid
        # stays at the default so results never depend on it.
        pipeline = system.attach_pipeline(PipelineConfig(parallelism=3))
        try:
            assert pipeline.evaluator.parallelism == 3
            assert pipeline.evaluator.chunk == DEFAULT_EVAL_CHUNK
            assert system.orchestrator.optimizer.evaluator is pipeline.evaluator
        finally:
            pipeline.close()
