"""Adaptive coalescing: controller unit tests, window boundary pin,
event-driven pumping, and adaptive-over-fixed window precedence."""

import pytest

from repro.broker import ApplicationDemand, HandleStatus
from repro.core.errors import ServiceError
from repro.pipeline import (
    AdaptiveCoalesceConfig,
    AdaptiveCoalescer,
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
        # pressured and silent, it always answers W.
        coalescer = AdaptiveCoalescer(
            AdaptiveCoalesceConfig(
                min_window_s=0.2, max_window_s=0.2, initial_cost_s=0.1
            )
        )
        assert coalescer.window_s(0.0) == 0.2
        for i in range(5):
            coalescer.observe_trigger(i * 0.01)
        coalescer.observe_solve_cost(5.0)
        assert coalescer.window_s(0.05) == 0.2
        assert coalescer.window_s(100.0) == 0.2

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
    def test_window_closes_on_exact_boundary_tick(self, system):
        # The pinned float bug: after trigger at t=0.1 with a 0.1 s
        # window, ten 0.1 s clock advances put now at 0.2 — but the
        # accumulated sum is a hair below it in the last ulps, so the
        # strict `now - first_at < window` comparison kept the window
        # open one tick too long.  The inclusive (epsilon) close must
        # solve on the boundary tick.
        pipeline = system.attach_pipeline(
            PipelineConfig(coalesce_window_s=0.5)
        )
        pipeline.submit(demand(0))
        # Advance in 0.05 steps: 11 advances ≈ 0.55, crossing the
        # admission tick (queue drains on the first) plus the window.
        solved_at = None
        for _ in range(14):
            pipeline.clock.advance(0.05)
            outcome = pipeline.tick()
            if outcome.reoptimized:
                solved_at = pipeline.clock.now
                break
        assert solved_at is not None
        first_tick = 0.05  # admission tick (queue drained, trigger)
        # Inclusive close: the solve lands on the tick that *reaches*
        # first_at + window (0.55), not the one after (0.60).
        assert solved_at == pytest.approx(first_tick + 0.5, abs=1e-6)

    def test_epsilon_is_subtick(self):
        assert 0 < WINDOW_CLOSE_EPS_S < 1e-6


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
        assert pipeline.effective_window_s(0.0) == 0.0


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
