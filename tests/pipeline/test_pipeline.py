"""RequestPipeline: batched admission, coalescing window, backpressure."""

import pytest

from repro.broker import ApplicationDemand, HandleStatus, RequestStatus
from repro.pipeline import PipelineConfig


def demand(i, priority=5, throughput=10.0):
    return ApplicationDemand(
        app_name=f"app-{i}",
        client_id=f"cl-{i}",
        room_id="bedroom",
        throughput_mbps=throughput,
        priority=priority,
    )


class TestBatchedAdmission:
    def test_one_tick_admits_whole_burst_in_one_pass(self, system):
        pipeline = system.attach_pipeline(
            PipelineConfig(coalesce_window_s=0.0)
        )
        handles = [pipeline.submit(demand(i)) for i in range(4)]
        assert all(h.status is HandleStatus.QUEUED for h in handles)
        pipeline.clock.advance(0.5)
        tick = pipeline.tick()
        assert tick.drained == 4
        assert len(tick.admitted) == 4
        # One admit_batch pass, not four admissions.
        counters = system.telemetry.snapshot().counters
        assert counters["scheduler.batch_admissions"] == 1
        assert counters["scheduler.batch_admitted_tasks"] == 4

    def test_burst_is_served_by_one_coalesced_solve(self, system):
        pipeline = system.attach_pipeline(
            PipelineConfig(coalesce_window_s=0.0)
        )
        for i in range(4):
            pipeline.submit(demand(i))
        pipeline.run(steps=2, dt=0.5)
        assert pipeline.stats.reoptimizations == 1
        assert len(pipeline.stats.latencies) == 4
        assert pipeline.stats.coalesce_ratio >= 1.0

    def test_reoptimize_wall_time_accumulates_outside_summary(self, system):
        pipeline = system.attach_pipeline(
            PipelineConfig(coalesce_window_s=0.0)
        )
        for i in range(2):
            pipeline.submit(demand(i))
        pipeline.run(steps=2, dt=0.5)
        assert pipeline.stats.reoptimizations == 1
        assert pipeline.stats.reoptimize_wall_s > 0.0
        # Wall time varies run to run: it must not reach the summary.
        assert "reoptimize_wall_s" not in pipeline.stats.summary()

    def test_solve_takes_no_sim_time(self, system):
        pipeline = system.attach_pipeline(
            PipelineConfig(coalesce_window_s=0.0)
        )
        for i in range(2):
            pipeline.submit(demand(i))
        pipeline.clock.advance(0.5)
        tick = pipeline.tick()
        assert tick.reoptimized
        # The clock stays at the tick; served latency is the hardware
        # settle the push paid, not the solve's wall time.
        assert pipeline.clock.now == 0.5
        assert pipeline.core.busy_until == 0.0
        settle = tick.result.settle_s
        assert pipeline.stats.latencies == [
            pytest.approx(0.5 + settle)
        ] * 2

    def test_max_batch_spills_to_next_tick(self, system):
        pipeline = system.attach_pipeline(
            PipelineConfig(max_batch=2, coalesce_window_s=0.0)
        )
        for i in range(3):
            pipeline.submit(demand(i))
        pipeline.clock.advance(0.5)
        first = pipeline.tick()
        assert first.drained == 2
        assert pipeline.queue.depth == 1
        pipeline.clock.advance(0.5)
        second = pipeline.tick()
        assert second.drained == 1

    def test_duplicate_key_rejected_without_aborting_batch(self, system):
        pipeline = system.attach_pipeline(
            PipelineConfig(coalesce_window_s=0.0)
        )
        first = pipeline.submit(demand(0))
        dup = pipeline.submit(demand(0))
        other = pipeline.submit(demand(1))
        pipeline.run(steps=2, dt=0.5)
        assert first.status is HandleStatus.RUNNING
        assert dup.status is HandleStatus.REJECTED
        assert "already served" in dup.reason
        assert other.status is HandleStatus.RUNNING


class TestBackpressure:
    def test_queue_overflow_rejects_submit(self, system):
        pipeline = system.attach_pipeline(
            PipelineConfig(queue_capacity=2, coalesce_window_s=0.0)
        )
        accepted = [pipeline.submit(demand(i)) for i in range(2)]
        overflow = pipeline.submit(demand(2))
        assert all(h.status is HandleStatus.QUEUED for h in accepted)
        assert overflow.status is HandleStatus.REJECTED
        assert "full" in overflow.reason
        assert pipeline.stats.rejected == 1
        # A rejected handle never reaches the broker.
        with pytest.raises(Exception):
            overflow.satisfaction()

    def test_rejected_request_can_be_resubmitted_after_drain(self, system):
        pipeline = system.attach_pipeline(
            PipelineConfig(queue_capacity=1, coalesce_window_s=0.0)
        )
        pipeline.submit(demand(0))
        assert pipeline.submit(demand(1)).status is HandleStatus.REJECTED
        pipeline.run(steps=2, dt=0.5)
        retry = pipeline.submit(demand(1))
        assert retry.status is HandleStatus.QUEUED


class TestCoalescingWindow:
    def test_triggers_within_window_collapse_into_one_solve(self, system):
        pipeline = system.attach_pipeline(
            PipelineConfig(coalesce_window_s=1.0)
        )
        pipeline.submit(demand(0))
        pipeline.clock.advance(0.25)
        pipeline.tick()  # admits, notes the admission trigger
        assert pipeline.stats.reoptimizations == 0
        pipeline.note_trigger("endpoint-moved")
        pipeline.note_trigger("channel-degraded")
        pipeline.clock.advance(0.5)
        pipeline.tick()  # 0.5 elapsed < 1.0: still coalescing
        assert pipeline.stats.reoptimizations == 0
        pipeline.clock.advance(0.5)
        tick = pipeline.tick()  # 1.0 elapsed: fires once for all three
        assert tick.reoptimized
        assert len(tick.coalesced) == 3
        assert pipeline.stats.reoptimizations == 1
        assert pipeline.stats.coalesce_ratio == 3.0

    def test_zero_window_fires_on_next_tick(self, system):
        pipeline = system.attach_pipeline(
            PipelineConfig(coalesce_window_s=0.0)
        )
        pipeline.submit(demand(0))
        pipeline.clock.advance(0.1)
        tick = pipeline.tick()
        assert tick.reoptimized

    def test_trigger_without_active_tasks_is_dropped(self, system):
        pipeline = system.attach_pipeline(
            PipelineConfig(coalesce_window_s=0.0)
        )
        pipeline.note_trigger("channel-degraded")
        pipeline.clock.advance(0.5)
        tick = pipeline.tick()
        assert not tick.reoptimized
        assert pipeline.stats.reoptimizations == 0

    def test_detection_time_is_earliest_trigger(self, system):
        pipeline = system.attach_pipeline(
            PipelineConfig(coalesce_window_s=1.0)
        )
        pipeline.submit(demand(0))
        pipeline.clock.advance(0.25)
        pipeline.tick()
        first_at = pipeline.clock.now
        pipeline.clock.advance(2.0)
        tick = pipeline.tick()
        assert tick.reoptimized
        assert tick.first_trigger_at == pytest.approx(first_at)
        assert tick.primary_trigger == "admission"


class TestDirtySet:
    def test_admission_marks_dirty_and_solve_clears(self, system):
        pipeline = system.attach_pipeline(
            PipelineConfig(coalesce_window_s=0.0)
        )
        pipeline.submit(demand(0))
        pipeline.clock.advance(0.5)
        pipeline.tick()
        assert sorted(system.orchestrator._dirty_tasks) == []

    def test_mobility_marks_affected_tasks_dirty(self, system):
        pipeline = system.attach_pipeline(
            PipelineConfig(coalesce_window_s=0.0)
        )
        handle = pipeline.submit(demand(0))
        pipeline.run(steps=1, dt=0.5)
        system.hardware.client("cl-0").move_to((5.5, 1.0, 1.0))
        affected = system.orchestrator.refresh_client_tasks("cl-0")
        assert affected == handle.task_ids
        assert sorted(system.orchestrator._dirty_tasks) == sorted(handle.task_ids)

    def test_batch_admission_context_rejects_nesting(self, system):
        from repro.core.errors import ServiceError

        with system.orchestrator.batch_admission():
            with pytest.raises(ServiceError):
                with system.orchestrator.batch_admission():
                    pass


class TestDaemonIntegration:
    def test_daemon_routes_triggers_through_pipeline(self, system):
        pipeline = system.attach_pipeline(
            PipelineConfig(coalesce_window_s=0.0)
        )
        handle = pipeline.submit(demand(0))
        handle.wait(timeout_s=5.0, dt=0.5)
        assert handle.status is HandleStatus.RUNNING
        # Endpoint motion → daemon notes the trigger → pipeline solves.
        before = pipeline.stats.reoptimizations
        from repro.runtime import EndpointMoved

        system.hardware.client("cl-0").move_to((5.0, 1.2, 1.0))
        system.daemon.bus.publish(
            EndpointMoved(
                time=system.daemon.clock.now,
                client_id="cl-0",
                position=(5.0, 1.2, 1.0),
            )
        )
        record = system.daemon.step(dt=0.5)
        assert record is not None
        assert record.trigger == "endpoint-moved"
        assert pipeline.stats.reoptimizations == before + 1


class TestStopAndReap:
    def test_stop_queued_request_cancels_in_place(self, system):
        pipeline = system.attach_pipeline(
            PipelineConfig(coalesce_window_s=0.0)
        )
        handle = pipeline.submit(demand(0))
        response = handle.stop()
        assert response.status is RequestStatus.STOPPED
        assert handle.status is HandleStatus.STOPPED
        pipeline.clock.advance(0.5)
        tick = pipeline.tick()
        # The cancelled entry consumed no batch slot and was not served.
        assert tick.drained == 0
        assert pipeline.stats.admitted == 0

    def test_expired_parked_task_frees_slices_via_reap(self, system):
        pipeline = system.attach_pipeline(
            PipelineConfig(coalesce_window_s=10.0)
        )
        handle = pipeline.submit(
            ApplicationDemand(
                app_name="sense",
                client_id="cl-0",
                room_id="bedroom",
                needs_sensing=True,
                priority=5,
            )
        )
        pipeline.clock.advance(0.5)
        pipeline.tick()  # admitted (READY), parked behind the window
        assert handle.status is HandleStatus.ADMITTED
        # Sensing tasks carry a duration; let it lapse while READY.
        task = system.orchestrator.scheduler.task(handle.task_id)
        finished = system.orchestrator.tick(now=task.created_at + 1e6)
        assert handle.task_id in finished
        assert (
            system.orchestrator.scheduler.allocator.tasks_with_allocations()
            == []
        )
