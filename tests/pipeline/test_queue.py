"""RequestQueue: bounds, backpressure, priority classes, drain order."""

import pytest

from repro.broker import ApplicationDemand, RequestStatus, ServiceRequest
from repro.pipeline import PipelineConfig, PriorityClass, RequestQueue


def demand(i, latency_ms=None, priority=5):
    return ApplicationDemand(
        app_name=f"app-{i}",
        client_id=f"cl-{i}",
        room_id="bedroom",
        throughput_mbps=10.0,
        latency_ms=latency_ms,
        priority=priority,
    )


def request(i, **kw):
    return ServiceRequest(demand=demand(i, **kw))


class TestBackpressure:
    def test_offer_within_capacity_queues(self):
        queue = RequestQueue(capacity=2)
        response = queue.offer(request(0))
        assert response.status is RequestStatus.QUEUED
        assert response.ok
        assert queue.depth == 1

    def test_offer_beyond_capacity_rejects_with_reason(self):
        queue = RequestQueue(capacity=2)
        queue.offer(request(0))
        queue.offer(request(1))
        response = queue.offer(request(2))
        assert response.status is RequestStatus.REJECTED
        assert not response.ok
        assert "full" in response.reason
        assert queue.depth == 2
        assert queue.rejected == 1

    def test_rejection_never_raises(self):
        queue = RequestQueue(capacity=1)
        queue.offer(request(0))
        for i in range(1, 20):
            assert not queue.offer(request(i))

    def test_drain_frees_capacity(self):
        queue = RequestQueue(capacity=1)
        queue.offer(request(0))
        assert not queue.offer(request(1))
        queue.drain(max_batch=8)
        assert queue.offer(request(2)).ok


class TestPriorityClasses:
    def test_latency_sensitive_is_interactive(self):
        req = request(0, latency_ms=10.0)
        assert PriorityClass.classify(req) is PriorityClass.INTERACTIVE

    def test_low_priority_is_bulk(self):
        assert (
            PriorityClass.classify(request(0, priority=2))
            is PriorityClass.BULK
        )

    def test_default_is_normal(self):
        assert (
            PriorityClass.classify(request(0, priority=6))
            is PriorityClass.NORMAL
        )

    def test_drain_order_interactive_first_then_priority_then_fifo(self):
        queue = RequestQueue(capacity=8)
        bulk = request(0, priority=2)
        normal_a = request(1, priority=6)
        normal_b = request(2, priority=8)
        interactive = request(3, latency_ms=5.0, priority=4)
        for req in (bulk, normal_a, normal_b, interactive):
            queue.offer(req)
        drained = [e.request for e in queue.drain(max_batch=8)]
        assert drained == [interactive, normal_b, normal_a, bulk]

    def test_drain_respects_max_batch(self):
        queue = RequestQueue(capacity=8)
        for i in range(5):
            queue.offer(request(i))
        first = queue.drain(max_batch=3)
        assert len(first) == 3
        assert queue.depth == 2
        second = queue.drain(max_batch=3)
        assert len(second) == 2


class TestConfigValidation:
    def test_bad_values_rejected(self):
        from repro.core.errors import ServiceError

        for kw in (
            {"queue_capacity": 0},
            {"max_batch": 0},
            {"coalesce_window_s": -1.0},
            {"parallelism": 0},
            {"parallelism": 2},  # evaluation is serial
            {"reoptimize_rounds": 0},
        ):
            with pytest.raises(ServiceError):
                PipelineConfig(**kw)

    @pytest.mark.parametrize("parallelism", [-1, 4, 16])
    def test_parallelism_other_than_one_rejected(self, parallelism):
        from repro.core.errors import ServiceError

        assert PipelineConfig(parallelism=1).parallelism == 1
        with pytest.raises(ServiceError, match="serial"):
            PipelineConfig(parallelism=parallelism)
