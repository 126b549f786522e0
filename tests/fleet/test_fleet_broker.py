"""FleetBroker: routing, spill, saturation backpressure, handoff."""

import pytest

from repro.broker import (
    ApplicationDemand,
    HandleStatus,
    RequestStatus,
    ServiceResponse,
)
from repro.core.errors import ServiceError
from repro.fleet import LeastLoaded, RoutingDecision

from .conftest import make_fleet


def demand(i=0, zone="z1", app="video_streaming", priority=6):
    return ApplicationDemand(
        app_name=app,
        client_id=f"{zone}:cl-{i}",
        room_id="bedroom",
        throughput_mbps=10.0,
        priority=priority,
    )


class TestRouting:
    def test_zone_request_lands_on_zone_shard(self, fleet):
        handle = fleet.register_application(demand(zone="z2"))
        assert handle.status is HandleStatus.ADMITTED
        assert handle.routing.shard_id == "z2"
        assert not handle.routing.fallback_used
        assert fleet.shard_of("video_streaming", "z2:cl-0").shard_id == "z2"

    def test_response_carries_routing_decision(self, fleet):
        handle = fleet.submit(demand(zone="z3"))
        assert isinstance(handle.routing, RoutingDecision)
        assert handle.routing.shard_id == "z3"
        assert handle.routing.strategy == "static-zone"
        assert handle.routing.candidates[0] == "z3"

    def test_routing_is_deterministic_per_seed(self):
        placements = []
        for _ in range(2):
            fleet = make_fleet(strategy=LeastLoaded())
            handles = [
                fleet.submit(demand(i, zone=f"z{1 + i % 3}"))
                for i in range(6)
            ]
            placements.append(
                [h.routing.shard_id for h in handles]
            )
        assert placements[0] == placements[1]

    def test_fleet_duplicate_rejected_across_shards(self, fleet):
        fleet.register_application(demand())
        with pytest.raises(ServiceError, match="already served by fleet"):
            fleet.register_application(demand())

    def test_rejection_counts_in_telemetry(self, fleet):
        fleet.register_application(demand())
        response = fleet.serve(
            __import__(
                "repro.broker.calls", fromlist=["ServiceRequest"]
            ).ServiceRequest(demand=demand())
        )
        assert response.status is RequestStatus.REJECTED
        assert fleet.telemetry.get_counter("fleet.rejected") == 1


class TestSpillOnQuarantine:
    def test_quarantined_home_shard_spills_to_fallback(self, fleet):
        fleet.quarantine_shard("z1")
        handle = fleet.register_application(demand(zone="z1"))
        assert handle.status is HandleStatus.ADMITTED
        assert handle.routing.shard_id != "z1"
        assert handle.routing.fallback_used
        assert fleet.telemetry.get_counter("fleet.spilled") == 1

    def test_interactive_request_survives_quarantine(self, fleet):
        fleet.quarantine_shard("z2")
        interactive = ApplicationDemand(
            app_name="cloud_gaming",
            client_id="z2:headset",
            room_id="bedroom",
            throughput_mbps=30.0,
            latency_ms=10.0,
            priority=8,
        )
        handle = fleet.submit(interactive)
        assert handle.status is HandleStatus.QUEUED
        fleet.run(6, dt=0.1)
        assert handle.status is HandleStatus.RUNNING

    def test_all_quarantined_rejects_with_reason(self, fleet):
        for sid in ("z1", "z2", "z3"):
            fleet.quarantine_shard(sid)
        handle = fleet.submit(demand())
        assert handle.status is HandleStatus.REJECTED
        assert "quarantined" in handle.reason
        with pytest.raises(ServiceError, match="quarantined"):
            fleet.register_application(demand(1))

    def test_reinstate_restores_placement(self, fleet):
        fleet.quarantine_shard("z1")
        fleet.reinstate_shard("z1")
        handle = fleet.register_application(demand(zone="z1"))
        assert handle.routing.shard_id == "z1"
        assert not handle.routing.fallback_used


class TestSaturationBackpressure:
    def test_saturated_queue_rejects_with_reason_not_raise(self):
        fleet = make_fleet(queue_capacity=1)
        first = fleet.submit(demand(0))
        assert first.status is HandleStatus.QUEUED
        second = fleet.submit(demand(1))
        assert second.status is HandleStatus.REJECTED
        assert "queue full" in second.reason
        assert second.routing.shard_id == "z1"

    def test_submit_request_returns_rejected_response(self):
        from repro.broker.calls import ServiceRequest

        fleet = make_fleet(queue_capacity=1)
        fleet.submit(demand(0))
        response = fleet.submit_request(
            ServiceRequest(demand=demand(1))
        )
        assert isinstance(response, ServiceResponse)
        assert response.status is RequestStatus.REJECTED
        assert "queue full" in response.reason
        assert response.routing is not None


class TestHandoff:
    def test_handoff_moves_application(self, fleet):
        handle = fleet.submit(demand(zone="z1"))
        fleet.run(6, dt=0.1)
        assert handle.status is HandleStatus.RUNNING
        moved = fleet.handoff("video_streaming", "z1:cl-0", "z3")
        assert moved.routing.shard_id == "z3"
        assert moved.routing.strategy == "handoff"
        assert fleet.shard_of("video_streaming", "z1:cl-0").shard_id == "z3"
        assert handle.status is HandleStatus.STOPPED
        assert fleet.telemetry.get_counter("fleet.rebalanced") == 1
        fleet.run(4, dt=0.1)
        assert moved.status is HandleStatus.RUNNING

    def test_handoff_to_quarantined_shard_raises(self, fleet):
        fleet.register_application(demand(zone="z1"))
        fleet.quarantine_shard("z3")
        with pytest.raises(ServiceError, match="quarantined"):
            fleet.handoff("video_streaming", "z1:cl-0", "z3")

    def test_handoff_same_shard_is_noop(self, fleet):
        handle = fleet.register_application(demand(zone="z1"))
        again = fleet.handoff("video_streaming", "z1:cl-0", "z1")
        assert again is handle
        assert fleet.telemetry.get_counter("fleet.rebalanced") == 0
