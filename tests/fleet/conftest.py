"""Shared fixtures for the fleet tier tests."""

import pytest

from repro.broker.calls import reset_request_counter
from repro.fleet import FleetBroker, ShardSpec, StaticZoneMap
from repro.orchestrator.tasks import reset_task_counter


def make_specs(n=3, seed=0, panel_size=4, queue_capacity=8):
    return [
        ShardSpec(
            shard_id=f"z{i}",
            zone=f"z{i}",
            seed=seed + i,
            panel_size=panel_size,
            queue_capacity=queue_capacity,
        )
        for i in range(1, n + 1)
    ]


def make_fleet(n=3, strategy=None, **spec_kw):
    reset_task_counter()
    reset_request_counter()
    if strategy is None:
        strategy = StaticZoneMap(
            {f"z{i}": f"z{i}" for i in range(1, n + 1)}
        )
    return FleetBroker(make_specs(n, **spec_kw), strategy=strategy)


@pytest.fixture()
def fleet():
    return make_fleet()
