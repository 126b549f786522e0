"""Parallel evaluation must not perturb the simulation.

Two identical workloads that differ only in ``parallelism`` must leave
byte-identical sim-only telemetry behind: same admissions, same solves,
same objective values, same task states. The chunk grid used by
``BatchEvaluator`` depends only on its chunk size, never on the worker
count, so no floating-point reduction ever crosses a worker boundary.
The search population spans two chunks, so a multi-worker run really
splits every candidate batch across threads.
"""

import json

from repro.broker import ApplicationDemand
from repro.pipeline import PipelineConfig
from repro.pipeline.workers import DEFAULT_EVAL_CHUNK

from .conftest import build_kernel


def _workload(parallelism, path):
    """Run the seeded workload; returns the system and its evaluator."""
    system = build_kernel(clients=4, seed=7)
    system.orchestrator.optimizer.population = 2 * DEFAULT_EVAL_CHUNK
    pipeline = system.attach_pipeline(
        PipelineConfig(parallelism=parallelism, coalesce_window_s=0.2)
    )
    apps = ["video_streaming", "online_meeting", "file_transfer", "iot_hub"]
    try:
        for i, app in enumerate(apps):
            pipeline.submit(
                ApplicationDemand(
                    app_name=app,
                    client_id=f"cl-{i}",
                    room_id="bedroom",
                    throughput_mbps=20.0 - i,
                    priority=5 + (i % 3),
                )
            )
        pipeline.run(steps=8, dt=0.1)
        # A mid-run perturbation so the second solve sees a dirty set.
        system.hardware.client("cl-0").move_to((5.4, 1.3, 1.0))
        system.orchestrator.refresh_client_tasks("cl-0")
        pipeline.note_trigger("endpoint-moved")
        pipeline.run(steps=4, dt=0.1)
    finally:
        pipeline.close()
    system.telemetry.export_jsonl(path, sim_only=True)
    return system, pipeline.evaluator


def test_parallel_4_matches_serial_byte_for_byte(tmp_path):
    serial_path = tmp_path / "serial.jsonl"
    parallel_path = tmp_path / "parallel.jsonl"
    _workload(1, serial_path)
    _, evaluator = _workload(4, parallel_path)
    # The gate only means something if the pool split batches.
    assert evaluator.parallelism == 4
    assert evaluator.chunks_evaluated > evaluator.batches
    serial = serial_path.read_bytes()
    parallel = parallel_path.read_bytes()
    assert len(serial) > 0
    assert serial == parallel


def test_same_seed_same_outcome_summary(tmp_path):
    a, _ = _workload(1, tmp_path / "a.jsonl")
    b, _ = _workload(1, tmp_path / "b.jsonl")
    sa = a.telemetry.snapshot()
    sb = b.telemetry.snapshot()
    assert sa.counters == sb.counters


def test_exported_records_are_valid_jsonl(tmp_path):
    path = tmp_path / "run.jsonl"
    _workload(2, path)
    lines = path.read_text().splitlines()
    assert lines
    for line in lines:
        record = json.loads(line)
        assert "kind" in record
