"""A seeded pipeline workload must not vary between runs.

Two runs of one seeded workload must leave byte-identical sim-only
telemetry behind: same admissions, same solves, same objective values,
same task states.
"""

import json

from repro.broker import ApplicationDemand
from repro.pipeline import PipelineConfig

from .conftest import build_kernel


def _workload(path, population=None):
    """Run the seeded workload and export its sim-only telemetry."""
    system = build_kernel(clients=4, seed=7)
    if population is not None:
        system.orchestrator.optimizer.population = population
    pipeline = system.attach_pipeline(PipelineConfig(coalesce_window_s=0.2))
    apps = ["video_streaming", "online_meeting", "file_transfer", "iot_hub"]
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
    system.telemetry.export_jsonl(path, sim_only=True)
    return system


def test_same_seed_same_outcome_summary(tmp_path):
    a = _workload(tmp_path / "a.jsonl")
    b = _workload(tmp_path / "b.jsonl")
    sa = a.telemetry.snapshot()
    sb = b.telemetry.snapshot()
    assert sa.counters == sb.counters
    first = (tmp_path / "a.jsonl").read_bytes()
    assert len(first) > 0
    assert (tmp_path / "b.jsonl").read_bytes() == first


def test_exported_records_are_valid_jsonl(tmp_path):
    path = tmp_path / "run.jsonl"
    _workload(path)
    lines = path.read_text().splitlines()
    assert lines
    for line in lines:
        record = json.loads(line)
        assert "kind" in record


def test_population_wider_than_sixteen_repeats(tmp_path):
    # A 32-row population is scored in one value_many call per iteration.
    _workload(tmp_path / "a.jsonl", population=32)
    _workload(tmp_path / "b.jsonl", population=32)
    first = (tmp_path / "a.jsonl").read_bytes()
    assert len(first) > 0
    assert (tmp_path / "b.jsonl").read_bytes() == first
    _workload(tmp_path / "narrow.jsonl")
    assert (tmp_path / "narrow.jsonl").read_bytes() != first
