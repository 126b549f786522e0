"""Load harness: determinism, SLO gating, protocol conformance."""

import json

import pytest

from repro.core.errors import ServiceError
from repro.experiments.result import ExperimentResult
from repro.load import (
    BurstArrivals,
    FlashCrowdArrivals,
    LoadConfig,
    LoadHarness,
    PoissonArrivals,
    SLOPolicy,
)
from repro.pipeline import AdaptiveCoalesceConfig


def _run(model=None, config=None, slo=None, jsonl=None):
    model = model or PoissonArrivals(2000, rate_hz=20.0, seed=0)
    return LoadHarness(config or LoadConfig()).run(
        model, slo=slo, jsonl=jsonl
    )


class TestDeterminism:
    def test_same_seed_identical_summaries(self):
        a = _run().summary()
        b = _run().summary()
        assert a == b

    def test_same_seed_byte_identical_jsonl(self, tmp_path):
        path_a = str(tmp_path / "a.jsonl")
        path_b = str(tmp_path / "b.jsonl")
        _run(jsonl=path_a)
        _run(jsonl=path_b)
        assert open(path_a, "rb").read() == open(path_b, "rb").read()

    def test_different_seed_differs(self):
        a = _run(PoissonArrivals(2000, rate_hz=20.0, seed=0)).summary()
        b = _run(PoissonArrivals(2000, rate_hz=20.0, seed=1)).summary()
        assert a != b

    def test_wall_time_never_serialized(self):
        result = _run()
        assert result.wall_s > 0
        assert "wall_s" not in json.loads(result.to_json())


class TestBehavior:
    def test_all_served_at_moderate_rate(self):
        result = _run()
        sat = result.collectors.satisfaction
        assert sat.submitted == 2000
        assert sat.total_served == 2000
        assert sat.rejected == 0
        assert result.throughput_rps > 0

    def test_coalescing_merges_burst(self):
        result = _run(BurstArrivals(32))
        reopt = result.collectors.core
        # One batch admission per max_batch chunk, but far fewer
        # solves than requests.
        assert reopt.reoptimizations < 32
        assert reopt.coalesce_ratio >= 1.0

    def test_flash_crowd_degrades_not_collapses(self):
        model = FlashCrowdArrivals(
            3000, rate_hz=20.0, seed=0, multiplier=10.0
        )
        result = _run(model)
        assert result.collectors.satisfaction.rate > 0.5

    def test_fixed_window_config(self):
        config = LoadConfig(
            adaptive=AdaptiveCoalesceConfig(min_window_s=0.2, max_window_s=0.2)
        )
        result = _run(config=config)
        assert result.config["coalescing"] == "fixed"
        reopt = result.collectors.core
        assert reopt.window_max_s == pytest.approx(0.2)

    def test_tiny_queue_rejects(self):
        config = LoadConfig(queue_capacity=1, max_batch=1)
        result = _run(BurstArrivals(50), config=config)
        assert result.collectors.satisfaction.rejected > 0


class TestGating:
    def test_slo_pass_and_fail(self):
        passing = _run(slo=SLOPolicy.parse("satisfaction=0.5"))
        assert passing.gate_failures() == []
        failing = _run(slo=SLOPolicy.parse("interactive=0.0001"))
        assert failing.gate_failures()
        assert failing.summary()["slo.ok"] is False

    def test_no_slo_means_no_gate(self):
        assert _run().gate_failures() == []

    def test_protocol_conformance(self):
        result = _run(slo=SLOPolicy.parse("satisfaction=0.5"))
        assert isinstance(result, ExperimentResult)
        assert "Load run" in result.render()
        assert json.loads(result.to_json())["submitted"] == 2000


class TestValidation:
    def test_config_rejects_bad_values(self):
        with pytest.raises(ServiceError):
            LoadConfig(queue_capacity=0)
        with pytest.raises(ServiceError):
            LoadConfig(max_batch=0)
        with pytest.raises(ServiceError):
            LoadConfig(base_solve_cost_s=-1.0)
        with pytest.raises(ServiceError):
            LoadConfig(class_mix=(1.0, 1.0))
        with pytest.raises(ServiceError):
            LoadConfig(class_mix=(0.0, 0.0, 0.0))

    def test_class_mix_respected(self):
        config = LoadConfig(class_mix=(1.0, 0.0, 0.0))
        result = _run(config=config)
        served = result.collectors.satisfaction.served
        total = result.collectors.satisfaction.total_served
        assert served[list(served)[0]] == total  # all interactive
