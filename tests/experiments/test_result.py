"""The shared experiment-result contract: protocol, mixin, finish()."""

import json
from dataclasses import dataclass
from typing import Dict, List

import pytest

from repro.experiments.result import (
    ExperimentResult,
    ExperimentResultBase,
    finish,
)


@dataclass
class _FakeResult(ExperimentResultBase):
    value: int = 7
    failures: tuple = ()

    def summary(self) -> Dict[str, object]:
        return {"value": self.value, "b": 2, "a": 1}

    def render(self) -> str:
        return f"value is {self.value}"

    def gate_failures(self) -> List[str]:
        return list(self.failures)


class TestMixin:
    def test_protocol_conformance(self):
        assert isinstance(_FakeResult(), ExperimentResult)

    def test_to_json_sorted_and_deterministic(self):
        text = _FakeResult().to_json()
        assert json.loads(text) == {"value": 7, "b": 2, "a": 1}
        assert text.index('"a"') < text.index('"b"') < text.index('"value"')

    def test_default_gate_is_empty(self):
        class Bare(ExperimentResultBase):
            def summary(self):
                return {}

            def render(self):
                return ""

        assert Bare().gate_failures() == []


class TestFinish:
    def test_pass_prints_and_writes_artifact(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        code = finish(_FakeResult(), str(path), artifact_label="numbers")
        captured = capsys.readouterr()
        assert code == 0
        assert "value is 7" in captured.out
        assert f"numbers written to {path}" in captured.out
        assert captured.err == ""
        assert json.loads(path.read_text())["value"] == 7

    def test_fail_reports_each_violation_on_stderr(self, capsys):
        result = _FakeResult(failures=("first", "second"))
        code = finish(result)
        captured = capsys.readouterr()
        assert code == 1
        assert "FAIL: first" in captured.err
        assert "FAIL: second" in captured.err

    def test_no_json_path_writes_nothing(self, tmp_path, capsys):
        finish(_FakeResult())
        assert list(tmp_path.iterdir()) == []


class TestAdopters:
    """Every CLI-gated experiment result implements the protocol."""

    def test_arrival_sweep_result(self):
        from repro.experiments.arrivals import ArrivalSweepResult, ModeResult

        fast = ModeResult(
            mode="pipelined",
            served=2,
            latencies_s=[0.1, 0.2],
            reoptimizations=1,
            span_s=1.0,
        )
        slow = ModeResult(
            mode="serial",
            served=2,
            latencies_s=[0.3, 0.4],
            reoptimizations=2,
            span_s=2.0,
        )
        result = ArrivalSweepResult(
            serial=slow,
            pipelined=fast,
            requests=2,
            rate_hz=0.0,
            seed=0,
            coalesce_ratio=2.0,
        )
        assert isinstance(result, ExperimentResult)
        assert result.gate_failures() == []
        assert result.summary()["speedup"] == pytest.approx(2.0)
        # Flip the tails: pipelined worse than serial must gate.
        bad = ArrivalSweepResult(
            serial=fast, pipelined=slow, requests=2, rate_hz=0.0, seed=0
        )
        assert "exceeds" in bad.gate_failures()[0]

    def test_fleet_result(self):
        from repro.experiments.fleet import FleetResult

        good = FleetResult(
            shards=2,
            requests=4,
            seed=0,
            strategy="zone",
            interactive_total=2,
            interactive_served=2,
        )
        assert isinstance(good, ExperimentResult)
        assert good.gate_failures() == []
        bad = FleetResult(
            shards=2,
            requests=4,
            seed=0,
            strategy="zone",
            interactive_total=2,
            interactive_served=1,
        )
        assert "interactive SLO missed" in bad.gate_failures()[0]

    def test_degradation_result(self):
        from repro.experiments.degradation import DegradationResult

        def make(recovered, failures):
            return DegradationResult(
                pre_fault_median_snr_db=20.0,
                degraded_median_snr_db=12.0,
                recovered_median_snr_db=recovered,
                killed=("rs-2",),
                fault_time_s=1.0,
                reaction_latency_s=0.5,
                recovery_bound_db=4.0,
                reoptimize_failures=failures,
                faults_injected=1,
                seed=0,
            )

        good = make(recovered=18.0, failures=0)
        assert isinstance(good, ExperimentResult)
        assert good.gate_failures() == []
        assert good.summary()["recovered_within_bound"] is True
        assert make(recovered=10.0, failures=0).gate_failures()
        assert (
            "reoptimize failures"
            in make(recovered=18.0, failures=2).gate_failures()[0]
        )

    def test_load_result(self):
        from repro.load import LoadConfig, LoadHarness, PoissonArrivals

        result = LoadHarness(LoadConfig()).run(
            PoissonArrivals(50, rate_hz=20.0, seed=0)
        )
        assert isinstance(result, ExperimentResult)
