"""Offered-load sweeps: knee detection, determinism, CLI plumbing."""

import json

import pytest

from repro.cli import main
from repro.core.errors import ServiceError
from repro.load import LoadConfig, run_sweep
from repro.load.sweep import DEFAULT_SWEEP_RATES
from repro.pipeline import AdaptiveCoalesceConfig


RATES = (5.0, 20.0, 80.0)


def small_sweep(**kwargs):
    kwargs.setdefault("rates", RATES)
    kwargs.setdefault("requests_per_rate", 400)
    return run_sweep(**kwargs)


class TestValidation:
    def test_empty_ladder_rejected(self):
        with pytest.raises(ServiceError):
            run_sweep(rates=())

    def test_descending_ladder_rejected(self):
        with pytest.raises(ServiceError):
            run_sweep(rates=(20.0, 5.0))

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ServiceError):
            run_sweep(rates=(0.0, 5.0))

    def test_knee_factor_must_exceed_one(self):
        with pytest.raises(ServiceError):
            run_sweep(rates=RATES, knee_factor=1.0)


class TestSweep:
    def test_finds_the_saturation_knee(self):
        result = small_sweep()
        # The default cost model saturates inside this ladder: p99 at
        # the top rate is far beyond 2x the 5 req/s baseline.
        assert result.knee_rate_hz in RATES[1:]
        assert result.points[-1].p99_s > 2.0 * result.baseline_p99_s

    def test_no_knee_when_ladder_stays_low(self):
        result = run_sweep(
            rates=(1.0, 1.5), requests_per_rate=200, knee_factor=10.0
        )
        assert result.knee_rate_hz is None
        assert "no saturation knee" in result.render()

    def test_never_gated(self):
        assert small_sweep().gate_failures() == []

    def test_deterministic_across_repeats(self):
        assert small_sweep(seed=3).summary() == small_sweep(seed=3).summary()

    def test_summary_carries_every_point(self):
        result = small_sweep()
        points = result.summary()["sweep.points"]
        assert [p["rate_hz"] for p in points] == list(RATES)
        assert all("p99_s" in p for p in points)
        assert result.summary()["sweep.knee_rate_hz"] == result.knee_rate_hz

    def test_render_marks_the_knee(self):
        result = small_sweep()
        assert "<- knee" in result.render()
        assert "saturation knee at" in result.render()

    def test_respects_load_config(self):
        adaptive = small_sweep()
        fixed = small_sweep(
            config=LoadConfig(
                adaptive=AdaptiveCoalesceConfig(
                    min_window_s=0.5, max_window_s=0.5
                )
            )
        )
        # A long fixed window floors every latency at half a second.
        assert fixed.points[0].p50_s > adaptive.points[0].p50_s

    def test_default_ladder_is_ascending(self):
        assert list(DEFAULT_SWEEP_RATES) == sorted(DEFAULT_SWEEP_RATES)


class TestCLI:
    def test_sweep_writes_json_summary(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = main(
            [
                "load",
                "--sweep",
                "--sweep-rates",
                "5,20,80",
                "--requests",
                "400",
                "--json",
                str(out),
            ]
        )
        assert code == 0
        summary = json.loads(out.read_text())
        assert [p["rate_hz"] for p in summary["sweep.points"]] == [
            5.0,
            20.0,
            80.0,
        ]
        assert "Offered-load sweep" in capsys.readouterr().out

    def test_bad_sweep_rates_exit_2(self, capsys):
        code = main(["load", "--sweep", "--sweep-rates", "80,5"])
        assert code == 2
        assert "error:" in capsys.readouterr().err
