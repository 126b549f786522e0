"""Arrival models: determinism, shape, trace round-trip, factory."""

import numpy as np
import pytest

from repro.core.errors import ServiceError
from repro.load import (
    MODEL_NAMES,
    BurstArrivals,
    DiurnalArrivals,
    FlashCrowdArrivals,
    PoissonArrivals,
    TraceReplay,
    build_model,
    write_trace,
)

REQUESTS = 500


def _models(requests=REQUESTS, seed=3):
    return [
        PoissonArrivals(requests, rate_hz=5.0, seed=seed),
        DiurnalArrivals(requests, rate_hz=5.0, seed=seed),
        FlashCrowdArrivals(requests, rate_hz=5.0, seed=seed),
        BurstArrivals(requests, seed=seed),
    ]


class TestDeterminism:
    def test_same_seed_identical_streams(self):
        for a, b in zip(_models(seed=7), _models(seed=7)):
            assert list(a.times()) == list(b.times()), a.name

    def test_times_restarts_from_seed(self):
        # Two calls on the SAME instance yield the identical sequence.
        for model in _models():
            assert list(model.times()) == list(model.times()), model.name

    def test_different_seeds_differ(self):
        for a, b in zip(_models(seed=1), _models(seed=2)):
            if isinstance(a, BurstArrivals):
                continue  # burst is seed-independent by construction
            assert list(a.times()) != list(b.times()), a.name

    def test_prefix_stability(self):
        # A longer run shares its prefix with a shorter one — chunked
        # draws must not depend on the total request count.
        short = PoissonArrivals(100, rate_hz=5.0, seed=3)
        long = PoissonArrivals(REQUESTS, rate_hz=5.0, seed=3)
        assert list(long.times())[:100] == list(short.times())


class TestShape:
    def test_counts_and_monotonicity(self):
        for model in _models():
            times = list(model.times())
            assert len(times) == REQUESTS, model.name
            assert all(
                b >= a for a, b in zip(times, times[1:])
            ), model.name

    def test_poisson_starts_at_zero(self):
        assert next(iter(PoissonArrivals(10, rate_hz=2.0).times())) == 0.0

    def test_burst_all_at_zero(self):
        assert list(BurstArrivals(5).times()) == [0.0] * 5

    def test_poisson_mean_rate(self):
        times = list(PoissonArrivals(5000, rate_hz=10.0, seed=0).times())
        rate = (len(times) - 1) / times[-1]
        assert rate == pytest.approx(10.0, rel=0.1)

    def test_flash_crowd_densifies_spike(self):
        model = FlashCrowdArrivals(
            4000,
            rate_hz=5.0,
            seed=0,
            flash_at_s=10.0,
            flash_duration_s=5.0,
            multiplier=10.0,
        )
        times = np.array(list(model.times()))
        in_spike = ((times >= 10.0) & (times < 15.0)).sum() / 5.0
        before = (times < 10.0).sum() / 10.0
        assert in_spike > 3 * before

    def test_diurnal_rate_varies_with_phase(self):
        model = DiurnalArrivals(
            6000, rate_hz=10.0, seed=0, period_s=100.0, depth=0.9
        )
        times = np.array(list(model.times()))
        phase = (times % 100.0) / 100.0
        peak = ((phase >= 0.1) & (phase < 0.4)).sum()
        trough = ((phase >= 0.6) & (phase < 0.9)).sum()
        assert peak > 2 * trough


class TestTrace:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        original = list(
            PoissonArrivals(200, rate_hz=8.0, seed=11).times()
        )
        assert write_trace(path, original) == 200
        replayed = list(TraceReplay(path).times())
        np.testing.assert_allclose(replayed, original, atol=1e-9)
        # A second write of the replay is byte-identical (stable
        # nanosecond rounding).
        path2 = str(tmp_path / "trace2.jsonl")
        write_trace(path2, replayed)
        assert open(path).read() == open(path2).read()

    def test_replay_respects_requests_cap(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        write_trace(path, [0.0, 1.0, 2.0, 3.0])
        assert list(TraceReplay(path, requests=2).times()) == [0.0, 1.0]

    def test_rejects_decreasing_times(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        path_obj = tmp_path / "bad.jsonl"
        path_obj.write_text('{"t": 1.0}\n{"t": 0.5}\n')
        with pytest.raises(ServiceError, match="non-decreasing"):
            TraceReplay(path)

    def test_rejects_malformed_lines(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        with pytest.raises(ServiceError):
            TraceReplay(str(bad))

    def test_missing_file(self):
        with pytest.raises(ServiceError, match="not found"):
            TraceReplay("/nonexistent/trace.jsonl")


class TestFactory:
    def test_builds_every_named_model(self, tmp_path):
        trace = str(tmp_path / "t.jsonl")
        write_trace(trace, [0.0, 0.5])
        for name in MODEL_NAMES:
            model = build_model(
                name, requests=2, rate_hz=4.0, seed=0, trace=trace
            )
            assert model.name == name
            assert len(list(model.times())) == 2

    def test_drops_none_and_irrelevant_knobs(self):
        # CLI callers forward every flag; irrelevant ones must not
        # reach the wrong constructor.
        model = build_model(
            "diurnal",
            requests=4,
            rate_hz=2.0,
            seed=0,
            period_s=60.0,
            depth=None,
            flash_at_s=5.0,
            multiplier=3.0,
        )
        assert model.period_s == 60.0

    def test_unknown_model(self):
        with pytest.raises(ServiceError, match="unknown arrival model"):
            build_model("zipf", requests=10)

    def test_trace_requires_file(self):
        with pytest.raises(ServiceError, match="needs a trace file"):
            build_model("trace", requests=10)


class TestValidation:
    def test_rejects_nonpositive_requests(self):
        with pytest.raises(ServiceError):
            PoissonArrivals(0, rate_hz=1.0)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ServiceError):
            PoissonArrivals(10, rate_hz=0.0)

    def test_rejects_bad_depth(self):
        with pytest.raises(ServiceError):
            DiurnalArrivals(10, rate_hz=1.0, depth=1.5)

    def test_rejects_sub_unit_multiplier(self):
        with pytest.raises(ServiceError):
            FlashCrowdArrivals(10, rate_hz=1.0, multiplier=0.5)
