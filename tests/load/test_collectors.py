"""Collectors: streaming percentiles vs numpy, counts, summaries."""

import numpy as np
import pytest

from repro.load.collectors import (
    LATENCY_BUCKET_S,
    CollectorSet,
    LatencyCollector,
    QueueDepthCollector,
    SatisfactionCollector,
)
from repro.pipeline import CoalescingCore, PriorityClass
from repro.telemetry import Telemetry
from repro.telemetry.histogram import StreamingHistogram


class TestHistogramAccuracy:
    @pytest.mark.parametrize("q", [50.0, 99.0, 99.9])
    def test_percentiles_within_one_bucket_of_numpy(self, q):
        # The acceptance bar: at 1e5 samples every reported percentile
        # sits within one bucket width of the exact order statistic
        # (inverted-CDF — the rank convention the sketch implements).
        rng = np.random.default_rng(0)
        samples = rng.gamma(shape=2.0, scale=0.05, size=100_000)
        hist = StreamingHistogram(LATENCY_BUCKET_S, 8192)
        for value in samples:
            hist.observe(float(value))
        exact = float(np.percentile(samples, q, method="inverted_cdf"))
        delta = hist.percentile(q) - exact
        # The sketch reports bucket upper edges: an upper bound, off by
        # at most one bucket.
        assert 0.0 <= delta <= LATENCY_BUCKET_S

    def test_overflow_clamps_to_edge(self):
        hist = StreamingHistogram(0.001, 10)
        hist.observe(5.0)
        assert hist.percentile(99.0) == pytest.approx(0.01)
        assert hist.overflow == 1


class TestLatencyCollector:
    def test_per_class_isolation(self):
        collector = LatencyCollector()
        collector.observe(PriorityClass.INTERACTIVE, 0.010)
        collector.observe(PriorityClass.BULK, 1.0)
        assert collector.p99(PriorityClass.INTERACTIVE) < 0.02
        assert collector.p99(PriorityClass.BULK) > 0.9
        assert collector.overall.count == 2

    def test_summary_prefixes(self):
        collector = LatencyCollector()
        collector.observe(PriorityClass.NORMAL, 0.05)
        summary = collector.summary()
        assert "latency_s.count" in summary
        assert "latency_s.normal.count" in summary
        # Classes with no traffic stay out of the summary.
        assert "latency_s.bulk.count" not in summary


class TestSatisfaction:
    def test_rate_counts_only_served(self):
        sat = SatisfactionCollector()
        for _ in range(10):
            sat.observe_submitted()
        for _ in range(7):
            sat.observe_served(PriorityClass.NORMAL)
        sat.observe_rejected()
        assert sat.rate == pytest.approx(0.7)
        assert sat.summary()["rejected"] == 1
        assert sat.summary()["served.normal"] == 7

    def test_empty_rate_is_zero(self):
        assert SatisfactionCollector().rate == 0.0


class TestQueueDepth:
    def test_depth_summary(self):
        collector = QueueDepthCollector()
        for depth in [0, 1, 2, 50]:
            collector.observe(depth)
        summary = collector.summary()
        assert summary["queue_depth.count"] == 4
        assert summary["queue_depth.max"] == 50


class TestReoptimization:
    """Solve counters are the coalescing core's; the set sums the cost."""

    def test_coalesce_ratio(self):
        collectors = CollectorSet()
        core = collectors.core
        for _ in range(6):
            core.note_trigger(0.0)
        for window in (0.2, 0.0):
            core.solved(0.0, window, served_at=0.1, cost_s=0.1)
            collectors.on_solve(cost_s=0.1)
        assert core.reoptimizations == 2
        assert core.triggers == 6
        assert core.coalesce_ratio == pytest.approx(3.0)
        summary = collectors.summary()
        assert summary["max_window_s"] == pytest.approx(0.2)
        assert summary["mean_window_s"] == pytest.approx(0.1)
        assert summary["solve_cost_s"] == pytest.approx(0.2)

    def test_no_solves_ratio_is_zero(self):
        assert CoalescingCore().coalesce_ratio == 0.0


class TestCollectorSet:
    def test_fanout_and_telemetry_mirror(self):
        telemetry = Telemetry()
        collectors = CollectorSet(telemetry)
        collectors.on_submitted(queue_depth=1)
        collectors.core.note_trigger(0.0)
        collectors.on_trigger()
        collectors.core.solved(0.0, 0.0, served_at=0.06, cost_s=0.05)
        collectors.on_solve(cost_s=0.05)
        collectors.on_served(PriorityClass.INTERACTIVE, 0.06)
        collectors.on_submitted(queue_depth=2)
        collectors.on_rejected()
        assert telemetry.get_counter("load.submitted") == 2
        assert telemetry.get_counter("load.rejected") == 1
        assert telemetry.get_counter("load.triggers") == 1
        assert telemetry.get_counter("load.reoptimizations") == 1
        summary = collectors.summary()
        assert summary["submitted"] == 2
        assert summary["served"] == 1
        assert summary["satisfaction"] == pytest.approx(0.5)
        assert "latency_s.p99" in summary
        assert summary["coalesce_ratio"] == pytest.approx(1.0)

    def test_unbound_telemetry_is_silent(self):
        collectors = CollectorSet()
        collectors.on_submitted(queue_depth=0)
        collectors.on_served(PriorityClass.NORMAL, 0.01)
        assert collectors.satisfaction.rate == 1.0
