"""Self-tests of the benchmark's own arithmetic and tracing.

``run.py`` calls :func:`run_all` before every run, and
``python3 -m pytest surfbench/selftest.py`` collects the same tests.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for _path in (HERE, HERE.parent / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import spec  # noqa: E402
from spans import Tracer  # noqa: E402
from stats import (  # noqa: E402
    TooFewSamples,
    beyond,
    covered,
    failed_share,
    median,
    nearest_rank,
    ratio,
    self_time,
    tail_percentile,
)


def _raises(exc, fn, *args) -> bool:
    try:
        fn(*args)
    except exc:
        return True
    return False


def test_percentile_and_sample_count():
    values = list(range(1, 101))  # 1..100
    assert nearest_rank(values, 50) == 50
    assert nearest_rank(values, 90) == 90
    assert nearest_rank(values, 100) == 100
    assert nearest_rank([7.0], 90) == 7.0
    # Order does not matter; repeating the sample whole does not move it.
    assert nearest_rank(list(reversed(values)), 90) == 90
    assert nearest_rank(values * 3, 90) == 90
    assert tail_percentile(values, 90) == (90, 100)
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5


def test_ten_beyond_rule():
    assert beyond(100, 90) == 10
    assert beyond(99, 90) == 9
    assert beyond(200, 90) == 20
    assert tail_percentile(list(range(100)), 90)[1] == 100
    assert _raises(TooFewSamples, tail_percentile, list(range(99)), 90)
    assert _raises(TooFewSamples, tail_percentile, list(range(999)), 99)
    assert tail_percentile(list(range(1000)), 99)[0] == 989
    assert _raises(TooFewSamples, nearest_rank, [], 50)


def test_failed_share_accounting():
    # 2 rejected + 1 failed admission + 1 failed solve over 30 requests
    # offered and 10 triggers noted.
    assert failed_share(2, 1, 1, 30, 10) == 4 / 40
    assert failed_share(0, 0, 0, 0, 5) == 0.0
    assert _raises(ValueError, failed_share, 0, 0, 0, 0, 0)
    assert _raises(ValueError, failed_share, 3, 0, 0, 1, 1)


def test_self_time_nested_and_overlapping():
    assert self_time((0.0, 10.0), []) == 10.0
    # Nested children count once: (2, 6) already holds (3, 4).
    assert self_time((0.0, 10.0), [(2.0, 6.0), (3.0, 4.0)]) == 6.0
    # Overlapping children (other threads) are merged.
    assert self_time((0.0, 10.0), [(1.0, 5.0), (4.0, 7.0)]) == 4.0
    # Child time outside the parent is ignored.
    assert self_time((0.0, 10.0), [(-2.0, 1.0), (9.0, 12.0)]) == 8.0
    assert covered([(0.0, 1.0), (1.0, 2.0), (5.0, 5.0)]) == 2.0


def test_tracer_spans_and_restores():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original = Layer.__dict__["outer"]
    tracer = Tracer()
    tracer._wrap(Layer, "outer", "layer.outer")
    tracer._wrap(Layer, "inner", "layer.inner")
    assert Layer().outer() == 2 and not tracer.spans  # outside a unit
    root = tracer.begin_unit(0)
    assert Layer().outer() == 2
    tracer.end_unit(root)
    names = [(s.name, s.parent, s.unit) for s in tracer.spans]
    assert names == [("unit", -1, 0), ("layer.outer", 0, 0), ("layer.inner", 1, 0)]
    assert abs(
        tracer.self_s("unit") + tracer.covered_s("layer.outer")
        - (tracer.spans[0].end - tracer.spans[0].start)
    ) < 1e-12
    tracer.uninstall()
    assert Layer.__dict__["outer"] is original


def test_requests_vs_triggers_ratio():
    # Three demands admitted in one tick are three requests but one
    # admission trigger, and one coalesced solve serves them all.
    from repro.broker.profiles import demand_for
    from repro.core.kernel import SurfOS
    from repro.hwmgr.devices import ClientDevice
    from repro.orchestrator.optimizers import RandomSearch
    from repro.pipeline import PipelineConfig

    system = SurfOS.from_scene("apartment", optimizer=RandomSearch(max_iterations=2, seed=0))
    pipeline = system.attach_pipeline(PipelineConfig(coalesce_window_s=0.0))
    try:
        for i, x in enumerate((5.8, 6.8, 7.6)):
            system.add_client(ClientDevice(f"c{i}", (x, 2.0, 1.0)))
            pipeline.submit(demand_for("video_streaming", f"c{i}", "bedroom"))
        pipeline.tick(0.0)
        stats = pipeline.stats
        assert (len(stats.latencies), stats.triggers, stats.reoptimizations) == (3, 1, 1)
        assert ratio(len(stats.latencies), stats.reoptimizations) == 3.0
        assert ratio(stats.triggers, stats.reoptimizations) == 1.0
        assert ratio(5, 0) == 0.0
    finally:
        pipeline.close()


def test_churn_gaps_straddle_busy_threshold():
    # Lone arrivals must be solved on arrival and flash arrivals must
    # open the coalescing window, whatever the seed.
    import workloads

    threshold = workloads.BUSY_THRESHOLD_S
    assert abs(threshold - 0.0625) < 1e-12
    assert workloads.BASE_GAP_FLOOR_S > threshold > workloads.FLASH_GAP_S[1]
    arrivals = workloads.churn_inputs(7).arrivals
    gaps = [b.at_s - a.at_s for a, b in zip(arrivals, arrivals[1:])]
    assert len(arrivals) == workloads.CHURN_REQUESTS
    assert any(g > threshold for g in gaps) and any(g < threshold for g in gaps)
    assert workloads.churn_inputs(7) == workloads.churn_inputs(7)


def test_benchmark_json_matches_spec():
    path = HERE.parent / "BENCHMARK.json"
    if not path.exists():  # a bare copy of the benchmark directory
        return
    assert json.loads(path.read_text()) == spec.benchmark_json()
    for metric in spec.END_TO_END:
        assert 0.0 < metric.bound <= 0.25, metric.name
    assert any(m.name == "setup_s" and m.bound == max(x.bound for x in spec.END_TO_END)
               for m in spec.END_TO_END)


def run_all() -> None:
    """Run every test in this module; raises on the first failure."""
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            fn()


if __name__ == "__main__":
    run_all()
    print("surfbench self-tests passed")
