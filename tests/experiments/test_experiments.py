"""Fast smoke tests for the experiment modules (small parameters).

The benchmarks run the full-size experiments; these tests check the
result plumbing — shapes, renderers, derived statistics — at a fraction
of the cost so plain ``pytest tests/`` stays quick.
"""

import numpy as np
import pytest

from repro.experiments import (
    arrivals,
    build_scenario,
    fig2,
    fig4,
    fig5,
    fig6,
    table1,
)
from repro.orchestrator import Adam


@pytest.fixture(scope="module")
def small_scenario():
    return build_scenario(grid_spacing_m=1.0)


@pytest.fixture(scope="module")
def fast_optimizer():
    return Adam(max_iterations=40, learning_rate=0.2)


class TestScenario:
    def test_builder_shape(self, small_scenario):
        assert small_scenario.env.room("bedroom") is not None
        assert small_scenario.ap.num_antennas == 4
        grid = small_scenario.bedroom_grid()
        assert grid.shape[1] == 3
        panel = small_scenario.relay_panel(8)
        assert panel.num_elements == 64

    def test_panel_factories_sites(self, small_scenario):
        passive = small_scenario.passive_panel(8)
        prog = small_scenario.programmable_panel(8)
        assert passive.spec.is_passive
        assert prog.spec.reconfigurable
        assert not np.allclose(passive.center, prog.center)


class TestTable1:
    def test_render_contains_all_rows(self):
        result = table1.run()
        text = result.render()
        for name in ("LAIA", "Scrolls", "AutoMS"):
            assert name in text


class TestFig2:
    def test_small_run(self, small_scenario, fast_optimizer):
        result = fig2.run(
            scenario=small_scenario, optimizer=fast_optimizer, panel_size=16
        )
        assert result.median_error_m > result.reference_error_m
        text = result.render()
        assert "Coverage heatmap" in text
        assert "Localization error heatmap" in text


class TestFig4:
    def test_small_sweep(self, fast_optimizer):
        result = fig4.run(
            optimizer=fast_optimizer,
            passive_sizes=(24,),
            programmable_sizes=(12,),
            hybrid_sizes=((32, 8),),
        )
        strategies = {p.strategy for p in result.points}
        assert strategies == {"passive-only", "programmable-only", "hybrid"}
        assert "median SNR" in result.render_sweep()
        assert "cost and area" in result.render_targets()

    def test_reaching_helpers(self, fast_optimizer):
        result = fig4.run(
            optimizer=fast_optimizer,
            passive_sizes=(24,),
            programmable_sizes=(12,),
            hybrid_sizes=((32, 8),),
        )
        cheap = result.cheapest_reaching("programmable-only", -100.0)
        assert cheap is not None
        assert result.cheapest_reaching("programmable-only", 99.0) is None


class TestFig5:
    def test_small_run(self, fast_optimizer):
        result = fig5.run(optimizer=fast_optimizer, panel_size=16)
        assert set(result.error_cdfs) == {
            "Coverage Opt",
            "Localization Opt",
            "Multi-tasking",
        }
        assert set(result.snr_cdfs) == set(result.error_cdfs)
        assert "CDF over locations" in result.render()


class TestFig6:
    def test_paper_cases_only(self):
        result = fig6.run(include_extra=False)
        assert len(result.cases) == 2
        assert result.all_match

    def test_render(self):
        text = fig6.run().render()
        assert "User Input:" in text


class TestArrivals:
    def test_pipelined_wall_time_is_measured(self):
        """One solve serves the burst; both arms time their real solves."""
        result = arrivals.run(requests=2)
        assert result.pipelined.reoptimizations == 1
        assert result.serial.reoptimizations == 2
        assert result.pipelined.served == result.serial.served == 2
        assert result.serial.wall_s > 0.0
        assert result.pipelined.wall_s > 0.0
        # The pipelined latency is the sim settle plus the measured wall.
        assert result.pipelined.p99_latency_s >= result.pipelined.wall_s

    def test_serial_latency_is_a_running_sum(self):
        serial = arrivals.run_serial(requests=3)
        latencies = serial.latencies_s
        assert latencies == sorted(latencies)
        assert latencies[-1] == pytest.approx(serial.span_s)
        # Each request waits for every solve before its own.
        assert serial.span_s >= serial.wall_s > 0.0
