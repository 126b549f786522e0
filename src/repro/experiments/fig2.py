"""Figure 2 — a coverage-maximizing configuration disrupts localization.

Reproduces the paper's motivating example: one surface extends mmWave
coverage from the AP into the target room; the configuration that
maximizes coverage produces a *good* RSS heatmap and a *bad*
localization-error heatmap over the same space, because the
configuration scrambles the spatial structure the (surface-unaware)
localization algorithm relies on (§2.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..analysis.heatmap import Heatmap
from ..orchestrator.optimizers import Adam, Optimizer, panel_projection
from ..services import connectivity, sensing
from .scenario import ApartmentScenario, CARRIER_HZ, build_scenario

#: Panel used for the motivating example (bedroom relay site).
PANEL_SIZE = 24

#: Error cap: nothing is "more lost" than the room diagonal.
ERROR_CAP_M = 5.0


@dataclass
class Fig2Result:
    """Both heatmaps plus summary statistics."""

    rss_heatmap: Heatmap
    localization_heatmap: Heatmap
    median_rss_dbm: float
    median_error_m: float
    reference_error_m: float  # same panel, spatial-info-preserving config

    def render(self) -> str:
        """Both heatmaps as text."""
        parts = [
            self.rss_heatmap.render(title="(a) Coverage heatmap (dBm)"),
            "",
            self.localization_heatmap.render(
                title="(b) Localization error heatmap (m)"
            ),
            "",
            (
                f"median RSS {self.median_rss_dbm:.1f} dBm | median "
                f"localization error {self.median_error_m:.2f} m "
                f"(vs {self.reference_error_m:.2f} m for a localization-"
                "friendly configuration of the same panel)"
            ),
        ]
        return "\n".join(parts)


def run(
    scenario: Optional[ApartmentScenario] = None,
    optimizer: Optional[Optimizer] = None,
    panel_size: int = PANEL_SIZE,
    seed: int = 0,
) -> Fig2Result:
    """Optimize for coverage only, then evaluate both services."""
    scenario = scenario or build_scenario(grid_spacing_m=0.5)
    optimizer = optimizer or Adam(max_iterations=150, learning_rate=0.2)
    panel = scenario.relay_panel(panel_size)
    points = scenario.bedroom_grid()
    model = scenario.simulator.build(scenario.ap_node(), points, [panel])
    rng = np.random.default_rng(seed)

    # Coverage-only optimization (the paper's premise).
    form = model.linear_form(panel.panel_id, {})
    coverage = connectivity.coverage_objective(form, budget=scenario.budget)
    result = optimizer.optimize(
        coverage,
        rng.uniform(0, 2 * np.pi, coverage.dim),
        projection=panel_projection(panel),
    )
    x = np.exp(1j * result.phases)
    configs = {panel.panel_id: x}

    rss = connectivity.rss_map_dbm(model, configs, scenario.budget)

    estimator = sensing.AoAEstimator(
        panel,
        sensing.surface_illumination(model, panel.panel_id),
        sensing.AngleGrid.uniform(count=61),
        CARRIER_HZ,
    )
    errors = sensing.measure_localization_errors(
        model,
        panel.panel_id,
        configs,
        estimator,
        scenario.budget,
        rng=rng,
        cap_m=ERROR_CAP_M,
    )

    # Reference: the same panel configured to preserve spatial structure
    # (conjugate of the AP illumination) — what sensing wishes it had.
    reference_x = np.exp(-1j * np.angle(estimator.illumination))
    reference_errors = sensing.measure_localization_errors(
        model,
        panel.panel_id,
        {panel.panel_id: reference_x},
        estimator,
        scenario.budget,
        rng=rng,
        cap_m=ERROR_CAP_M,
    )

    return Fig2Result(
        rss_heatmap=Heatmap(points, rss),
        localization_heatmap=Heatmap(points, errors),
        median_rss_dbm=float(np.median(rss)),
        median_error_m=float(np.median(errors)),
        reference_error_m=float(np.median(reference_errors)),
    )
