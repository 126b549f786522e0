"""Figure 4 — leveraging hardware heterogeneity (cost/size trade-offs).

The paper's hybrid study: extend mmWave coverage into the bedroom with
(i) a passive surface alone, (ii) a programmable surface alone, or
(iii) a hybrid — a passive sheet as a narrow-beam backhaul relaying the
AP beam to a small programmable panel that dynamically steers it across
the room.  For each strategy we sweep hardware size, measure the median
target-room SNR, and report the cost (Fig. 4b) and panel area (Fig. 4c)
needed to reach each SNR level.

Expected shape (the paper's): the hybrid needs a fraction of the
passive-only *size* and of the programmable-only *cost* for comparable
median SNR, because it exploits both designs' advantages at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.heatmap import Heatmap
from ..analysis.tables import render_table
from ..channel import live_configs
from ..em.steering import focus_configuration
from ..orchestrator.optimizers import Adam, Optimizer
from ..services import connectivity
from ..surfaces.panel import SurfacePanel
from .scenario import ApartmentScenario, CARRIER_HZ, build_scenario

#: Size sweeps (square panels, elements per side).
PASSIVE_ONLY_SIZES = (24, 36, 48, 72, 100)
PROGRAMMABLE_ONLY_SIZES = (8, 12, 16, 22, 30)
HYBRID_SIZES = ((32, 8), (48, 10), (64, 12), (80, 16), (96, 20))

#: SNR levels (dB) the Fig. 4b/4c curves are tabulated at.
TARGET_SNRS_DB = (10.0, 15.0, 20.0, 25.0)


@dataclass(frozen=True)
class SweepPoint:
    """One strategy/size measurement."""

    strategy: str
    sizes: Tuple[int, ...]          # elements per side, per panel
    total_elements: int
    cost_usd: float
    area_m2: float
    median_snr_db: float


@dataclass
class Fig4Result:
    """All sweep points plus the per-target summaries."""

    points: List[SweepPoint]
    heatmaps: Dict[str, Heatmap]

    def strategies(self) -> List[str]:
        """Strategy names in presentation order."""
        ordered = []
        for p in self.points:
            if p.strategy not in ordered:
                ordered.append(p.strategy)
        return ordered

    def cheapest_reaching(
        self, strategy: str, target_snr_db: float
    ) -> Optional[SweepPoint]:
        """Lowest-cost sweep point of a strategy reaching a target SNR."""
        candidates = [
            p
            for p in self.points
            if p.strategy == strategy and p.median_snr_db >= target_snr_db
        ]
        return min(candidates, key=lambda p: p.cost_usd) if candidates else None

    def smallest_reaching(
        self, strategy: str, target_snr_db: float
    ) -> Optional[SweepPoint]:
        """Smallest-area sweep point of a strategy reaching a target SNR."""
        candidates = [
            p
            for p in self.points
            if p.strategy == strategy and p.median_snr_db >= target_snr_db
        ]
        return min(candidates, key=lambda p: p.area_m2) if candidates else None

    def render_sweep(self) -> str:
        """The raw sweep as a table."""
        rows = [
            (
                p.strategy,
                "x".join(str(s) for s in p.sizes),
                p.total_elements,
                f"${p.cost_usd:,.2f}",
                f"{p.area_m2 * 1e4:.0f} cm^2",
                f"{p.median_snr_db:.1f}",
            )
            for p in self.points
        ]
        return render_table(
            ("strategy", "panel sides", "elements", "cost", "area", "median SNR (dB)"),
            rows,
            title="Figure 4 sweep: strategy/size vs median target-room SNR",
        )

    def render_targets(self) -> str:
        """Fig. 4b/4c: cost and size needed per median-SNR level."""
        rows = []
        for target in TARGET_SNRS_DB:
            row = [f"{target:.0f} dB"]
            for strategy in self.strategies():
                cheap = self.cheapest_reaching(strategy, target)
                small = self.smallest_reaching(strategy, target)
                if cheap is None:
                    row.append("unreached")
                else:
                    row.append(
                        f"${cheap.cost_usd:,.0f} / {small.area_m2 * 1e4:.0f} cm^2"
                    )
            rows.append(row)
        return render_table(
            ["median SNR"] + [f"{s} (cost/area)" for s in self.strategies()],
            rows,
            title="Figures 4b+4c: cost and area to reach a median SNR",
        )


def _panel_metrics(panels: Sequence[SurfacePanel]) -> Tuple[int, float, float]:
    total = sum(p.num_elements for p in panels)
    cost = sum(p.cost_usd for p in panels)
    area = sum(p.area_m2 for p in panels)
    return total, cost, area


def _median_snr_static(
    scenario: ApartmentScenario,
    panel: SurfacePanel,
    points: np.ndarray,
    optimizer: Optimizer,
    seed: int,
) -> Tuple[float, np.ndarray]:
    """Best static (single-configuration) coverage for one panel."""
    model = scenario.simulator.build(scenario.ap_node(), points, [panel])
    form = model.linear_form(panel.panel_id, {})
    objective = connectivity.coverage_objective(form, budget=scenario.budget)
    rng = np.random.default_rng(seed)
    # Warm start: focus at the room center, then refine.
    center = points.mean(axis=0)
    warm = focus_configuration(
        panel.element_positions(),
        panel.shape,
        scenario.ap.position,
        center,
        CARRIER_HZ,
    ).flat_phases()
    result = optimizer.optimize(objective, warm)
    x = np.exp(1j * result.phases)
    snrs = connectivity.snr_map_db(model, {panel.panel_id: x}, scenario.budget)
    return float(np.median(snrs)), snrs


def _median_snr_steered(
    scenario: ApartmentScenario,
    panels: Sequence[SurfacePanel],
    steer_panel: SurfacePanel,
    steer_source: np.ndarray,
    fixed_configs: Dict[str, np.ndarray],
    points: np.ndarray,
) -> Tuple[float, np.ndarray]:
    """Per-point dynamic steering: best stored beam per location.

    Models the programmable panel's data-plane behavior: one focus
    configuration per location (the beam codebook), selected by
    endpoint feedback; each grid point is evaluated under its beam.
    """
    model = scenario.simulator.build(scenario.ap_node(), points, panels)
    snrs = np.zeros(points.shape[0])
    for k in range(points.shape[0]):
        beam = focus_configuration(
            steer_panel.element_positions(),
            steer_panel.shape,
            steer_source,
            points[k],
            CARRIER_HZ,
        )
        configs = dict(fixed_configs)
        configs[steer_panel.panel_id] = (
            steer_panel.feasible(beam).coefficients().reshape(-1)
        )
        h = model.evaluate(configs)[k]
        snrs[k] = scenario.budget.snr_db(float(np.sum(np.abs(h) ** 2)))
    return float(np.median(snrs)), snrs


def run(
    scenario: Optional[ApartmentScenario] = None,
    optimizer: Optional[Optimizer] = None,
    passive_sizes: Sequence[int] = PASSIVE_ONLY_SIZES,
    programmable_sizes: Sequence[int] = PROGRAMMABLE_ONLY_SIZES,
    hybrid_sizes: Sequence[Tuple[int, int]] = HYBRID_SIZES,
    seed: int = 0,
) -> Fig4Result:
    """Run the three-strategy sweep."""
    scenario = scenario or build_scenario(grid_spacing_m=0.7)
    optimizer = optimizer or Adam(max_iterations=150, learning_rate=0.2)
    points = scenario.bedroom_grid()
    results: List[SweepPoint] = []
    heatmaps: Dict[str, Heatmap] = {}

    for size in passive_sizes:
        # Passive sheets mount on the large living-room wall (the only
        # spot that fits square meters of printed surface); they must
        # flood the bedroom through the doorway wedge.
        panel = scenario.passive_panel(size, panel_id="passive-only")
        median, snrs = _median_snr_static(
            scenario, panel, points, optimizer, seed
        )
        total, cost, area = _panel_metrics([panel])
        results.append(
            SweepPoint("passive-only", (size,), total, cost, area, median)
        )
        heatmaps[f"passive-only-{size}"] = Heatmap(points, snrs)

    for size in programmable_sizes:
        panel = scenario.relay_panel(size, panel_id="prog-only")
        median, snrs = _median_snr_steered(
            scenario,
            [panel],
            panel,
            scenario.ap.position,
            {},
            points,
        )
        total, cost, area = _panel_metrics([panel])
        results.append(
            SweepPoint("programmable-only", (size,), total, cost, area, median)
        )
        heatmaps[f"programmable-only-{size}"] = Heatmap(points, snrs)

    for passive_size, prog_size in hybrid_sizes:
        passive = scenario.passive_panel(passive_size)
        prog = scenario.programmable_panel(prog_size)
        # The passive backhaul: a fabricated lens focusing the AP beam
        # onto the programmable panel.
        backhaul = focus_configuration(
            passive.element_positions(),
            passive.shape,
            scenario.ap.position,
            prog.center,
            CARRIER_HZ,
        )
        passive.actuate(backhaul)
        fixed = live_configs([passive])
        median, snrs = _median_snr_steered(
            scenario,
            [passive, prog],
            prog,
            passive.center,
            fixed,
            points,
        )
        total, cost, area = _panel_metrics([passive, prog])
        results.append(
            SweepPoint(
                "hybrid", (passive_size, prog_size), total, cost, area, median
            )
        )
        heatmaps[f"hybrid-{passive_size}x{prog_size}"] = Heatmap(points, snrs)

    return Fig4Result(points=results, heatmaps=heatmaps)
