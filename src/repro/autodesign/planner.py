"""The deployment planner: goals → (design, site, size) plans (§5).

"Deployment automation involves running the simulator to model the
environment and optimize for placement as part of the surface hardware
configurations."  The planner enumerates candidate sites, pairs them
with database designs, grows the panel until the goal's SNR target is
met (or a constraint binds), and ranks the feasible plans by cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..channel.simulator import ChannelSimulator
from ..core.errors import ServiceError
from ..em.steering import focus_configuration
from ..geometry.environment import Environment
from ..hwmgr.devices import AccessPoint
from ..orchestrator.optimizers import Adam, Optimizer
from ..services import connectivity
from ..surfaces.panel import SurfacePanel
from ..surfaces.specs import SurfaceSpec
from .designdb import DesignQuery
from .requirements import DeploymentGoal
from .sites import CandidateSite, enumerate_sites, sites_facing_room, sites_seeing_point

#: Panel sides tried during the size search (elements per side).
DEFAULT_SIZE_LADDER = (8, 12, 16, 24, 32, 48, 64)


@dataclass(frozen=True)
class DeploymentPlan:
    """One feasible (or best-effort) deployment option.

    Attributes:
        spec: the chosen hardware design.
        site: where the panel mounts.
        side_elements: square panel side (elements).
        predicted_median_snr_db: simulator-predicted room median.
        cost_usd: hardware cost.
        area_m2: panel area.
        meets_target: whether the goal's SNR target is met.
    """

    spec: SurfaceSpec
    site: CandidateSite
    side_elements: int
    predicted_median_snr_db: float
    cost_usd: float
    area_m2: float
    meets_target: bool

    def describe(self) -> str:
        """One-line plan summary."""
        flag = "meets target" if self.meets_target else "best effort"
        return (
            f"{self.spec.design} {self.side_elements}x{self.side_elements} "
            f"@ {self.site.wall_name} ({self.site.center[0]:.1f}, "
            f"{self.site.center[1]:.1f}) → "
            f"{self.predicted_median_snr_db:.1f} dB median, "
            f"${self.cost_usd:,.2f}, {self.area_m2 * 1e4:.0f} cm^2 [{flag}]"
        )


class DeploymentPlanner:
    """Plans clean-slate surface deployments for a coverage goal."""

    def __init__(
        self,
        env: Environment,
        ap: AccessPoint,
        optimizer: Optional[Optimizer] = None,
        size_ladder: Sequence[int] = DEFAULT_SIZE_LADDER,
        site_spacing_m: float = 1.2,
        grid_spacing_m: float = 0.8,
        max_sites: int = 6,
    ):
        self.env = env
        self.ap = ap
        self.optimizer = optimizer or Adam(max_iterations=100, learning_rate=0.2)
        self.size_ladder = tuple(size_ladder)
        self.site_spacing_m = site_spacing_m
        self.grid_spacing_m = grid_spacing_m
        self.max_sites = max_sites

    # ------------------------------------------------------------------

    def candidate_sites(self, goal: DeploymentGoal) -> List[CandidateSite]:
        """Sites that both see the target room and hear the AP."""
        sites = enumerate_sites(self.env, spacing_m=self.site_spacing_m)
        sites = sites_facing_room(
            self.env, sites, goal.room_id, min_visible_fraction=0.3
        )
        sites = sites_seeing_point(
            self.env,
            sites,
            self.ap.position,
            max_loss_db=25.0,
            frequency_hz=goal.frequency_hz,
        )
        if not sites:
            raise ServiceError(
                f"no candidate site sees both room {goal.room_id!r} and the AP"
            )
        # Prefer sites closest to the AP (strongest illumination).
        sites.sort(
            key=lambda s: float(np.linalg.norm(s.center - self.ap.position))
        )
        return sites[: self.max_sites]

    def choose_designs(
        self, goal: DeploymentGoal, max_designs: int = 2
    ) -> List[SurfaceSpec]:
        """Candidate hardware designs for the goal (adapted if needed).

        Cheapest-per-element designs are not always cheapest overall
        (column-wise control needs more elements), so the planner
        compares a couple of candidates end to end.
        """
        query = DesignQuery(
            frequency_hz=goal.frequency_hz,
            reconfigurable=goal.require_reconfigurable,
        )
        from .designdb import adapt_design, select_designs

        matches = select_designs(query)
        if not matches:
            return [adapt_design(query)]
        return matches[:max_designs]

    # ------------------------------------------------------------------

    def _evaluate(
        self,
        goal: DeploymentGoal,
        spec: SurfaceSpec,
        site: CandidateSite,
        side: int,
        points: np.ndarray,
        simulator: ChannelSimulator,
    ) -> float:
        panel = SurfacePanel(
            "candidate", spec, side, side, site.center, site.normal
        )
        model = simulator.build(self.ap.node(), points, [panel])
        if spec.reconfigurable:
            # Dynamic steering: per-point best beam.
            snrs = np.zeros(points.shape[0])
            for k in range(points.shape[0]):
                beam = focus_configuration(
                    panel.element_positions(),
                    panel.shape,
                    self.ap.position,
                    points[k],
                    goal.frequency_hz,
                )
                x = panel.feasible(beam).coefficients().reshape(-1)
                h = model.evaluate({panel.panel_id: x})[k]
                snrs[k] = self.ap.budget.snr_db(float(np.sum(np.abs(h) ** 2)))
            return float(np.median(snrs))
        # Static: one optimized configuration for the whole room.
        form = model.linear_form(panel.panel_id, {})
        objective = connectivity.coverage_objective(
            form, budget=self.ap.budget
        )
        warm = focus_configuration(
            panel.element_positions(),
            panel.shape,
            self.ap.position,
            points.mean(axis=0),
            goal.frequency_hz,
        ).flat_phases()
        result = self.optimizer.optimize(objective, warm)
        return float(np.median(objective.snr_db(result.phases)))

    def plan(self, goal: DeploymentGoal, max_plans: int = 5) -> List[DeploymentPlan]:
        """Rank feasible deployments for a goal (cheapest first).

        For each (design, site) pair, the panel grows along the size
        ladder until the target is met or a cost/area constraint binds;
        the best size per pair becomes one plan.
        """
        simulator = ChannelSimulator(self.env, goal.frequency_hz)
        points = self.env.room(goal.room_id).grid(self.grid_spacing_m, z=1.0)
        plans: List[DeploymentPlan] = []
        sites = self.candidate_sites(goal)
        for spec in self.choose_designs(goal):
            for site in sites:
                best: Optional[DeploymentPlan] = None
                for side in self.size_ladder:
                    cost = side * side * spec.cost_per_element_usd
                    area = (side * spec.element_pitch_m) ** 2
                    if cost > goal.max_cost_usd or area > goal.max_area_m2:
                        break
                    median = self._evaluate(
                        goal, spec, site, side, points, simulator
                    )
                    best = DeploymentPlan(
                        spec=spec,
                        site=site,
                        side_elements=side,
                        predicted_median_snr_db=median,
                        cost_usd=cost,
                        area_m2=area,
                        meets_target=median >= goal.target_median_snr_db,
                    )
                    if best.meets_target:
                        break
                if best is not None:
                    plans.append(best)
        if not plans:
            raise ServiceError("no deployment fits the goal's constraints")
        plans.sort(
            key=lambda p: (not p.meets_target, p.cost_usd, -p.predicted_median_snr_db)
        )
        return plans[:max_plans]
