"""Paper-artifact reproductions: one module per table/figure.

* :mod:`.table1` — the hardware-design catalog table.
* :mod:`.fig2` — coverage-optimal configuration disrupting localization.
* :mod:`.fig4` — passive/programmable/hybrid cost & size trade-offs.
* :mod:`.fig5` — multitasking CDFs (joint localization + coverage).
* :mod:`.fig6` — LLM translation of user demands into service calls.
* :mod:`.degradation` — degraded-mode recovery: two of five panels die
  mid-run; the daemon re-optimizes around them.
* :mod:`.arrivals` — burst arrival benchmark: one real solve per
  request vs the request pipeline (batched + coalesced).
* :mod:`.fleet` — three zones behind one global broker: spill around a
  quarantined shard, roaming-client handoff, deterministic routing.
* :mod:`.mobility` — continuous motion + churn scenario with
  speculative channel-leg prefetch from exact ``peek(dt)`` predictions.

Figures 1 and 3 of the paper are architecture diagrams; their
"reproduction" is the system itself (see DESIGN.md).
"""

from . import (
    arrivals,
    degradation,
    fig2,
    fig4,
    fig5,
    fig6,
    fleet,
    mobility,
    table1,
)
from .scenario import ApartmentScenario, CARRIER_HZ, build_scenario

__all__ = [
    "ApartmentScenario",
    "CARRIER_HZ",
    "arrivals",
    "build_scenario",
    "degradation",
    "fig2",
    "fig4",
    "fig5",
    "fig6",
    "fleet",
    "mobility",
    "table1",
]
