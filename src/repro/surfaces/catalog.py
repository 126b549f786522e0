"""The Table 1 hardware catalog plus generic experiment designs.

Each entry reproduces one row of the paper's Table 1 ("Diverse hardware
designs, transmissive (T) and reflective (R)") as a full
:class:`SurfaceSpec`.  Where the paper reports a whole-prototype dollar
figure, we derive a per-element cost from the prototype's published
element count (recorded in ``assumed_elements``); "/" (unreported) rows
get estimates flagged in the notes.

Two additional *generic* mmWave designs parameterize the Fig. 4 cost /
size sweep: a fully passive sheet (AutoMS-style economics) and an
element-wise programmable panel (mmWall/NR-Surface-style economics).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.configuration import Granularity
from ..core.units import ghz
from .specs import OperationMode, SignalProperty, SurfaceSpec

_P = SignalProperty
_OM = OperationMode


@dataclass(frozen=True)
class CatalogEntry:
    """One published surface system.

    Attributes:
        spec: the derived machine-readable spec.
        venue: publication venue and year.
        table1_cost: the cost cell exactly as printed in Table 1
            ("/" where the paper reports none).
        assumed_elements: element count used to derive per-element cost.
    """

    spec: SurfaceSpec
    venue: str
    table1_cost: str
    assumed_elements: int

    @property
    def name(self) -> str:
        """Design name."""
        return self.spec.design


def _entry(
    design: str,
    band_ghz: Tuple[float, float],
    props: Sequence[SignalProperty],
    mode: OperationMode,
    reconfigurable: bool,
    venue: str,
    table1_cost: str,
    assumed_elements: int,
    total_cost_usd: Optional[float],
    granularity: Granularity = Granularity.ELEMENT,
    phase_bits: Optional[int] = None,
    control_delay_s: float = 1e-3,
    notes: str = "",
) -> CatalogEntry:
    if total_cost_usd is None:
        # Unreported ("/") — estimate from comparable prototypes.
        total_cost_usd = 200.0
        notes = (notes + " cost unreported in Table 1; estimated.").strip()
    spec = SurfaceSpec(
        design=design,
        band_hz=(ghz(band_ghz[0]), ghz(band_ghz[1])),
        properties=frozenset(props),
        operation_mode=mode,
        reconfigurable=reconfigurable,
        granularity=granularity if reconfigurable else Granularity.ELEMENT,
        phase_bits=phase_bits,
        control_delay_s=control_delay_s if reconfigurable else math.inf,
        cost_per_element_usd=total_cost_usd / assumed_elements,
        notes=notes,
    )
    return CatalogEntry(
        spec=spec,
        venue=venue,
        table1_cost=table1_cost,
        assumed_elements=assumed_elements,
    )


#: Table 1, in the paper's row order.
TABLE1: Tuple[CatalogEntry, ...] = (
    _entry(
        "LAIA", (2.4, 2.4), [_P.PHASE], _OM.TRANSMISSIVE, True,
        "NSDI '19", "/", 224, None, phase_bits=1,
        notes="Large array of inexpensive antennas; 2-state phase.",
    ),
    _entry(
        "RFocus", (2.4, 2.4), [_P.AMPLITUDE], _OM.TRANSFLECTIVE, True,
        "NSDI '20", "/", 3200, None, phase_bits=None,
        notes="On/off amplitude elements, 3200-element prototype.",
    ),
    _entry(
        "LLAMA", (2.4, 2.4), [_P.POLARIZATION], _OM.TRANSFLECTIVE, True,
        "NSDI '21", "900", 48, 900.0,
        notes="Programmable polarization rotation.",
    ),
    _entry(
        "LAVA", (2.4, 2.4), [_P.AMPLITUDE], _OM.TRANSMISSIVE, True,
        "SIGCOMM '21", "/", 224, None,
        notes="3D coverage for small IoT devices; links on/off.",
    ),
    _entry(
        "ScatterMIMO", (5.0, 5.0), [_P.PHASE], _OM.REFLECTIVE, True,
        "MobiCom '20", "450", 48, 450.0, phase_bits=2,
        notes="Smart surface adding virtual MIMO paths.",
    ),
    _entry(
        "RFlens", (5.0, 5.0), [_P.PHASE], _OM.TRANSMISSIVE, True,
        "MobiCom '21", "246", 100, 246.0, phase_bits=1,
        notes="Metasurface lens for IoT communication and sensing.",
    ),
    _entry(
        "Diffract", (5.0, 5.0), [_P.PHASE], _OM.TRANSMISSIVE, False,
        "MobiCom '23", "33", 64, 33.0,
        notes="Edge diffraction field programming; passive (fixed).",
    ),
    _entry(
        "Scrolls", (0.9, 6.0), [_P.FREQUENCY], _OM.REFLECTIVE, True,
        "MobiCom '23", "156", 240, 156.0, granularity=Granularity.ROW,
        control_delay_s=0.5,
        notes="Rolling flexible wideband surfaces; row-wise tuning.",
    ),
    _entry(
        "mmWall", (24.0, 24.0), [_P.PHASE], _OM.TRANSFLECTIVE, True,
        "NSDI '23", "~10K", 4000, 10_000.0,
        granularity=Granularity.COLUMN, phase_bits=None, control_delay_s=1e-5,
        notes="Steerable transflective metamaterial; column-wise.",
    ),
    _entry(
        "NR-Surface", (24.0, 24.0), [_P.PHASE], _OM.REFLECTIVE, True,
        "NSDI '24", "600", 269, 600.0,
        granularity=Granularity.COLUMN, phase_bits=1, control_delay_s=1e-4,
        notes="NextG-ready microwatt-reconfigurable; column-wise.",
    ),
    _entry(
        "PMSat", (20.0, 30.0), [_P.PHASE], _OM.TRANSMISSIVE, False,
        "MobiCom '23", "30", 1024, 30.0,
        notes="Passive metasurface for LEO satellite links.",
    ),
    _entry(
        "MilliMirror", (60.0, 60.0), [_P.PHASE], _OM.REFLECTIVE, False,
        "MobiCom '22", "15", 10_000, 15.0,
        notes="3D-printed passive reflecting surface.",
    ),
    _entry(
        "AutoMS", (60.0, 60.0), [_P.PHASE], _OM.REFLECTIVE, False,
        "MobiCom '24", "<2", 60_000, 2.0,
        notes="Automated low-cost passive metasurface service.",
    ),
)

CATALOG: Dict[str, CatalogEntry] = {e.name: e for e in TABLE1}


#: Generic passive mmWave sheet for the Fig. 4 sweeps: AutoMS-style
#: economics scaled to 28 GHz (zero power, fixed at fabrication,
#: fractions of a cent per element).
GENERIC_PASSIVE_28 = SurfaceSpec(
    design="generic-passive-28",
    band_hz=(ghz(27.0), ghz(29.0)),
    properties=frozenset([_P.PHASE]),
    operation_mode=_OM.REFLECTIVE,
    reconfigurable=False,
    control_delay_s=math.inf,
    cost_per_element_usd=0.002,
    max_stored_configurations=1,
    notes="Synthetic passive design for the cost/size trade-off sweep.",
)

#: Generic programmable mmWave panel: mmWall/NR-Surface-style economics
#: (> $2 per element), element-wise continuous phase, fast actuation.
GENERIC_PROGRAMMABLE_28 = SurfaceSpec(
    design="generic-programmable-28",
    band_hz=(ghz(27.0), ghz(29.0)),
    properties=frozenset([_P.PHASE]),
    operation_mode=_OM.REFLECTIVE,
    reconfigurable=True,
    granularity=Granularity.ELEMENT,
    phase_bits=2,
    control_delay_s=1e-4,
    cost_per_element_usd=2.5,
    max_stored_configurations=64,
    notes="Synthetic programmable design for the cost/size sweep.",
)

#: Column-wise variant used by the granularity ablation.
GENERIC_COLUMNWISE_28 = SurfaceSpec(
    design="generic-columnwise-28",
    band_hz=(ghz(27.0), ghz(29.0)),
    properties=frozenset([_P.PHASE]),
    operation_mode=_OM.REFLECTIVE,
    reconfigurable=True,
    granularity=Granularity.COLUMN,
    phase_bits=2,
    control_delay_s=1e-4,
    cost_per_element_usd=1.0,
    max_stored_configurations=64,
    notes="Column-wise control ablation design.",
)

GENERIC_DESIGNS: Dict[str, SurfaceSpec] = {
    s.design: s
    for s in (GENERIC_PASSIVE_28, GENERIC_PROGRAMMABLE_28, GENERIC_COLUMNWISE_28)
}


def get_design(name: str) -> SurfaceSpec:
    """Look up a design spec by name (Table 1 or generic)."""
    if name in CATALOG:
        return CATALOG[name].spec
    if name in GENERIC_DESIGNS:
        return GENERIC_DESIGNS[name]
    known = ", ".join(sorted(list(CATALOG) + list(GENERIC_DESIGNS)))
    raise KeyError(f"unknown surface design {name!r}; known: {known}")


def list_designs() -> List[str]:
    """All known design names."""
    return sorted(list(CATALOG) + list(GENERIC_DESIGNS))
