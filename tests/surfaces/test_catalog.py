"""Table 1 catalog integrity against the paper."""

import math

import pytest

from repro.core import Granularity
from repro.core.units import ghz
from repro.experiments import table1
from repro.surfaces import (
    CATALOG,
    TABLE1,
    OperationMode,
    SignalProperty,
    get_design,
    list_designs,
)

PAPER_ROWS = {
    # name: (band_lo_ghz, band_hi_ghz, property, mode, reconfigurable)
    "LAIA": (2.4, 2.4, SignalProperty.PHASE, OperationMode.TRANSMISSIVE, True),
    "RFocus": (2.4, 2.4, SignalProperty.AMPLITUDE, OperationMode.TRANSFLECTIVE, True),
    "LLAMA": (2.4, 2.4, SignalProperty.POLARIZATION, OperationMode.TRANSFLECTIVE, True),
    "LAVA": (2.4, 2.4, SignalProperty.AMPLITUDE, OperationMode.TRANSMISSIVE, True),
    "ScatterMIMO": (5.0, 5.0, SignalProperty.PHASE, OperationMode.REFLECTIVE, True),
    "RFlens": (5.0, 5.0, SignalProperty.PHASE, OperationMode.TRANSMISSIVE, True),
    "Diffract": (5.0, 5.0, SignalProperty.PHASE, OperationMode.TRANSMISSIVE, False),
    "Scrolls": (0.9, 6.0, SignalProperty.FREQUENCY, OperationMode.REFLECTIVE, True),
    "mmWall": (24.0, 24.0, SignalProperty.PHASE, OperationMode.TRANSFLECTIVE, True),
    "NR-Surface": (24.0, 24.0, SignalProperty.PHASE, OperationMode.REFLECTIVE, True),
    "PMSat": (20.0, 30.0, SignalProperty.PHASE, OperationMode.TRANSMISSIVE, False),
    "MilliMirror": (60.0, 60.0, SignalProperty.PHASE, OperationMode.REFLECTIVE, False),
    "AutoMS": (60.0, 60.0, SignalProperty.PHASE, OperationMode.REFLECTIVE, False),
}


def test_all_thirteen_rows_present():
    assert len(TABLE1) == 13
    assert set(CATALOG) == set(PAPER_ROWS)


@pytest.mark.parametrize("name", sorted(PAPER_ROWS))
def test_row_matches_paper(name):
    lo, hi, prop, mode, reconf = PAPER_ROWS[name]
    spec = CATALOG[name].spec
    assert spec.band_hz[0] == pytest.approx(ghz(lo))
    assert spec.band_hz[1] == pytest.approx(ghz(hi))
    assert prop in spec.properties
    assert spec.operation_mode is mode
    assert spec.reconfigurable is reconf


def test_passive_rows_have_infinite_control_delay():
    for entry in TABLE1:
        if not entry.spec.reconfigurable:
            assert math.isinf(entry.spec.control_delay_s)


def test_columnwise_rows():
    assert CATALOG["mmWall"].spec.granularity is Granularity.COLUMN
    assert CATALOG["NR-Surface"].spec.granularity is Granularity.COLUMN
    assert CATALOG["Scrolls"].spec.granularity is Granularity.ROW


def test_costs_descend_from_programmable_to_passive_mmwave():
    # The paper's point: programmable mmWave > $2/element, passive ≪ that.
    assert CATALOG["mmWall"].spec.cost_per_element_usd > 2.0
    assert CATALOG["NR-Surface"].spec.cost_per_element_usd > 2.0
    assert CATALOG["AutoMS"].spec.cost_per_element_usd < 0.001
    assert CATALOG["MilliMirror"].spec.cost_per_element_usd < 0.01


def test_get_design_and_listing():
    assert get_design("AutoMS").design == "AutoMS"
    assert get_design("generic-passive-28").is_passive
    assert "mmWall" in list_designs()
    with pytest.raises(KeyError):
        get_design("nonexistent")


def test_table1_rows_render():
    rows = table1.run().rows
    assert len(rows) == 13
    assert rows[0][0] == "LAIA"
    assert all(len(r) == 6 for r in rows)
    # Scrolls band renders as a range.
    scrolls = next(r for r in rows if r[0] == "Scrolls")
    assert "0.9-6" in scrolls[1]
