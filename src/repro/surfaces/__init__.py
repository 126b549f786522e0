"""Surface hardware models: specs, panels, and the Table 1 catalog."""

from .catalog import (
    CATALOG,
    GENERIC_COLUMNWISE_28,
    GENERIC_DESIGNS,
    GENERIC_PASSIVE_28,
    GENERIC_PROGRAMMABLE_28,
    TABLE1,
    CatalogEntry,
    get_design,
    list_designs,
)
from .panel import SurfacePanel
from .specs import OperationMode, SignalProperty, SurfaceSpec

__all__ = [
    "CATALOG",
    "CatalogEntry",
    "GENERIC_COLUMNWISE_28",
    "GENERIC_DESIGNS",
    "GENERIC_PASSIVE_28",
    "GENERIC_PROGRAMMABLE_28",
    "OperationMode",
    "SignalProperty",
    "SurfacePanel",
    "SurfaceSpec",
    "TABLE1",
    "get_design",
    "list_designs",
]
