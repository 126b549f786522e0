"""Channel simulation substrate: ray model, cascades, simulator."""

from .links import (
    elements_to_elements,
    elements_to_points,
    node_to_elements,
    node_to_points,
)
from .geomkernels import CompiledGeometry, PanelStack, compiled_geometry
from .model import ChannelModel, LinearChannelForm, LinearFormCache
from .nodes import RadioNode, single_antenna_node, ula_node
from .simulator import ChannelSimulator, live_configs
from .tracer import (
    PanelObstacle,
    ReflectionPath,
    reflection_paths,
    segment_amplitude,
    segment_loss_db,
)

__all__ = [
    "ChannelModel",
    "ChannelSimulator",
    "CompiledGeometry",
    "LinearChannelForm",
    "LinearFormCache",
    "PanelObstacle",
    "PanelStack",
    "RadioNode",
    "ReflectionPath",
    "compiled_geometry",
    "elements_to_elements",
    "elements_to_points",
    "live_configs",
    "node_to_elements",
    "node_to_points",
    "reflection_paths",
    "segment_amplitude",
    "segment_loss_db",
    "single_antenna_node",
    "ula_node",
]
