"""Geometry substrate: vectors, shapes, materials, environments."""

from .environment import Environment, describe_obstructions
from .floorplans import (
    ApartmentLayout,
    ApartmentSites,
    apartment_sites,
    two_room_apartment,
)
from .materials import (
    BRICK,
    CONCRETE,
    DRYWALL,
    GLASS,
    HUMAN,
    MATERIALS,
    METAL,
    WOOD,
    Material,
    get_material,
)
from .scenes import (
    SCENE_NAMES,
    PanelSite,
    Scene,
    SceneBuilder,
    build_scene,
    register_scene,
    scene_names,
)
from .shapes import Box, Room, Wall
from .vec import (
    as_vec3,
    centroid,
    cross,
    dot,
    norm,
    normalize,
    vec3,
)

__all__ = [
    "ApartmentLayout",
    "ApartmentSites",
    "BRICK",
    "Box",
    "CONCRETE",
    "DRYWALL",
    "Environment",
    "GLASS",
    "HUMAN",
    "MATERIALS",
    "METAL",
    "Material",
    "PanelSite",
    "Room",
    "SCENE_NAMES",
    "Scene",
    "SceneBuilder",
    "WOOD",
    "Wall",
    "apartment_sites",
    "build_scene",
    "register_scene",
    "scene_names",
    "as_vec3",
    "centroid",
    "cross",
    "describe_obstructions",
    "dot",
    "get_material",
    "norm",
    "normalize",
    "two_room_apartment",
    "vec3",
]
