"""Electromagnetics substrate: propagation, antennas, steering, noise."""

from .antenna import (
    ISOTROPIC,
    META_ATOM,
    META_ATOM_TRANSMISSIVE,
    PATCH,
    AntennaPattern,
    db_gain_to_linear,
)
from .noise import (
    LinkBudget,
    shannon_required_snr_db,
    snr_db_from_channel,
)
from .propagation import (
    complex_leg_gain,
    friis_amplitude,
    fspl_db,
    path_phase,
    propagation_delay_s,
)
from .steering import (
    beam_codebook_targets,
    focus_configuration,
    steering_phases_toward_point,
    ula_positions,
)

__all__ = [
    "AntennaPattern",
    "ISOTROPIC",
    "LinkBudget",
    "META_ATOM",
    "META_ATOM_TRANSMISSIVE",
    "PATCH",
    "beam_codebook_targets",
    "complex_leg_gain",
    "db_gain_to_linear",
    "focus_configuration",
    "friis_amplitude",
    "fspl_db",
    "path_phase",
    "propagation_delay_s",
    "shannon_required_snr_db",
    "snr_db_from_channel",
    "steering_phases_toward_point",
    "ula_positions",
]
