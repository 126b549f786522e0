"""A physical surface panel: spec + geometry + element lattice.

The panel is the *data plane* object: it owns the element positions and
the configuration currently actuating the passing waves.  Drivers (the
control plane) mutate it through the hardware manager; the channel
simulator reads element positions and the applied configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from ..core.configuration import Granularity, SurfaceConfiguration
from ..core.errors import ConfigurationError
from ..em.antenna import AntennaPattern
from ..geometry.vec import as_vec3, normalize
from .specs import OperationMode, SurfaceSpec


@dataclass
class SurfacePanel:
    """One mounted surface panel.

    Attributes:
        panel_id: unique id within the deployment.
        spec: the hardware design datasheet.
        rows: element rows (along the panel's vertical axis).
        cols: element columns (along the panel's horizontal axis).
        center: mounting position of the panel center.
        normal: outward unit normal (the side it serves).
        up: approximate vertical reference for the element lattice.
    """

    panel_id: str
    spec: SurfaceSpec
    rows: int
    cols: int
    center: np.ndarray
    normal: np.ndarray
    up: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ConfigurationError("panel needs at least a 1x1 lattice")
        self.center = as_vec3(self.center)
        self.normal = normalize(self.normal)
        self.up = normalize(self.up)
        if abs(float(np.dot(self.normal, self.up))) > 0.99:
            raise ConfigurationError("panel normal and up are degenerate")
        self._configuration = SurfaceConfiguration.zeros(
            self.rows, self.cols, name="fabrication-default"
        )
        # Both caches treat the mounted geometry as immutable.
        self._positions_cache: Optional[np.ndarray] = None
        self._axes_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, int]:
        """Lattice shape ``(rows, cols)``."""
        return (self.rows, self.cols)

    @property
    def num_elements(self) -> int:
        """Total element count."""
        return self.rows * self.cols

    @property
    def element_pitch_m(self) -> float:
        """Element pitch from the spec (m)."""
        return self.spec.element_pitch_m

    @property
    def width_m(self) -> float:
        """Panel width (m), columns × pitch."""
        return self.cols * self.element_pitch_m

    @property
    def height_m(self) -> float:
        """Panel height (m), rows × pitch."""
        return self.rows * self.element_pitch_m

    @property
    def area_m2(self) -> float:
        """Panel area (m²)."""
        return self.width_m * self.height_m

    @property
    def cost_usd(self) -> float:
        """Hardware cost from the per-element cost model."""
        return self.num_elements * self.spec.cost_per_element_usd

    def plane_axes(self) -> Tuple[np.ndarray, np.ndarray]:
        """In-plane unit axes ``(u, v)``: u horizontal, v vertical."""
        if self._axes_cache is None:
            u = np.cross(self.up, self.normal)
            u = u / np.linalg.norm(u)
            v = np.cross(self.normal, u)
            self._axes_cache = (u, v / np.linalg.norm(v))
        return self._axes_cache

    def element_positions(self) -> np.ndarray:
        """3-D positions of all elements, shape ``(rows*cols, 3)``.

        Row-major order matching :meth:`SurfaceConfiguration.flat_phases`:
        element ``(r, c)`` is at index ``r*cols + c``.
        """
        if self._positions_cache is None:
            u, v = self.plane_axes()
            pitch = self.element_pitch_m
            cs = (np.arange(self.cols) - (self.cols - 1) / 2.0) * pitch
            rs = (np.arange(self.rows) - (self.rows - 1) / 2.0) * pitch
            grid_r, grid_c = np.meshgrid(rs, cs, indexing="ij")
            self._positions_cache = (
                self.center[None, :]
                + grid_c.reshape(-1, 1) * u[None, :]
                + grid_r.reshape(-1, 1) * v[None, :]
            )
        return self._positions_cache

    def element_pattern(self) -> AntennaPattern:
        """The meta-atom radiation pattern from the spec."""
        front_only = self.spec.operation_mode is OperationMode.REFLECTIVE
        return AntennaPattern(
            peak_gain_dbi=self.spec.element_gain_dbi,
            cos_exponent=self.spec.element_cos_exponent,
            front_only=front_only,
        )

    def sees(self, point: np.ndarray) -> bool:
        """Whether a point lies in the half-space the panel serves.

        Reflective panels only interact with their front half-space;
        transmissive/transflective panels interact with both.
        """
        if self.spec.operation_mode is not OperationMode.REFLECTIVE:
            return True
        offset = as_vec3(point) - self.center
        return float(np.dot(offset, self.normal)) > 0.0

    # ------------------------------------------------------------------
    # configuration state (data plane)
    # ------------------------------------------------------------------

    @property
    def configuration(self) -> SurfaceConfiguration:
        """The configuration currently actuating the panel."""
        return self._configuration

    def feasible(self, config: SurfaceConfiguration) -> SurfaceConfiguration:
        """Project a configuration onto this hardware's feasible set.

        Applies the spec's control granularity tie and phase
        quantization so that upper layers can optimize element-wise and
        still get an honest prediction of what the hardware will do.
        """
        if config.shape != self.shape:
            raise ConfigurationError(
                f"configuration shape {config.shape} != panel shape {self.shape}"
            )
        out = config
        if self.spec.granularity is not Granularity.ELEMENT:
            out = out.tied(self.spec.granularity)
        if self.spec.phase_bits is not None:
            out = out.quantized(self.spec.phase_bits)
        return out

    def actuate(self, config: SurfaceConfiguration) -> SurfaceConfiguration:
        """Set the live configuration (after feasibility projection).

        This is the lowest-level write; capability checks (passive
        hardware, unsupported properties) belong to the driver layer.
        Returns the projected configuration actually applied.
        """
        projected = self.feasible(config)
        self._configuration = projected
        return projected

    def impair(self, config: SurfaceConfiguration) -> SurfaceConfiguration:
        """Set the live configuration *without* feasibility projection.

        Fault-injection backdoor: physical impairments (analog phase
        drift, dark elements) are not constrained by the control
        quantizer, so projecting them away would hide the fault from
        the channel model.  Only the fault layer should call this.
        """
        if config.shape != self.shape:
            raise ConfigurationError(
                f"configuration shape {config.shape} != panel shape {self.shape}"
            )
        self._configuration = config
        return config

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SurfacePanel({self.panel_id!r}, {self.spec.design}, "
            f"{self.rows}x{self.cols}, area={self.area_m2:.3f} m^2)"
        )
