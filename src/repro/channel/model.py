"""The cascade channel model and its per-surface linearization.

A deployment's channel from AP antennas to K evaluation points through
S surfaces is, keeping up to second-order surface interactions:

``h[k,m] = D[k,m]
         + Σ_s Σ_e A_s[m,e] · x_s[e] · B_s[k,e]
         + Σ_{s≠t} Σ_{e,f} A_s[m,e] · x_s[e] · S_st[e,f] · x_t[f] · B_t[k,f]``

where ``x_s`` is surface s's complex element coefficients
(``amplitude · e^{jφ}``).  The model is *linear* in each surface's
coefficients with the others held fixed — exactly what block-coordinate
optimization needs — and :meth:`ChannelModel.linear_form` extracts that
``(C, d)`` pair so objectives can differentiate analytically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Sequence, Tuple

import numpy as np

from ..core.errors import SimulationError


@dataclass(frozen=True)
class LinearChannelForm:
    """``h[k,m] = Σ_e C[k,m,e]·x[e] + d[k,m]`` for one surface.

    Attributes:
        surface_id: which surface ``x`` belongs to.
        coeffs: tensor ``C``, shape ``(K, M, E)``.
        offset: tensor ``d``, shape ``(K, M)``.
    """

    surface_id: str
    coeffs: np.ndarray
    offset: np.ndarray

    def __post_init__(self) -> None:
        if self.coeffs.ndim != 3:
            raise SimulationError(f"coeffs must be 3-D, got {self.coeffs.shape}")
        if self.offset.shape != self.coeffs.shape[:2]:
            raise SimulationError(
                f"offset shape {self.offset.shape} != {self.coeffs.shape[:2]}"
            )

    @property
    def num_points(self) -> int:
        """K, the number of evaluation points."""
        return self.coeffs.shape[0]

    @property
    def num_antennas(self) -> int:
        """M, the number of AP antennas."""
        return self.coeffs.shape[1]

    @property
    def num_elements(self) -> int:
        """E, the surface's element count."""
        return self.coeffs.shape[2]

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Channel ``(K, M)`` for element coefficients ``x`` of shape ``(E,)``."""
        x = np.asarray(x)
        if x.shape != (self.num_elements,):
            raise SimulationError(
                f"x shape {x.shape} != (E,) = ({self.num_elements},)"
            )
        return self.coeffs @ x + self.offset

    def evaluate_many(self, x: np.ndarray) -> np.ndarray:
        """Channels ``(P, K, M)`` for a batch of coefficients ``(P, E)``.

        One tensor contraction for the whole population.  Coverage and
        powering losses batch through their loss pack instead
        (:mod:`repro.orchestrator.objectives`), which runs the same GEMM.
        """
        x = np.atleast_2d(np.asarray(x))
        if x.ndim != 2 or x.shape[1] != self.num_elements:
            raise SimulationError(
                f"batch shape {x.shape} != (P, {self.num_elements})"
            )
        return (
            np.tensordot(x, self.coeffs, axes=([1], [2]))
            + self.offset[None, :, :]
        )

    def restricted(self, point_indices: Sequence[int]) -> "LinearChannelForm":
        """The same form over a subset of evaluation points.

        The form owns its arrays.  An in-bounds unit-step ``range`` is
        copied as a slice, cheaper than the gather it equals.
        """
        if (
            isinstance(point_indices, range)
            and point_indices.step == 1
            and 0 <= point_indices.start
            and point_indices.stop <= self.num_points
        ):
            rows = slice(point_indices.start, point_indices.stop)
            return LinearChannelForm(
                surface_id=self.surface_id,
                coeffs=self.coeffs[rows].copy(),
                offset=self.offset[rows].copy(),
            )
        idx = np.asarray(point_indices, dtype=int)
        return LinearChannelForm(
            surface_id=self.surface_id,
            coeffs=self.coeffs[idx],
            offset=self.offset[idx],
        )


class ChannelModel:
    """Cascade channel between one AP and K points through S surfaces.

    Built by :class:`~repro.channel.simulator.ChannelSimulator`; holds
    the precomputed gain factors and evaluates/linearizes channels for
    arbitrary surface configurations.
    """

    def __init__(
        self,
        points: np.ndarray,
        direct: np.ndarray,
        ap_to_surface: Mapping[str, np.ndarray],
        surface_to_points: Mapping[str, np.ndarray],
        surface_to_surface: Mapping[Tuple[str, str], np.ndarray],
        frequency_hz: float,
    ):
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        self.direct = np.asarray(direct)
        self.ap_to_surface = dict(ap_to_surface)
        self.surface_to_points = dict(surface_to_points)
        self.surface_to_surface = dict(surface_to_surface)
        self.frequency_hz = frequency_hz
        k, m = self.direct.shape
        self._num_points = k
        self._num_antennas = m
        for sid, a in self.ap_to_surface.items():
            b = self.surface_to_points.get(sid)
            if b is None:
                raise SimulationError(f"surface {sid!r} missing points leg")
            if a.shape[0] != m or b.shape[0] != k or a.shape[1] != b.shape[1]:
                raise SimulationError(f"inconsistent legs for surface {sid!r}")

    # ------------------------------------------------------------------

    @property
    def surface_ids(self) -> List[str]:
        """Surfaces participating in this model."""
        return sorted(self.ap_to_surface)

    @property
    def num_points(self) -> int:
        """K evaluation points."""
        return self._num_points

    @property
    def num_antennas(self) -> int:
        """M AP antennas."""
        return self._num_antennas

    @property
    def num_legs(self) -> int:
        """Total traced legs: direct + 2 per surface + cascade pairs.

        The denominator for the simulator's incremental-rebuild
        accounting (``channel.legs_retraced`` out of ``num_legs``).
        """
        return 1 + 2 * len(self.ap_to_surface) + len(self.surface_to_surface)

    def num_elements(self, surface_id: str) -> int:
        """Element count of one surface."""
        return self.ap_to_surface[surface_id].shape[1]

    def _check_configs(self, configs: Mapping[str, np.ndarray]) -> None:
        for sid in self.surface_ids:
            if sid not in configs:
                raise SimulationError(f"missing configuration for {sid!r}")
            x = np.asarray(configs[sid])
            if x.shape != (self.num_elements(sid),):
                raise SimulationError(
                    f"config for {sid!r} has shape {x.shape}, expected "
                    f"({self.num_elements(sid)},)"
                )

    # ------------------------------------------------------------------

    def evaluate(self, configs: Mapping[str, np.ndarray]) -> np.ndarray:
        """Channel ``(K, M)`` given per-surface coefficient vectors."""
        self._check_configs(configs)
        h = self.direct.copy()
        for sid in self.surface_ids:
            x = np.asarray(configs[sid])
            a = self.ap_to_surface[sid]  # (M, E)
            b = self.surface_to_points[sid]  # (K, E)
            h += (b * x[None, :]) @ a.T
        for (sid, tid), s_st in self.surface_to_surface.items():
            x_s = np.asarray(configs[sid])
            x_t = np.asarray(configs[tid])
            a = self.ap_to_surface[sid]  # (M, E_s)
            b = self.surface_to_points[tid]  # (K, E_t)
            # AP → s → t → points: (M,) = A (x_s ⊙ ·) then through S_st.
            mid = (a * x_s[None, :]) @ s_st  # (M, E_t)
            h += (b * x_t[None, :]) @ mid.T
        return h

    def linear_form(
        self,
        surface_id: str,
        other_configs: Mapping[str, np.ndarray],
    ) -> LinearChannelForm:
        """Linearize the channel in one surface's coefficients.

        ``other_configs`` must provide coefficient vectors for every
        *other* surface (entries for ``surface_id`` are ignored).
        """
        if surface_id not in self.ap_to_surface:
            raise SimulationError(f"unknown surface {surface_id!r}")
        e_s = self.num_elements(surface_id)
        k, m = self.num_points, self.num_antennas
        a_s = self.ap_to_surface[surface_id]
        b_s = self.surface_to_points[surface_id]
        # Single-bounce term through this surface.
        coeffs = a_s[None, :, :] * b_s[:, None, :]  # (K, M, E)
        offset = self.direct.copy()

        for sid in self.surface_ids:
            if sid == surface_id:
                continue
            x = np.asarray(other_configs[sid])
            a = self.ap_to_surface[sid]
            b = self.surface_to_points[sid]
            offset += (b * x[None, :]) @ a.T

        for (sid, tid), s_st in self.surface_to_surface.items():
            if sid == surface_id and tid == surface_id:
                raise SimulationError("self-cascade is not allowed")
            if sid == surface_id:
                # AP → THIS → t → points: coefficient on x_this[e]:
                # A_this[m,e] · Σ_f S[e,f] x_t[f] B_t[k,f]
                x_t = np.asarray(other_configs[tid])
                b_t = self.surface_to_points[tid]
                w = (b_t * x_t[None, :]) @ s_st.T  # (K, E_this)
                coeffs += a_s[None, :, :] * w[:, None, :]
            elif tid == surface_id:
                # AP → s → THIS → points: coefficient on x_this[f]:
                # B_this[k,f] · Σ_e A_s[m,e] x_s[e] S[e,f]
                x_s = np.asarray(other_configs[sid])
                a_o = self.ap_to_surface[sid]
                v = (a_o * x_s[None, :]) @ s_st  # (M, E_this)
                coeffs += b_s[:, None, :] * v[None, :, :]
            else:
                x_s = np.asarray(other_configs[sid])
                x_t = np.asarray(other_configs[tid])
                a_o = self.ap_to_surface[sid]
                b_o = self.surface_to_points[tid]
                mid = (a_o * x_s[None, :]) @ s_st
                offset += (b_o * x_t[None, :]) @ mid.T

        return LinearChannelForm(
            surface_id=surface_id, coeffs=coeffs, offset=offset
        )

    def restricted(self, point_indices: Sequence[int]) -> "ChannelModel":
        """The same model over a subset of evaluation points."""
        idx = np.asarray(point_indices, dtype=int)
        return ChannelModel(
            points=self.points[idx],
            direct=self.direct[idx],
            ap_to_surface=self.ap_to_surface,
            surface_to_points={
                sid: b[idx] for sid, b in self.surface_to_points.items()
            },
            surface_to_surface=self.surface_to_surface,
            frequency_hz=self.frequency_hz,
        )


class LinearFormCache:
    """Memoized :meth:`ChannelModel.linear_form` extractions.

    A surface's linear form depends only on the *other* surfaces'
    coefficients, so across block-coordinate rounds — and always in
    single-surface deployments — the extraction is recomputed for
    identical inputs.  This cache keys each form on a digest of the
    other surfaces' coefficient bytes and keeps a small LRU per
    surface id.

    Create one per optimization pass (it holds references into the
    model's tensors); pass a telemetry instance to surface
    ``channel.form_cache_hits`` / ``channel.form_cache_misses``.
    """

    def __init__(self, model: ChannelModel, maxsize: int = 8, telemetry=None):
        import collections

        self.model = model
        self.maxsize = max(1, maxsize)
        self.telemetry = telemetry
        self._entries: "collections.OrderedDict[Tuple[str, str], LinearChannelForm]" = (
            collections.OrderedDict()
        )
        self.hits = 0
        self.misses = 0

    def _key(
        self, surface_id: str, other_configs: Mapping[str, np.ndarray]
    ) -> Tuple[str, str]:
        import hashlib

        digest = hashlib.sha1()
        for sid in self.model.surface_ids:
            if sid == surface_id:
                continue
            digest.update(sid.encode())
            digest.update(
                np.ascontiguousarray(
                    np.asarray(other_configs[sid], dtype=complex)
                ).tobytes()
            )
        return (surface_id, digest.hexdigest())

    def linear_form(
        self,
        surface_id: str,
        other_configs: Mapping[str, np.ndarray],
    ) -> LinearChannelForm:
        """Like :meth:`ChannelModel.linear_form`, but memoized."""
        key = self._key(surface_id, other_configs)
        form = self._entries.get(key)
        if form is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            if self.telemetry is not None:
                self.telemetry.counter("channel.form_cache_hits")
            return form
        self.misses += 1
        if self.telemetry is not None:
            self.telemetry.counter("channel.form_cache_misses")
        form = self.model.linear_form(surface_id, other_configs)
        self._entries[key] = form
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
        return form
