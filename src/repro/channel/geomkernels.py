"""Precompiled, fully vectorized geometry kernels for the ray model.

The tracer's queries all reduce to "which of these ``n`` segments cross
which of these obstacles".  The per-obstacle formulation loops over
walls and boxes in Python, paying hundreds of small numpy dispatches
per channel build; a build traces hundreds of thousands of segments, so
that loop is the dominant metasurface-control cost (the workload
characterized by Saeed et al.).

:class:`CompiledGeometry` stacks every wall and box of an
:class:`~repro.geometry.environment.Environment` into contiguous arrays
*once* per :attr:`Environment.version`, after which

* :meth:`CompiledGeometry.segment_loss_db` is a single broadcast pass
  over ``(n_segments × n_obstacles)``, accumulating per-obstacle losses
  with one matrix product, and
* :meth:`CompiledGeometry.trace_pairs` runs the image method for
  *all* source/target pairs against every reflective wall at once, and
  prices the direct segments and both legs of every bounce in one
  penetration pass.

:class:`PanelStack` does the same stacking for the per-call panel
obstacle lists (which vary with the excluded panel, so they cannot be
compiled against the environment).

All kernels follow the reference per-obstacle formulas operation by
operation, so results agree with the loop implementations to float64
rounding (the golden tests in ``tests/channel/test_geomkernels.py``
assert 1e-9 agreement on randomized environments).
"""

from __future__ import annotations

import threading
from typing import Dict, NamedTuple, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary

import numpy as np

from ..geometry.environment import Environment
from ..geometry.shapes import Wall

_EPS = 1e-9

#: Target temporary size (elements) for one kernel tile.  Row chunks
#: are sized so each ``(rows, n_obstacles)`` float64 intermediate stays
#: around 256 KB — resident in L2 — instead of multi-MB arrays that
#: stream through DRAM on every elementwise pass.
_CHUNK_CELLS = 32768


def _chunk_rows(n: int, count: int) -> int:
    return min(n, max(256, _CHUNK_CELLS // max(1, count)))


def _as_segments(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape != b.shape:
        raise ValueError(f"endpoint arrays differ: {a.shape} vs {b.shape}")
    return a, b


class _TileScratch:
    """Reusable work arrays for one obstacle family's kernel tiles.

    Every elementwise pass writes into these via ``out=`` instead of
    allocating: tile-sized (≥128 KB) temporaries would otherwise hit
    glibc's mmap threshold on every numpy op, paying page faults on
    each pass.  One pool per :class:`CompiledGeometry`, sized for the
    largest tile, sliced down with ``[:rows]`` for the tail tile.
    """

    __slots__ = ("rows", "f", "b", "lhs")

    def __init__(self, rows: int, cols: int) -> None:
        self.rows = rows
        self.f = [np.empty((rows, cols)) for _ in range(5)]
        self.b = [np.empty((rows, cols), dtype=bool) for _ in range(3)]
        self.lhs = np.empty((rows, 3))


class Bounces(NamedTuple):
    """First-order bounces off the ``W`` reflective ``walls``, ``(W, S, T)``.

    ``bounce`` is ``(W, S, T, 3)``; ``amplitude`` (reflectivity × both
    legs' penetration) is zero wherever ``valid`` is False.
    """

    walls: np.ndarray
    valid: np.ndarray
    bounce: np.ndarray
    length: np.ndarray
    amplitude: np.ndarray


class PanelStack:
    """Surface panels acting as thin obstacles, stacked for broadcasting.

    Built per call from a ``Sequence[PanelObstacle]`` (the set varies
    with which panel a leg terminates on); holds ``(P, …)`` arrays so a
    crossing test over ``n`` segments is one ``(n, P)`` pass.
    """

    __slots__ = (
        "count",
        "normals",
        "centers",
        "axes_u",
        "axes_v",
        "half_w",
        "half_h",
        "_obstacles",
        "_losses",
    )

    def __init__(self, panel_obstacles: Sequence) -> None:
        self._obstacles = tuple(panel_obstacles)
        self.count = len(self._obstacles)
        self._losses: Dict[float, np.ndarray] = {}
        if not self.count:
            return
        panels = [o.panel for o in self._obstacles]
        self.normals = np.stack([p.normal for p in panels])
        self.centers = np.stack([p.center for p in panels])
        axes = [p.plane_axes() for p in panels]
        self.axes_u = np.stack([u for u, _ in axes])
        self.axes_v = np.stack([v for _, v in axes])
        self.half_w = np.array([p.width_m / 2.0 for p in panels])
        self.half_h = np.array([p.height_m / 2.0 for p in panels])

    def losses_db(self, frequency_hz: float) -> np.ndarray:
        """Per-panel through-loss vector ``(P,)`` at a carrier."""
        losses = self._losses.get(frequency_hz)
        if losses is None:
            losses = np.array(
                [o.loss_db(frequency_hz) for o in self._obstacles]
            )
            self._losses[frequency_hz] = losses
        return losses

    def crossing_matrix(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Which segments cross which panels, shape ``(n, P)``."""
        a, b = _as_segments(a, b)
        if not self.count:
            return np.zeros((a.shape[0], 0), dtype=bool)
        rel_a = a[:, None, :] - self.centers[None, :, :]  # (n, P, 3)
        rel_b = b[:, None, :] - self.centers[None, :, :]
        da = np.einsum("npk,pk->np", rel_a, self.normals)
        db = np.einsum("npk,pk->np", rel_b, self.normals)
        crosses_plane = (da * db) < -_EPS
        denom = np.where(np.abs(da - db) < _EPS, 1.0, da - db)
        t = da / denom
        hit_rel = rel_a + t[:, :, None] * (b - a)[:, None, :]
        return (
            crosses_plane
            & (
                np.abs(np.einsum("npk,pk->np", hit_rel, self.axes_u))
                <= self.half_w[None, :] + _EPS
            )
            & (
                np.abs(np.einsum("npk,pk->np", hit_rel, self.axes_v))
                <= self.half_h[None, :] + _EPS
            )
        )


class CompiledGeometry:
    """An environment's walls and boxes as contiguous kernel arrays.

    Compiled once per :attr:`Environment.version` via
    :func:`compiled_geometry`.  The compiled arrays are pure reads, and
    the tile scratch pools live in thread-local storage, so one
    instance serves every concurrent query against that version (the
    channel simulator's parallel leg tracing runs several kernels at
    once against the same compiled environment).
    """

    def __init__(self, env: Environment) -> None:
        self.version = env.version
        self.walls: Tuple[Wall, ...] = env.walls
        boxes = env.boxes
        self.num_walls = len(self.walls)
        self.num_boxes = len(boxes)
        self._wall_index = {id(w): i for i, w in enumerate(self.walls)}
        self._wall_materials = tuple(w.material for w in self.walls)
        self._box_materials = tuple(b.material for b in boxes)
        self._wall_losses: Dict[float, np.ndarray] = {}
        self._box_losses: Dict[float, np.ndarray] = {}
        # Scratch pools are mutated by every kernel call, so each
        # thread gets its own — concurrent traces sharing one pool
        # would corrupt each other's tiles.
        self._scratch = threading.local()
        # Present even without walls: the image method then runs W = 0.
        self.wall_p = np.array([w.start[:2] for w in self.walls]).reshape(-1, 2)
        self.wall_s = (
            np.array([w.end[:2] for w in self.walls]).reshape(-1, 2) - self.wall_p
        )
        self.wall_zmin = np.array([w.z_min for w in self.walls])
        self.wall_zmax = np.array([w.z_max for w in self.walls])
        if self.num_walls:
            # The segment/wall cross-product numerators are bilinear in
            # the endpoint coordinates, so they factor into fixed (3, W)
            # right-hand matrices applied to per-segment (n, 3) stacks.
            s0, s1 = self.wall_s[:, 0], self.wall_s[:, 1]
            p0, p1 = self.wall_p[:, 0], self.wall_p[:, 1]
            self._wall_mt = np.ascontiguousarray(
                np.stack([s1, s0, p0 * s1 - p1 * s0])
            )
            self._wall_mu = np.ascontiguousarray(
                np.stack([p0, p1, np.ones(self.num_walls)])
            )
        if self.num_boxes:
            self.box_lo = np.stack([b.lo for b in boxes])  # (B, 3)
            self.box_hi = np.stack([b.hi for b in boxes])

    # ------------------------------------------------------------------
    # loss vectors
    # ------------------------------------------------------------------

    def wall_losses_db(self, frequency_hz: float) -> np.ndarray:
        """Per-wall penetration loss ``(W,)`` at a carrier (cached)."""
        losses = self._wall_losses.get(frequency_hz)
        if losses is None:
            losses = np.array(
                [m.penetration_loss_db(frequency_hz) for m in self._wall_materials]
            )
            self._wall_losses[frequency_hz] = losses
        return losses

    def box_losses_db(self, frequency_hz: float) -> np.ndarray:
        """Per-box penetration loss ``(B,)`` at a carrier (cached)."""
        losses = self._box_losses.get(frequency_hz)
        if losses is None:
            losses = np.array(
                [m.penetration_loss_db(frequency_hz) for m in self._box_materials]
            )
            self._box_losses[frequency_hz] = losses
        return losses

    def wall_indices(self, walls: Sequence[Wall]) -> np.ndarray:
        """Compiled indices of the given wall objects (identity match)."""
        return np.array(
            [
                self._wall_index[id(w)]
                for w in walls
                if id(w) in self._wall_index
            ],
            dtype=int,
        )

    # ------------------------------------------------------------------
    # crossing kernels
    # ------------------------------------------------------------------

    def wall_crossing_matrix(
        self, a: np.ndarray, b: np.ndarray
    ) -> np.ndarray:
        """Which segments ``a[i]→b[i]`` cross which walls, ``(n, W)``.

        The 2-D segment/segment cross products are bilinear in the
        segment and wall endpoint coordinates, so the ``(n, W)``
        numerators factor into ``(n, 3) @ (3, W)`` matrix products
        (BLAS) followed by a handful of elementwise passes — no
        ``(n, W, 2)`` temporaries, and one reciprocal instead of two
        divisions per pair.
        """
        a, b = _as_segments(a, b)
        n = a.shape[0]
        if not self.num_walls:
            return np.zeros((n, 0), dtype=bool)
        out = np.empty((n, self.num_walls), dtype=bool)
        rows = _chunk_rows(n, self.num_walls)
        for i in range(0, n, rows):
            self._wall_tile(a[i : i + rows], b[i : i + rows], out[i : i + rows])
        return out

    def _wall_tile_scratch(self) -> _TileScratch:
        sc = getattr(self._scratch, "wall", None)
        if sc is None:
            sc = _TileScratch(
                _chunk_rows(1 << 30, self.num_walls), self.num_walls
            )
            self._scratch.wall = sc
        return sc

    def _wall_tile(
        self, a: np.ndarray, b: np.ndarray, ok: np.ndarray
    ) -> np.ndarray:
        """One tile of the wall crossing test, written into ``ok``."""
        sc = self._wall_tile_scratch()
        rows = a.shape[0]
        f0, f1, f2, f3 = (sc.f[i][:rows] for i in range(4))
        cmp = sc.b[0][:rows]
        lhs = sc.lhs[:rows]
        s0, s1 = self.wall_s[:, 0], self.wall_s[:, 1]  # (W,)
        a0, a1, a2 = a[:, 0], a[:, 1], a[:, 2]
        r0 = b[:, 0] - a0
        r1 = b[:, 1] - a1
        # denom = r × s → f0;  t_num = (p − a) × s → f2;
        # u_num = (p − a) × r → f3  (both as (rows, 3) @ (3, W) BLAS).
        np.multiply.outer(r0, s1, out=f0)
        f0 -= np.multiply.outer(r1, s0)
        np.abs(f0, out=f1)
        np.greater(f1, _EPS, out=ok)
        f1[:] = f0
        np.logical_not(ok, out=cmp)
        np.copyto(f1, 1.0, where=cmp)
        inv = np.divide(1.0, f1, out=f1)
        lhs[:, 0] = -a0
        lhs[:, 1] = a1
        lhs[:, 2] = 1.0
        np.matmul(lhs, self._wall_mt, out=f2)
        t = np.multiply(f2, inv, out=f2)
        lhs[:, 0] = r1
        np.negative(r0, out=lhs[:, 1])
        np.multiply(a1, r0, out=lhs[:, 2])
        lhs[:, 2] -= a0 * r1
        np.matmul(lhs, self._wall_mu, out=f3)
        u = np.multiply(f3, inv, out=f3)
        np.greater(t, _EPS, out=cmp)
        ok &= cmp
        np.less(t, 1.0 - _EPS, out=cmp)
        ok &= cmp
        np.greater_equal(u, -_EPS, out=cmp)
        ok &= cmp
        np.less_equal(u, 1.0 + _EPS, out=cmp)
        ok &= cmp
        # z = a2 + t·dz → f0 (denom no longer needed).
        np.multiply(t, (b[:, 2] - a2)[:, None], out=f0)
        f0 += a2[:, None]
        np.greater_equal(f0, self.wall_zmin[None, :] - _EPS, out=cmp)
        ok &= cmp
        np.less_equal(f0, self.wall_zmax[None, :] + _EPS, out=cmp)
        ok &= cmp
        return ok

    def box_crossing_matrix(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Which segments ``a[i]→b[i]`` pass through which boxes, ``(n, B)``.

        Slab method over all boxes at once, one axis at a time: every
        intermediate is ``(n, B)`` (never ``(n, B, 3)``) and the slab
        parameters use one reciprocal per segment axis instead of a
        division per pair.
        """
        a, b = _as_segments(a, b)
        n = a.shape[0]
        if not self.num_boxes:
            return np.zeros((n, 0), dtype=bool)
        out = np.empty((n, self.num_boxes), dtype=bool)
        rows = _chunk_rows(n, self.num_boxes)
        for i in range(0, n, rows):
            self._box_tile(a[i : i + rows], b[i : i + rows], out[i : i + rows])
        return out

    def _box_tile_scratch(self) -> _TileScratch:
        sc = getattr(self._scratch, "box", None)
        if sc is None:
            sc = _TileScratch(
                _chunk_rows(1 << 30, self.num_boxes), self.num_boxes
            )
            self._scratch.box = sc
        return sc

    def _box_tile(
        self, a: np.ndarray, b: np.ndarray, inside: np.ndarray
    ) -> np.ndarray:
        """One tile of the box slab test, written into ``inside``."""
        sc = self._box_tile_scratch()
        rows = a.shape[0]
        t_enter, t_exit, w0, w1, w2 = (x[:rows] for x in sc.f)
        cmp0, cmp1 = sc.b[0][:rows], sc.b[1][:rows]
        t_enter[:] = 0.0
        t_exit[:] = 1.0
        inside[:] = True
        for axis in range(3):
            da = b[:, axis] - a[:, axis]
            aa = a[:, axis]
            lo = self.box_lo[:, axis]  # (B,)
            hi = self.box_hi[:, axis]
            parallel = np.abs(da) < _EPS  # (n,)
            inv = 1.0 / np.where(parallel, 1.0, da)
            np.subtract(lo[None, :], aa[:, None], out=w0)
            w0 *= inv[:, None]  # t1
            np.subtract(hi[None, :], aa[:, None], out=w1)
            w1 *= inv[:, None]  # t2
            lo_t = np.minimum(w0, w1, out=w2)
            hi_t = np.maximum(w0, w1, out=w0)
            if parallel.any():
                # Parallel segments must start inside that slab to hit.
                np.greater_equal(aa[:, None], lo[None, :] - _EPS, out=cmp0)
                np.less_equal(aa[:, None], hi[None, :] + _EPS, out=cmp1)
                cmp0 &= cmp1
                cmp0 |= ~parallel[:, None]
                inside &= cmp0
                lo_t[parallel] = -np.inf
                hi_t[parallel] = np.inf
            np.maximum(t_enter, lo_t, out=t_enter)
            np.minimum(t_exit, hi_t, out=t_exit)
        np.less(t_enter, t_exit, out=cmp0)
        inside &= cmp0
        np.greater(t_exit, _EPS, out=cmp0)
        inside &= cmp0
        np.less(t_enter, 1.0 - _EPS, out=cmp0)
        inside &= cmp0
        return inside

    # ------------------------------------------------------------------
    # loss accumulation
    # ------------------------------------------------------------------

    def segment_loss_db(
        self,
        a: np.ndarray,
        b: np.ndarray,
        frequency_hz: float,
        panels: Optional[PanelStack] = None,
        exclude_wall_indices: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Total penetration loss (dB) per segment, ``(n,)``.

        One broadcast pass over all walls, boxes, and stacked panel
        obstacles.  ``exclude_wall_indices`` is each segment's excluded
        wall, ``(n,)``, or walls, ``(n, k)``, with ``-1`` for none (e.g.
        the reflector of an image path): those entries of the crossing
        tile are cleared before the loss product.
        """
        a, b = _as_segments(a, b)
        n = a.shape[0]
        loss = np.zeros(n)
        wall_losses = box_losses = panel_losses = None
        exclude = None
        if self.num_walls:
            wall_losses = self.wall_losses_db(frequency_hz)
            if exclude_wall_indices is not None:
                exclude = np.asarray(exclude_wall_indices)
                if exclude.ndim == 1:
                    exclude = exclude[:, None]
                if exclude.shape[0] != n:
                    raise ValueError(
                        f"{exclude.shape[0]} exclusion rows for {n} segments"
                    )
        if self.num_boxes:
            box_losses = self.box_losses_db(frequency_hz)
        if panels is not None and panels.count:
            panel_losses = panels.losses_db(frequency_hz)
        # One tile loop accumulating all families: the crossing masks
        # and their dot products against the loss vectors never leave
        # the scratch tiles, so nothing (n × n_obstacles)-sized is ever
        # materialized.
        widest = max(self.num_walls, self.num_boxes)
        if widest == 0:
            rows = n
        else:
            rows = _chunk_rows(n, widest)
        for i in range(0, n, rows):
            asl, bsl = a[i : i + rows], b[i : i + rows]
            lsl = loss[i : i + rows]
            if wall_losses is not None:
                sc = self._wall_tile_scratch()
                ok = self._wall_tile(asl, bsl, sc.b[2][: asl.shape[0]])
                if exclude is not None:
                    esl = exclude[i : i + rows]
                    hit_r, hit_c = np.nonzero(esl >= 0)
                    ok[hit_r, esl[hit_r, hit_c]] = False
                cast = sc.f[0][: asl.shape[0]]
                np.copyto(cast, ok)
                lsl += cast @ wall_losses
            if box_losses is not None:
                sc = self._box_tile_scratch()
                ok = self._box_tile(asl, bsl, sc.b[2][: asl.shape[0]])
                cast = sc.f[2][: asl.shape[0]]
                np.copyto(cast, ok)
                lsl += cast @ box_losses
            if panel_losses is not None:
                lsl += panels.crossing_matrix(asl, bsl) @ panel_losses
        return loss

    def segment_amplitude(
        self,
        a: np.ndarray,
        b: np.ndarray,
        frequency_hz: float,
        panels: Optional[PanelStack] = None,
        exclude_wall_indices: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Linear amplitude factor per segment, ``(n,)``."""
        loss = self.segment_loss_db(
            a, b, frequency_hz, panels, exclude_wall_indices
        )
        return 10.0 ** (-loss / 20.0)

    # ------------------------------------------------------------------
    # direct paths and image-method reflections
    # ------------------------------------------------------------------

    def trace_pairs(
        self,
        sources: np.ndarray,
        targets: np.ndarray,
        frequency_hz: float,
        panels: Optional[PanelStack] = None,
        reflections: bool = True,
    ) -> Tuple[np.ndarray, Bounces]:
        """Direct and single-bounce paths for all source/target pairs.

        Image method over every reflective wall at once as one
        ``(W, S, T)`` pass; the ``S·T`` direct segments and both legs of
        every valid bounce (each excluding its reflector) are priced in
        one :meth:`segment_loss_db` call.  Returns the direct
        penetration amplitude ``(S, T)`` and the :class:`Bounces` (no
        walls when ``reflections`` is False).
        """
        sources = np.atleast_2d(np.asarray(sources, dtype=float))
        targets = np.atleast_2d(np.asarray(targets, dtype=float))
        n_s, n_t = sources.shape[0], targets.shape[0]
        walls = np.array(
            self.reflective_wall_indices() if reflections else (), dtype=int
        )
        mirrored = np.repeat(sources[None], walls.size, axis=0)  # (W, S, 3)
        for m, index in zip(mirrored, walls):
            # Per wall, so the 2-element ``@ normal`` product and the
            # norm keep the bits of the one-wall formulation.
            s = self.wall_s[index]
            normal = np.array([-s[1], s[0]]) / np.linalg.norm(s)
            dist = (sources[:, :2] - self.wall_p[index][None, :]) @ normal
            m[:, :2] -= 2.0 * dist[:, None] * normal[None, :]

        # Intersect mirrored[w, i]→targets[j] with wall w's rectangle.
        s0 = self.wall_s[walls, 0][:, None, None]
        s1 = self.wall_s[walls, 1][:, None, None]
        mir = mirrored[:, :, None, :]  # (W, S, 1, 3)
        r = targets[None, None, :, :2] - mir[..., :2]  # (W, S, T, 2)
        denom = r[..., 0] * s1 - r[..., 1] * s0
        ok = np.abs(denom) > _EPS
        safe = np.where(ok, denom, 1.0)
        ap = self.wall_p[walls][:, None, None, :] - mir[..., :2]
        t = (ap[..., 0] * s1 - ap[..., 1] * s0) / safe
        u = (ap[..., 0] * r[..., 1] - ap[..., 1] * r[..., 0]) / safe
        dz = targets[None, None, :, 2] - mir[..., 2]
        z = mir[..., 2] + t * dz
        valid = (
            ok
            & (t > _EPS)
            & (t < 1.0 - _EPS)
            & (u >= -_EPS)
            & (u <= 1.0 + _EPS)
            & (z >= self.wall_zmin[walls][:, None, None] - _EPS)
            & (z <= self.wall_zmax[walls][:, None, None] + _EPS)
        )
        bounce = np.empty(valid.shape + (3,))
        bounce[..., :2] = mir[..., :2] + t[..., None] * r
        bounce[..., 2] = z
        leg1 = np.linalg.norm(bounce - sources[None, :, None, :], axis=-1)
        leg2 = np.linalg.norm(targets[None, None] - bounce, axis=-1)
        valid &= (leg1 >= _EPS) & (leg2 >= _EPS)
        length = leg1 + leg2

        # One penetration pass: direct rows, then every bounce's first
        # and second legs with its reflector excluded.
        wi, si, ti = np.nonzero(valid)
        hits = bounce[wi, si, ti]
        n_direct, n_bounce = n_s * n_t, wi.size
        a = np.concatenate([np.repeat(sources, n_t, axis=0), sources[si], hits])
        b = np.concatenate([np.tile(targets, (n_s, 1)), hits, targets[ti]])
        exclude = np.full(n_direct + 2 * n_bounce, -1)
        exclude[n_direct:] = np.tile(walls[wi], 2)
        # NumPy sums a one-row ``(1, W) @ (W,)`` product in another order
        # than a multi-row one: a segment the per-wall formulation priced
        # alone (one-pair direct trace, a wall's only bounce) stays alone.
        alone = np.bincount(wi, minlength=walls.size)[wi] == 1
        lone = np.concatenate([np.full(n_direct, n_direct == 1), alone, alone])
        amp = np.empty(lone.size)
        batched = [np.flatnonzero(~lone)] if not lone.all() else []
        for rows in batched + [[i] for i in np.flatnonzero(lone)]:
            amp[rows] = self.segment_amplitude(
                a[rows], b[rows], frequency_hz, panels, exclude[rows]
            )
        amplitude = np.zeros(valid.shape)
        reflectivity = np.array(
            [self.walls[i].material.reflectivity for i in walls]
        )
        amplitude[wi, si, ti] = (
            reflectivity[wi]
            * amp[n_direct : n_direct + n_bounce]
            * amp[n_direct + n_bounce :]
        )
        # Negligible bounces are dropped, matching the loop formulation.
        faint = amplitude < 1e-8
        valid &= ~faint
        amplitude[faint] = 0.0
        direct = amp[:n_direct].reshape(n_s, n_t)
        return direct, Bounces(walls, valid, bounce, length, amplitude)

    def reflective_wall_indices(
        self, min_reflectivity: float = 0.05
    ) -> Tuple[int, ...]:
        """Compiled indices of walls worth bouncing off."""
        return tuple(
            i
            for i, w in enumerate(self.walls)
            if w.material.reflectivity >= min_reflectivity
        )


_COMPILED: "WeakKeyDictionary[Environment, CompiledGeometry]" = (
    WeakKeyDictionary()
)


def compiled_geometry(env: Environment) -> CompiledGeometry:
    """The compiled kernels for an environment's current version.

    Recompiles only when :attr:`Environment.version` has moved since
    the last call; compilation is a handful of small array stacks, but
    the returned object also memoizes per-frequency loss vectors, so
    reuse matters.
    """
    compiled = _COMPILED.get(env)
    if compiled is None or compiled.version != env.version:
        compiled = CompiledGeometry(env)
        _COMPILED[env] = compiled
    return compiled
