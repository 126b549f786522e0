"""The wireless channel simulator SurfOS orchestrates with.

This is the repository's substitute for the AutoMS ray tracer the paper
uses: given surface specifications and the 3-D environment model, it
outputs the channel matrices between the surfaces and endpoints on the
relevant frequency bands (§3.2 "Modeling interactions").

Channel builds are cached at **two levels**:

* A *model cache* keyed on the exact (environment version, AP, points,
  panels) tuple returns a previously assembled
  :class:`~repro.channel.model.ChannelModel` wholesale.
* A *leg cache* keys every traced leg on what that leg physically
  depends on: digests of its endpoint geometry plus the digests of the
  panel obstacles whose footprint intersects the leg's ray corridor.
  The point-dependent legs (``direct`` and ``surface→points``) are
  cached **per receive point**: each row is keyed on the AP or panel
  digest, the point's float bytes and the obstacles crossing that
  row's own corridor.  A build looks up every row, traces only the
  missing ones in one kernel call per leg, and stacks the rows, so a
  point set that differs from a cached one by one point traces one
  row.  ``ap→surface`` and ``surface→surface`` legs are independent of
  the client points and are cached whole; a single-panel change
  re-traces only the legs touching that panel.

Environment mutations are reconciled through
:meth:`~repro.geometry.environment.Environment.dirty_regions`: each
mutation records the AABB it touched, and the simulator purges only the
cached entries whose corridor intersects a changed region (rows that
trace wall reflections are treated as unbounded).  Mutations the
environment cannot attribute fall back to a full leg-cache purge —
never a stale answer.

Cold builds can fan the independent per-leg traces across a thread
pool (``parallel_workers``; numpy releases the GIL inside the
vectorized geometry kernels).  Assembly is order-preserving, so the
result is bit-identical to a serial build at any worker count.
"""

from __future__ import annotations

import hashlib
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..core.errors import SimulationError
from ..geometry.environment import Environment
from ..surfaces.panel import SurfacePanel
from ..surfaces.specs import OperationMode
from ..telemetry import Telemetry
from .links import (
    elements_to_elements,
    elements_to_points,
    node_to_elements,
    node_to_points,
)
from .model import ChannelModel
from .nodes import RadioNode
from .tracer import PanelObstacle

#: Inflation (m) applied to leg corridors and obstacle footprints so
#: the AABB intersection tests stay conservative against the geometry
#: kernels' epsilon tolerances.
_CORRIDOR_PAD = 1e-3

#: Surface pairs farther apart than this (m) get no cascade leg; their
#: second-order term is negligible.
_MAX_CASCADE_DISTANCE_M = 30.0

#: Panel boxes remembered by panel digest before the memo is reset.
_PANEL_BOX_MEMO = 64

#: A leg-cache key: the family, its endpoint digest(s), the receive
#: point's float bytes (point-dependent rows only), and the obstacle digest.
_Key = Tuple[object, ...]

#: The ``[lo, hi]`` corridor of a row whose rays reach anywhere.
_UNBOUNDED = np.array([[-np.inf] * 3, [np.inf] * 3])


def _points_digest(points: np.ndarray) -> str:
    data = np.ascontiguousarray(np.asarray(points, dtype=float))
    return hashlib.sha1(data.tobytes()).hexdigest()


def _panel_digest(panel: SurfacePanel) -> str:
    """Digest of everything that shapes a panel's element geometry.

    Hashes the raw float bytes of ``center``/``normal``/``up`` (a
    rendered ``precision=6`` string would collide panels differing
    only beyond 1e-6) plus the lattice shape, pitch, element pattern,
    and operation mode — so a re-oriented or re-gridded panel can
    never serve another panel's cached legs.
    """
    h = hashlib.sha1()
    h.update(panel.panel_id.encode())
    h.update(panel.spec.design.encode())
    h.update(repr(panel.shape).encode())
    for vec in (panel.center, panel.normal, panel.up):
        h.update(np.ascontiguousarray(np.asarray(vec, dtype=float)).tobytes())
    h.update(
        repr(
            (
                panel.spec.element_pitch_m,
                panel.spec.element_gain_dbi,
                panel.spec.element_cos_exponent,
                panel.spec.operation_mode.name,
            )
        ).encode()
    )
    return h.hexdigest()


def _node_digest(node: RadioNode) -> str:
    """Digest of a radio node's antenna geometry and pattern."""
    h = hashlib.sha1()
    h.update(node.node_id.encode())
    h.update(np.ascontiguousarray(node.positions, dtype=float).tobytes())
    h.update(np.ascontiguousarray(node.boresight, dtype=float).tobytes())
    p = node.pattern
    h.update(repr((p.peak_gain_linear, p.cos_exponent, p.front_only)).encode())
    return h.hexdigest()


def _panel_box(panel: SurfacePanel, pad: float) -> np.ndarray:
    """``[lo, hi]`` AABB of the panel rectangle, inflated by ``pad``."""
    u, v = panel.plane_axes()
    extent = np.abs(u) * (panel.width_m / 2.0) + np.abs(v) * (
        panel.height_m / 2.0
    )
    return np.array([panel.center - extent - pad, panel.center + extent + pad])


@dataclass
class _Speculation:
    """One prefetched leg, resolved at most once as a hit or as waste.

    ``pending`` counts the leg's rows still cached and not yet served to
    a build.  The first row a build serves makes the leg a prefetch hit;
    a leg whose last pending row is purged or evicted unserved is
    wasted.  Either way it resolves once, so hits + wasted never exceed
    the legs prefetched.
    """

    pending: int
    resolved: bool = False


@dataclass
class _LegEntry:
    """One cached leg row: the traced gains plus its ray-corridor AABB.

    Point-dependent legs (``direct``, ``s2p``) are cached one receive
    point row per entry; ``a2s`` and ``s2s`` legs are one entry each.
    ``box`` is the ``(2, 3)`` corridor ``[lo, hi]``; an unbounded
    corridor (reflection-enriched direct rows bounce off walls anywhere
    in the scene) is ``[-inf, +inf]``, which every attributed
    environment mutation overlaps.

    ``speculation`` links an entry that ``prefetch`` warmed, and no
    build has served yet, to its prefetched leg.
    """

    value: np.ndarray
    box: np.ndarray
    speculation: Optional[_Speculation] = None


@dataclass
class _LegTask:
    """One leg the current build needs (cached or about to be traced).

    ``keys`` and ``boxes`` hold one cache key and one ``(2, 3)``
    corridor per row for point-dependent legs (``per_point``), or a
    single entry for a whole ``a2s``/``s2s`` leg.  ``trace(rows)``
    traces the given row indices (``None``: the whole leg).
    """

    slot: Tuple[str, ...]
    name: str
    boxes: np.ndarray
    trace: Callable[[Optional[List[int]]], np.ndarray]
    per_point: bool = False
    attrs: Dict[str, object] = field(default_factory=dict)
    keys: List[_Key] = field(default_factory=list)


def _first_rows(keys: Sequence[_Key]) -> Dict[_Key, int]:
    """Each distinct key with the index of its first row, in row order."""
    first: Dict[_Key, int] = {}
    for i, key in enumerate(keys):
        first.setdefault(key, i)
    return first


def _hull(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The ``[lo, hi]`` box holding boxes ``a`` and ``b`` (broadcasting).

    Every ray a leg traces runs between a point of one endpoint set and
    a point of another; the hull of the sets' boxes is convex, so it
    contains all those segments.  An obstacle wholly outside it cannot
    perturb the leg — the geometric fact the leg cache's corridors rest
    on.
    """
    return np.stack(
        [
            np.minimum(a[..., 0, :], b[..., 0, :]),
            np.maximum(a[..., 1, :], b[..., 1, :]),
        ],
        axis=-2,
    )


def _overlaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether ``[lo, hi]`` boxes ``a`` and ``b`` intersect (broadcasting)."""
    return np.all(a[..., 0, :] <= b[..., 1, :], axis=-1) & np.all(
        b[..., 0, :] <= a[..., 1, :], axis=-1
    )


def _stack_rows(
    keys: Sequence[_Key], rows: Mapping[_Key, np.ndarray]
) -> np.ndarray:
    """Stack cached/traced rows into one leg matrix, in key order.

    Column-major, the layout the point kernels return (``h.T``), so
    every consumer sees the same memory order as a one-call trace.
    """
    first = rows[keys[0]]
    out = np.empty((len(keys), first.shape[0]), dtype=first.dtype, order="F")
    for i, key in enumerate(keys):
        out[i] = rows[key]
    return out


class ChannelSimulator:
    """Builds :class:`ChannelModel` objects for a radio environment.

    Args:
        env: the environment (walls, obstacles, rooms).
        frequency_hz: carrier for all traced paths.
        include_reflections: trace first-order wall bounces on direct
            node→point legs.
        include_panel_blockage: treat surface panels as thin obstacles
            for paths not terminating on them (the §2.1 unintended
            blocking hazard).
        cache_size: LRU bound on cached (assembled) channel models; the
            oldest entry is evicted when exceeded, and entries built
            against a stale environment version are purged eagerly.
        leg_cache_size: LRU bound on leg-cache entries (one per
            receive-point row of a ``direct``/``s2p`` leg, one per
            ``a2s``/``s2s`` leg); ``0`` disables leg caching entirely
            (the monolithic behavior — every model-cache miss re-traces
            all legs).
        parallel_workers: trace missing legs through a thread pool of
            this size (``<=1`` = serial).  Results are bit-identical
            to serial at any worker count.
        telemetry: where cache counters and per-leg trace spans go;
            defaults to a private instance.
    """

    def __init__(
        self,
        env: Environment,
        frequency_hz: float,
        include_reflections: bool = True,
        include_panel_blockage: bool = True,
        cache_size: int = 32,
        leg_cache_size: int = 512,
        parallel_workers: int = 0,
        telemetry: Optional[Telemetry] = None,
    ):
        if frequency_hz <= 0:
            raise SimulationError("carrier frequency must be positive")
        if cache_size < 1:
            raise SimulationError("cache_size must be at least 1")
        if leg_cache_size < 0:
            raise SimulationError("leg_cache_size must be >= 0")
        self.env = env
        self.frequency_hz = frequency_hz
        self.include_reflections = include_reflections
        self.include_panel_blockage = include_panel_blockage
        self.cache_size = cache_size
        self.leg_cache_size = leg_cache_size
        self.parallel_workers = parallel_workers
        self.telemetry = telemetry or Telemetry()
        self._cache: "OrderedDict[str, Tuple[int, ChannelModel]]" = OrderedDict()
        self._cache_hits = 0
        self._cache_misses = 0
        self._last_version = env.version
        self._legs: "OrderedDict[_Key, _LegEntry]" = OrderedDict()
        self._panel_boxes: Dict[str, np.ndarray] = {}
        self._leg_version = env.version
        self._leg_hits = 0
        self._legs_retraced = 0
        self._prefetched_legs = 0
        self._prefetch_hits = 0
        self._prefetch_wasted = 0

    # ------------------------------------------------------------------

    @property
    def cache_stats(self) -> Tuple[int, int]:
        """(hits, misses) of the assembled-model cache."""
        return (self._cache_hits, self._cache_misses)

    @property
    def leg_cache_stats(self) -> Tuple[int, int]:
        """(legs served from cache, legs traced) since construction.

        Counted in legs, not rows: a leg is traced when any of its rows
        is, and served from cache when all of them are.
        """
        return (self._leg_hits, self._legs_retraced)

    @property
    def prefetch_stats(self) -> Tuple[int, int, int]:
        """(legs prefetched, prefetch hits, prefetch wasted)."""
        return (self._prefetched_legs, self._prefetch_hits, self._prefetch_wasted)

    def _cache_key(
        self,
        ap: RadioNode,
        points: np.ndarray,
        panels: Sequence[SurfacePanel],
    ) -> str:
        parts = [
            str(self.env.version),
            _node_digest(ap),
            _points_digest(points),
        ]
        parts.extend(sorted(_panel_digest(p) for p in panels))
        return hashlib.sha1("||".join(parts).encode()).hexdigest()

    def _obstacles_excluding(
        self,
        panels: Sequence[SurfacePanel],
        exclude: Iterable[SurfacePanel],
    ) -> List[PanelObstacle]:
        if not self.include_panel_blockage:
            return []
        excluded = {p.panel_id for p in exclude}
        return [
            PanelObstacle(p) for p in panels if p.panel_id not in excluded
        ]

    # ------------------------------------------------------------------

    def build(
        self,
        ap: RadioNode,
        points: np.ndarray,
        panels: Sequence[SurfacePanel],
    ) -> ChannelModel:
        """Trace all legs and assemble the cascade channel model.

        ``points`` is ``(K, 3)``.  Assembled models are cached until
        the environment or any panel geometry changes; individual legs
        outlive that, invalidated only when a change intersects their
        ray corridor.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        ids = [p.panel_id for p in panels]
        if len(set(ids)) != len(ids):
            raise SimulationError(f"duplicate panel ids: {ids}")
        self._purge_stale()
        self._sync_leg_cache()
        key = self._cache_key(ap, points, panels)
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            self._cache_hits += 1
            self.telemetry.counter("channel.cache_hits")
            return cached[1]
        self._cache_misses += 1
        self.telemetry.counter("channel.cache_misses")

        model = self._assemble(ap, points, panels)

        # Evict before inserting so the cache never transiently exceeds
        # its bound and the new entry can't push out a live one's slot.
        while len(self._cache) >= self.cache_size:
            self._cache.popitem(last=False)
            self.telemetry.counter("channel.cache_evictions")
        self._cache[key] = (self.env.version, model)
        self.telemetry.gauge("channel.cache_size", len(self._cache))
        return model

    # ------------------------------------------------------------------
    # leg-level build
    # ------------------------------------------------------------------

    def _plan_legs(
        self,
        ap: RadioNode,
        points: np.ndarray,
        panels: Sequence[SurfacePanel],
    ) -> List[_LegTask]:
        """Every leg this build needs, with row cache keys and corridors."""
        env, freq = self.env, self.frequency_hz
        pad = _CORRIDOR_PAD
        ids = [p.panel_id for p in panels]
        digests = {p.panel_id: _panel_digest(p) for p in panels}
        panel_boxes = np.array(
            [self._panel_box(p, digests[p.panel_id]) for p in panels]
        ).reshape(-1, 2, 3)
        bounds = dict(zip(ids, panel_boxes))
        ap_digest = _node_digest(ap)
        ant_box = np.array([ap.positions.min(axis=0), ap.positions.max(axis=0)])
        point_boxes = np.stack([points, points], axis=1)

        def points_at(rows: Optional[List[int]]) -> np.ndarray:
            return points if rows is None else points[rows]

        plan: List[_LegTask] = []
        # Per task: the panels it excludes as obstacles, and its key prefix.
        key_parts: List[Tuple[Tuple[str, ...], Tuple[str, ...]]] = []

        # Direct rows: unbounded corridors when wall reflections are on
        # (bounce segments reach anywhere in the scene).
        if self.include_reflections:
            d_boxes = np.broadcast_to(_UNBOUNDED, (len(points), 2, 3))
        else:
            d_boxes = _hull(point_boxes, ant_box) + [[-pad], [pad]]
        direct_obstacles = self._obstacles_excluding(panels, ())
        plan.append(
            _LegTask(
                slot=("direct",),
                name="direct",
                boxes=d_boxes,
                per_point=True,
                trace=lambda rows, obs=direct_obstacles: node_to_points(
                    env,
                    ap,
                    points_at(rows),
                    freq,
                    panel_obstacles=obs,
                    include_reflections=self.include_reflections,
                ),
            )
        )
        key_parts.append(((), ("direct", ap_digest)))

        for panel in panels:
            pid = panel.panel_id
            others = self._obstacles_excluding(panels, (panel,))
            plan.append(
                _LegTask(
                    slot=("a2s", pid),
                    name="ap-to-surface",
                    attrs={"panel": pid},
                    boxes=_hull(ant_box, bounds[pid])[None],
                    trace=lambda rows, p=panel, obs=others: node_to_elements(
                        env, ap, p, freq, panel_obstacles=obs
                    ),
                )
            )
            key_parts.append(((pid,), ("a2s", ap_digest, digests[pid])))
            plan.append(
                _LegTask(
                    slot=("s2p", pid),
                    name="surface-to-points",
                    attrs={"panel": pid},
                    boxes=_hull(point_boxes, bounds[pid]),
                    per_point=True,
                    trace=lambda rows, p=panel, obs=others: elements_to_points(
                        env, p, points_at(rows), freq, panel_obstacles=obs
                    ),
                )
            )
            key_parts.append(((pid,), ("s2p", digests[pid])))

        for source in panels:
            for target in panels:
                if source.panel_id == target.panel_id:
                    continue
                gap = float(np.linalg.norm(source.center - target.center))
                if gap > _MAX_CASCADE_DISTANCE_M:
                    continue
                if not self._panels_face_each_other(source, target):
                    continue
                sid, tid = source.panel_id, target.panel_id
                others = self._obstacles_excluding(panels, (source, target))
                plan.append(
                    _LegTask(
                        slot=("s2s", sid, tid),
                        name="surface-to-surface",
                        attrs={"source": sid, "target": tid},
                        boxes=_hull(bounds[sid], bounds[tid])[None],
                        trace=lambda rows, s=source, t=target, obs=others: (
                            elements_to_elements(
                                env, s, t, freq, panel_obstacles=obs
                            )
                        ),
                    )
                )
                key_parts.append(((sid, tid), ("s2s", digests[sid], digests[tid])))

        # Keys.  Only obstacles whose footprint intersects a row's own
        # ray corridor can perturb that row; panels outside stay out of
        # its key, so their motion never invalidates it.  An obstacle
        # set is a bit mask over ``ids``, tested for every corridor of
        # the plan at once and digested once per distinct set.
        row_bytes = [row.tobytes() for row in points]
        memo: Dict[int, str] = {}
        if self.include_panel_blockage:
            bits = 1 << np.arange(len(ids))
            boxes = np.concatenate([task.boxes for task in plan])
            masks = (_overlaps(boxes[:, None], panel_boxes[None]) @ bits).tolist()
        else:
            masks = [0] * sum(len(task.boxes) for task in plan)
            memo[0] = "-"
        start = 0
        for task, (excluded, parts) in zip(plan, key_parts):
            kept = sum(1 << j for j, q in enumerate(ids) if q not in excluded)
            obstacles = []
            for mask in masks[start : start + len(task.boxes)]:
                mask &= kept
                if mask not in memo:
                    inside = sorted(
                        digests[q] for j, q in enumerate(ids) if mask >> j & 1
                    )
                    memo[mask] = hashlib.sha1("|".join(inside).encode()).hexdigest()
                obstacles.append(memo[mask])
            start += len(task.boxes)
            if task.per_point:
                task.keys = [(*parts, b, o) for b, o in zip(row_bytes, obstacles)]
            else:
                task.keys = [(*parts, obstacles[0])]
        return plan

    def _panel_box(self, panel: SurfacePanel, digest: str) -> np.ndarray:
        """The panel's padded ``[lo, hi]`` box, memoized by its digest."""
        box = self._panel_boxes.get(digest)
        if box is None:
            if len(self._panel_boxes) >= _PANEL_BOX_MEMO:
                self._panel_boxes.clear()
            box = self._panel_boxes[digest] = _panel_box(panel, _CORRIDOR_PAD)
        return box

    def _assemble(
        self,
        ap: RadioNode,
        points: np.ndarray,
        panels: Sequence[SurfacePanel],
    ) -> ChannelModel:
        """Serve rows from the leg cache, trace the rest, assemble.

        A leg counts as retraced when any of its rows is traced, and as
        a cache hit when every row was cached; each leg's missing rows
        are traced in one kernel call.
        """
        plan = self._plan_legs(ap, points, panels)
        use_legs = self.leg_cache_size > 0
        rows: Dict[_Key, np.ndarray] = {}
        jobs: List[Tuple[_LegTask, Optional[List[int]]]] = []
        rows_hit = prefetch_hits = 0
        for task in plan:
            if not use_legs:
                jobs.append((task, None))
                continue
            missing = []
            first = _first_rows(task.keys)
            for key, i in first.items():
                entry = self._legs.get(key)
                if entry is None:
                    missing.append(i)
                    continue
                self._legs.move_to_end(key)
                rows[key] = entry.value
                prefetch_hits += self._serve_speculative(entry)
            if task.per_point:
                rows_hit += len(first) - len(missing)
            if missing:
                jobs.append((task, missing))
        hits = len(plan) - len(jobs)
        rows_traced = sum(
            len(task.keys) if idx is None else len(idx)
            for task, idx in jobs
            if task.per_point
        )
        self._leg_hits += hits
        self._legs_retraced += len(jobs)
        self._prefetch_hits += prefetch_hits
        if hits:
            self.telemetry.counter("channel.leg_cache_hits", hits)
            self.telemetry.counter("channel.partial_rebuilds")
        if prefetch_hits:
            self.telemetry.counter("channel.prefetch_hits", prefetch_hits)
        if jobs:
            self.telemetry.counter("channel.legs_retraced", len(jobs))
        if rows_hit:
            self.telemetry.counter("channel.rows_hit", rows_hit)
        if rows_traced:
            self.telemetry.counter("channel.rows_traced", rows_traced)

        with self.telemetry.span(
            "channel-trace",
            points=int(points.shape[0]),
            panels=len(panels),
            legs=len(plan),
            retraced=len(jobs),
        ):
            traced = self._trace_jobs(jobs)
        values: Dict[Tuple[str, ...], np.ndarray] = {}
        for (task, idx), value in zip(jobs, traced):
            if idx is None:
                values[task.slot] = value
            else:
                self._store_traced(task, idx, value, rows)
        if use_legs:
            self.telemetry.gauge("channel.leg_cache_size", len(self._legs))
        for task in plan:
            if task.slot not in values:
                values[task.slot] = (
                    _stack_rows(task.keys, rows)
                    if task.per_point
                    else rows[task.keys[0]]
                )

        ap_to_surface: Dict[str, np.ndarray] = {}
        surface_to_points: Dict[str, np.ndarray] = {}
        surface_to_surface: Dict[Tuple[str, str], np.ndarray] = {}
        direct = values[("direct",)]
        for slot, value in values.items():
            if slot[0] == "a2s":
                ap_to_surface[slot[1]] = value
            elif slot[0] == "s2p":
                surface_to_points[slot[1]] = value
            elif slot[0] == "s2s":
                surface_to_surface[(slot[1], slot[2])] = value
        return ChannelModel(
            points=points,
            direct=direct,
            ap_to_surface=ap_to_surface,
            surface_to_points=surface_to_points,
            surface_to_surface=surface_to_surface,
            frequency_hz=self.frequency_hz,
        )

    def _trace_jobs(
        self,
        jobs: List[Tuple[_LegTask, Optional[List[int]]]],
        prefetched: bool = False,
    ) -> List[np.ndarray]:
        """Trace each job's rows, in plan order, serially or pooled.

        A job is one leg and the row indices to trace (``None``: the
        whole leg).  The map is order-preserving and every row of a
        leg kernel is independent of the others, so assembly (and the
        leg cache) sees exactly the serial, one-call results at any
        worker count.  Per-leg telemetry is emitted post-trace from
        this thread, identically for the serial and pooled paths, so
        sim-only exports are byte-identical regardless of
        ``parallel_workers``.
        """
        if not jobs:
            return []

        def timed(
            job: Tuple[_LegTask, Optional[List[int]]]
        ) -> Tuple[np.ndarray, float]:
            t0 = time.perf_counter()
            return job[0].trace(job[1]), time.perf_counter() - t0

        workers = min(self.parallel_workers, len(jobs))
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                traced = list(pool.map(timed, jobs))
        else:
            traced = [timed(job) for job in jobs]
        for (task, _), (_, wall_s) in zip(jobs, traced):
            self.telemetry.event(
                "leg-trace",
                kind=task.name,
                speculative=prefetched,
                wall_trace_s=wall_s,
                **task.attrs,
            )
        return [value for value, _ in traced]

    def prefetch(
        self,
        ap: RadioNode,
        points: np.ndarray,
        panels: Sequence[SurfacePanel],
        legs: Sequence[str] = ("direct", "s2p"),
    ) -> int:
        """Speculatively warm the leg LRU for a predicted point set.

        Traces the uncached rows of the selected leg families (slots
        ``"direct"``, ``"a2s"``, ``"s2p"``, ``"s2s"``) for ``points`` —
        typically a mobility model's ``peek``-predicted next positions
        — off the reaction path.  A later ``build`` whose plan lands on
        the same row keys serves them as ordinary cache hits; each
        prefetched leg counts once as ``channel.prefetch_hits`` when a
        build first serves one of its rows, or as
        ``channel.prefetch_wasted`` when all its rows are purged or
        evicted unserved.

        Prefetching never changes outputs: a row key digests the exact
        float bytes of its point, so a warmed row is served only to a
        build computing the identical trace, and assembly is
        bit-identical whether a row was traced here or inline.

        Returns the number of legs with at least one row traced (0 when
        everything wanted is already cached, or leg caching is
        disabled).
        """
        if self.leg_cache_size <= 0:
            return 0
        points = np.atleast_2d(np.asarray(points, dtype=float))
        ids = [p.panel_id for p in panels]
        if len(set(ids)) != len(ids):
            raise SimulationError(f"duplicate panel ids: {ids}")
        self._sync_leg_cache()
        wanted = set(legs)
        jobs = []
        for task in self._plan_legs(ap, points, panels):
            if task.slot[0] not in wanted:
                continue
            missing = [
                i
                for key, i in _first_rows(task.keys).items()
                if key not in self._legs
            ]
            if missing:
                jobs.append((task, missing))
        if not jobs:
            return 0
        with self.telemetry.span(
            "channel-prefetch",
            points=int(points.shape[0]),
            panels=len(panels),
            legs=len(jobs),
        ):
            traced = self._trace_jobs(jobs, prefetched=True)
        for (task, idx), value in zip(jobs, traced):
            self._store_traced(task, idx, value, {}, _Speculation(len(idx)))
        self._prefetched_legs += len(jobs)
        self.telemetry.counter("channel.prefetch_legs", len(jobs))
        self.telemetry.gauge("channel.leg_cache_size", len(self._legs))
        return len(jobs)

    def _serve_speculative(self, entry: _LegEntry) -> int:
        """Clear a served entry's prefetch link; 1 if its leg just hit."""
        spec = entry.speculation
        if spec is None:
            return 0
        entry.speculation = None
        spec.pending -= 1
        if spec.resolved:
            return 0
        spec.resolved = True
        return 1

    def _dropped(self, entries: Iterable[_LegEntry]) -> None:
        """Count prefetched legs whose last pending row just left."""
        wasted = 0
        for entry in entries:
            spec = entry.speculation
            if spec is None:
                continue
            spec.pending -= 1
            if not spec.pending and not spec.resolved:
                spec.resolved = True
                wasted += 1
        if wasted:
            self._prefetch_wasted += wasted
            self.telemetry.counter("channel.prefetch_wasted", wasted)

    def _store_traced(
        self,
        task: _LegTask,
        idx: List[int],
        value: np.ndarray,
        rows: Dict[_Key, np.ndarray],
        speculation: Optional[_Speculation] = None,
    ) -> None:
        """Cache a traced job (each row, or the whole leg) into ``rows``."""
        if task.per_point:
            traced = [
                (task.keys[i], value[j], task.boxes[i])
                for j, i in enumerate(idx)
            ]
        else:
            traced = [(task.keys[0], value, task.boxes[0])]
        for key, row, box in traced:
            rows[key] = row
            while len(self._legs) >= self.leg_cache_size:
                _, evicted = self._legs.popitem(last=False)
                self.telemetry.counter("channel.leg_cache_evictions")
                self._dropped((evicted,))
            self._legs[key] = _LegEntry(row, box, speculation)

    def _sync_leg_cache(self) -> None:
        """Reconcile the leg cache with environment mutations.

        Attributed mutations purge only the entries whose ray corridor
        intersects a dirty region (unbounded ones always), in one
        vectorized overlap test over all entries per region; mutations
        the environment cannot attribute purge everything.
        """
        version = self.env.version
        if version == self._leg_version:
            return
        regions = self.env.dirty_regions(self._leg_version)
        self._leg_version = version
        if not self._legs:
            return
        if regions is None:
            dropped = list(self._legs.values())
            self._legs.clear()
            self.telemetry.counter("channel.leg_cache_full_purges")
            self.telemetry.counter("channel.legs_purged", len(dropped))
        else:
            pad = _CORRIDOR_PAD
            keys = list(self._legs)
            boxes = np.array([entry.box for entry in self._legs.values()])
            drop = np.zeros(len(keys), dtype=bool)
            for lo, hi in regions:
                drop |= _overlaps(boxes, np.array([lo - pad, hi + pad]))
            dropped = [self._legs.pop(keys[i]) for i in np.flatnonzero(drop)]
            if dropped:
                self.telemetry.counter("channel.legs_purged", len(dropped))
        self._dropped(dropped)
        self.telemetry.gauge("channel.leg_cache_size", len(self._legs))

    # ------------------------------------------------------------------

    def _purge_stale(self) -> None:
        """Eagerly drop models built against an older environment version.

        Their keys can never hit again (the key embeds the version), so
        keeping them would only crowd live entries out of the LRU.
        """
        version = self.env.version
        if version == self._last_version:
            return
        self._last_version = version
        stale = [k for k, (v, _) in self._cache.items() if v != version]
        for k in stale:
            del self._cache[k]
        if stale:
            self.telemetry.counter("channel.cache_stale_evictions", len(stale))
            self.telemetry.gauge("channel.cache_size", len(self._cache))

    @staticmethod
    def _panels_face_each_other(a: SurfacePanel, b: SurfacePanel) -> bool:
        """Geometric cull: reflective panels must be in front of each other."""
        def front(panel: SurfacePanel, point: np.ndarray) -> bool:
            if panel.spec.operation_mode is not OperationMode.REFLECTIVE:
                return True
            return float(np.dot(point - panel.center, panel.normal)) > 0.0

        return front(a, b.center) and front(b, a.center)

    # ------------------------------------------------------------------

    def invalidate(self) -> None:
        """Drop all cached models and legs, and reset hit/miss stats.

        The monotonic ``channel.cache_invalidations`` counter keeps
        counting across invalidations; ``cache_stats``,
        ``leg_cache_stats``, and the cache-size gauges restart from a
        clean slate so the numbers after an invalidation describe only
        the new epoch.
        """
        self._cache.clear()
        self._cache_hits = 0
        self._cache_misses = 0
        self._last_version = self.env.version
        self._legs.clear()
        self._leg_version = self.env.version
        self._leg_hits = 0
        self._legs_retraced = 0
        self._prefetched_legs = 0
        self._prefetch_hits = 0
        self._prefetch_wasted = 0
        self.telemetry.counter("channel.cache_invalidations")
        self.telemetry.gauge("channel.cache_size", 0)
        self.telemetry.gauge("channel.leg_cache_size", 0)


def live_configs(panels: Sequence[SurfacePanel]) -> Dict[str, np.ndarray]:
    """The panels' currently actuated configurations as coefficient vectors."""
    return {
        p.panel_id: p.configuration.coefficients().reshape(-1) for p in panels
    }
