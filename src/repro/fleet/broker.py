"""The fleet broker: one handle-based front door over N environment shards.

:class:`FleetBroker` exposes the same
:class:`~repro.broker.frontend.ServiceFrontend` surface as a
single-environment :class:`~repro.broker.broker.ServiceBroker` —
``register_application`` returns a live
:class:`~repro.broker.handle.ServiceHandle` — while routing every
request to one of N independent shards via a pluggable
:class:`~repro.fleet.placement.PlacementStrategy`.

Global admission rules:

* **Spill on quarantine** — when the strategy's first choice is
  quarantined (operator action or total hardware loss on the PR-3
  health ladder), the request spills to the next ranked candidate and
  the decision records ``fallback_used``.
* **Reject on saturation** — when the chosen shard's bounded request
  queue is full, the fleet propagates the queue's reject-with-reason
  backpressure as a ``REJECTED`` :class:`ServiceResponse` (never an
  exception on the typed ``submit_request`` path).
* **Fleet-level dedup** — one ``app@client`` key is live on at most
  one shard at a time.

Every placement is stamped on the response and handle as a
:class:`~repro.fleet.placement.RoutingDecision`, and the shared
telemetry stream carries ``fleet.routed`` / ``fleet.spilled`` /
``fleet.rejected`` / ``fleet.rebalanced`` counters plus per-shard load
gauges.  All shards tick on one shared sim clock with staggered
coalescing windows, so reoptimization load spreads across ticks and
same-seed runs export byte-identical sim-only JSONL.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..broker.calls import (
    RequestStatus,
    ServiceRequest,
    ServiceResponse,
)
from ..broker.demands import ApplicationDemand
from ..broker.handle import ServiceHandle
from ..core.errors import ServiceError
from ..runtime.clock import SimClock
from ..telemetry import Telemetry
from .placement import CongestionAware, PlacementStrategy, RoutingDecision
from .shard import EnvironmentShard, ShardLoad, ShardSpec

#: Handle states that still hold their registry key at fleet level.
_LIVE_STATES = frozenset(("queued", "admitted", "running"))

#: Default per-shard stagger added to the coalescing window (seconds).
DEFAULT_STAGGER_S = 0.05


class FleetBroker:
    """Routes handle-based service requests across environment shards."""

    def __init__(
        self,
        specs: Sequence[ShardSpec],
        strategy: Optional[PlacementStrategy] = None,
        telemetry: Optional[Telemetry] = None,
        clock: Optional[SimClock] = None,
        stagger_s: float = DEFAULT_STAGGER_S,
    ):
        if not specs:
            raise ServiceError("a fleet needs at least one shard")
        ids = [spec.shard_id for spec in specs]
        if len(set(ids)) != len(ids):
            raise ServiceError(f"duplicate shard ids: {ids}")
        self.clock = clock or SimClock()
        self.telemetry = telemetry or Telemetry()
        # Bind the fleet clock before any shard orchestrator can bind
        # its own — one simulated timeline across the whole fleet.
        self.telemetry.bind_sim_clock(lambda: self.clock.now)
        self.strategy = strategy or CongestionAware()
        self.shards: Dict[str, EnvironmentShard] = {}
        for index, spec in enumerate(specs):
            self.shards[spec.shard_id] = EnvironmentShard(
                spec,
                clock=self.clock,
                telemetry=self.telemetry,
                stagger_s=index * stagger_s,
            )
        #: app@client key → shard id of the live registration.
        self._routes: Dict[str, str] = {}
        #: Every handle the fleet has issued, keyed like the routes.
        self._handles: Dict[str, ServiceHandle] = {}
        #: Per-shard load snapshots, refreshed on every tick and
        #: adjusted incrementally between ticks (placements bump the
        #: chosen shard's depth/task count) so per-request routing
        #: never rescans scheduler or hardware state.
        self._load_cache: Dict[str, ShardLoad] = {}

    # -- load and placement ---------------------------------------------

    def loads(self) -> Dict[str, ShardLoad]:
        """Current load snapshot of every shard, in declaration order."""
        cache = self._load_cache
        out: Dict[str, ShardLoad] = {}
        for sid, shard in self.shards.items():
            load = cache.get(sid)
            if load is None:
                load = shard.load()
                cache[sid] = load
            out[sid] = load
        return out

    def _invalidate_load(self, shard_id: Optional[str] = None) -> None:
        """Drop cached load state for one shard (or the whole fleet)."""
        if shard_id is None:
            self._load_cache.clear()
        else:
            self._load_cache.pop(shard_id, None)

    def shard_of(self, app_name: str, client_id: str) -> EnvironmentShard:
        """The shard currently serving ``app@client``."""
        key = f"{app_name}@{client_id}"
        try:
            return self.shards[self._routes[key]]
        except KeyError:
            raise ServiceError(f"unknown application {key!r}") from None

    def _place(
        self, request: ServiceRequest
    ) -> Tuple[Optional[EnvironmentShard], RoutingDecision]:
        """Rank shards and pick the first non-quarantined candidate.

        Quarantined shards are skipped (spill); the decision records
        whether the eventual choice was a fallback.  Returns
        ``(None, decision)`` when every shard is quarantined.
        """
        loads = self.loads()
        ranked = self.strategy.rank(request, loads)
        candidates = tuple(sid for sid, _ in ranked)
        for position, (shard_id, cost) in enumerate(ranked):
            if loads[shard_id].quarantined:
                continue
            return self.shards[shard_id], RoutingDecision(
                shard_id=shard_id,
                strategy=self.strategy.name,
                cost=cost,
                fallback_used=position > 0,
                candidates=candidates,
            )
        return None, RoutingDecision(
            shard_id="",
            strategy=self.strategy.name,
            cost=float("inf"),
            fallback_used=bool(ranked),
            candidates=candidates,
        )

    def _duplicate_reason(self, key: str) -> str:
        """Non-empty when ``key`` is still live somewhere in the fleet."""
        handle = self._handles.get(key)
        if handle is not None and handle.status.value in _LIVE_STATES:
            shard_id = self._routes.get(key, "?")
            return (
                f"application {key!r} already served by fleet "
                f"(shard {shard_id!r})"
            )
        return ""

    def _reject(
        self,
        request: ServiceRequest,
        reason: str,
        routing: RoutingDecision,
        handle: Optional[ServiceHandle] = None,
    ) -> ServiceResponse:
        if handle is None:
            handle = ServiceHandle(self, request)
        handle._mark_rejected(reason)
        handle.routing = routing
        self.telemetry.counter("fleet.rejected")
        return ServiceResponse(
            status=RequestStatus.REJECTED,
            request=request,
            reason=reason,
            handle=handle,
            key=request.key,
            routing=routing,
        )

    def _record_placement(
        self,
        request: ServiceRequest,
        response: ServiceResponse,
        decision: RoutingDecision,
    ) -> None:
        response.routing = decision
        if response.handle is not None:
            response.handle.routing = decision
        if response.status is RequestStatus.REJECTED:
            self.telemetry.counter("fleet.rejected")
            return
        self._routes[request.key] = decision.shard_id
        if response.handle is not None:
            self._handles[request.key] = response.handle
        cached = self._load_cache.get(decision.shard_id)
        if cached is not None:
            queued = response.status is RequestStatus.QUEUED
            self._load_cache[decision.shard_id] = ShardLoad(
                shard_id=cached.shard_id,
                queue_depth=cached.queue_depth + (1 if queued else 0),
                queue_capacity=cached.queue_capacity,
                active_tasks=cached.active_tasks + (0 if queued else 1),
                operational_fraction=cached.operational_fraction,
                quarantined=cached.quarantined,
            )
        self.telemetry.counter("fleet.routed")
        if decision.fallback_used:
            self.telemetry.counter("fleet.spilled")

    # -- the typed request paths ----------------------------------------

    def serve(self, request: ServiceRequest) -> ServiceResponse:
        """Route and serve one request synchronously (no queueing).

        Never raises for predictable rejections — every-shard-down and
        fleet-duplicate cases come back as ``REJECTED`` responses with
        the :class:`RoutingDecision` attached.
        """
        duplicate = self._duplicate_reason(request.key)
        shard, decision = self._place(request)
        if duplicate:
            return self._reject(request, duplicate, decision)
        if shard is None:
            return self._reject(
                request,
                "no usable shard: every shard is quarantined",
                decision,
            )
        shard.ensure_client(request.demand.client_id)
        response = shard.broker.serve(request)
        self._record_placement(request, response, decision)
        return response

    def submit_request(self, request: ServiceRequest) -> ServiceResponse:
        """Route one request into its shard's bounded pipeline queue.

        The backpressure contract holds fleet-wide: a saturated shard
        queue answers with the queue's own reject-with-reason response
        (status ``REJECTED``), never an exception.
        """
        duplicate = self._duplicate_reason(request.key)
        shard, decision = self._place(request)
        if duplicate:
            return self._reject(request, duplicate, decision)
        if shard is None:
            return self._reject(
                request,
                "no usable shard: every shard is quarantined",
                decision,
            )
        shard.ensure_client(request.demand.client_id)
        response = shard.pipeline.submit_request(request)
        self._record_placement(request, response, decision)
        return response

    # -- ServiceFrontend -------------------------------------------------

    def register_application(
        self, demand: ApplicationDemand
    ) -> ServiceHandle:
        """Route a demand to a shard and serve it; returns its handle."""
        request = ServiceRequest(demand=demand, submitted_at=self.clock.now)
        response = self.serve(request)
        if response.status is RequestStatus.REJECTED:
            raise ServiceError(response.reason)
        return response.handle

    def submit(
        self,
        demand: ApplicationDemand,
        priority: Optional[int] = None,
    ) -> ServiceHandle:
        """Queue a demand on its routed shard; returns the handle.

        The handle starts ``QUEUED`` (or ``REJECTED`` under
        backpressure) and progresses as :meth:`tick` drains the shard
        pipelines.
        """
        request = ServiceRequest(
            demand=demand, submitted_at=self.clock.now, priority=priority
        )
        return self.submit_request(request).handle

    def stop_application(
        self, app_name: str, client_id: str
    ) -> ServiceResponse:
        """Stop ``app@client`` on whichever shard serves it."""
        shard = self.shard_of(app_name, client_id)
        response = shard.broker.stop_application(app_name, client_id)
        self._routes.pop(f"{app_name}@{client_id}", None)
        self._invalidate_load(shard.shard_id)
        self.telemetry.counter("fleet.stops")
        return response

    def handle_for(self, app_name: str, client_id: str) -> ServiceHandle:
        """Look up the fleet handle registered under ``app@client``."""
        key = f"{app_name}@{client_id}"
        try:
            return self._handles[key]
        except KeyError:
            raise ServiceError(f"unknown application {key!r}") from None

    def applications(self) -> List[ServiceHandle]:
        """Every handle the fleet has issued, in submission order."""
        return list(self._handles.values())

    def satisfaction(self, handle: ServiceHandle) -> Dict[str, object]:
        """Delegate a satisfaction report to the handle's own broker."""
        return handle.satisfaction()

    # -- shard health ----------------------------------------------------

    def quarantine_shard(
        self, shard_id: str, reason: str = "operator"
    ) -> None:
        """Pull one shard out of placement rotation."""
        shard = self._shard(shard_id)
        if not shard.fleet_quarantined:
            shard.fleet_quarantined = True
            self._invalidate_load(shard_id)
            self.telemetry.counter("fleet.shard_quarantines")

    def reinstate_shard(self, shard_id: str) -> None:
        """Put a quarantined shard back into rotation."""
        self._shard(shard_id).fleet_quarantined = False
        self._invalidate_load(shard_id)

    def _shard(self, shard_id: str) -> EnvironmentShard:
        try:
            return self.shards[shard_id]
        except KeyError:
            raise ServiceError(f"unknown shard {shard_id!r}") from None

    # -- rebalancing -----------------------------------------------------

    def handoff(
        self, app_name: str, client_id: str, to_shard: str
    ) -> ServiceHandle:
        """Move a live application to a named shard (roaming client).

        Stops the registration on the source shard and re-registers the
        same demand on the target, bypassing the placement strategy
        (the caller knows where the client went).  Returns the new
        handle; ``fleet.rebalanced`` counts the move.
        """
        target = self._shard(to_shard)
        if target.load().quarantined:
            raise ServiceError(
                f"cannot hand off to quarantined shard {to_shard!r}"
            )
        source = self.shard_of(app_name, client_id)
        key = f"{app_name}@{client_id}"
        demand = self._handles[key].request.demand
        if source.shard_id == to_shard:
            return self._handles[key]
        source.broker.stop_application(app_name, client_id)
        target.ensure_client(client_id)
        request = ServiceRequest(demand=demand, submitted_at=self.clock.now)
        response = target.broker.serve(request)
        if response.status is RequestStatus.REJECTED:
            # The source registration is already stopped; surface the
            # failure loudly rather than silently dropping the app.
            self._routes.pop(key, None)
            raise ServiceError(
                f"handoff of {key!r} to {to_shard!r} failed: "
                f"{response.reason}"
            )
        decision = RoutingDecision(
            shard_id=to_shard,
            strategy="handoff",
            cost=0.0,
            fallback_used=False,
            candidates=(to_shard,),
        )
        response.routing = decision
        response.handle.routing = decision
        self._routes[key] = to_shard
        self._handles[key] = response.handle
        # The direct serve path creates tasks without queue admission,
        # so nudge the target's coalescing window to pick them up.
        target.pipeline.note_trigger("handoff")
        self._invalidate_load(source.shard_id)
        self._invalidate_load(to_shard)
        self.telemetry.counter("fleet.rebalanced")
        return response.handle

    # -- the engine ------------------------------------------------------

    def tick(self, dt: float = 0.1) -> None:
        """Advance the shared clock, then tick every shard pipeline.

        Shards tick in declaration order; their staggered coalescing
        windows spread the joint solves across successive ticks.
        Per-shard load gauges are refreshed after the sweep.
        """
        self.clock.advance(dt)
        for shard in self.shards.values():
            shard.pipeline.tick()
        self._invalidate_load()
        for sid, load in self.loads().items():
            self.telemetry.gauge(
                f"fleet.shard.{sid}.queue_depth", load.queue_depth
            )
            self.telemetry.gauge(
                f"fleet.shard.{sid}.active_tasks", load.active_tasks
            )

    def run(self, steps: int, dt: float = 0.1) -> None:
        """Tick the fleet ``steps`` times."""
        for _ in range(steps):
            self.tick(dt)

    # -- observability ---------------------------------------------------

    def export_jsonl(
        self, path: Optional[str] = None, sim_only: bool = False
    ) -> str:
        """Export the aggregated fleet telemetry stream."""
        return self.telemetry.export_jsonl(path, sim_only=sim_only)

    def summary(self) -> str:
        """One-line fleet state."""
        parts = []
        for sid, load in self.loads().items():
            flag = " (quarantined)" if load.quarantined else ""
            parts.append(
                f"{sid}: q={load.queue_depth}/{load.queue_capacity} "
                f"tasks={load.active_tasks}{flag}"
            )
        return f"FleetBroker[{self.strategy.name}] " + "; ".join(parts)
