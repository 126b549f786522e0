"""In-memory span tracing around the program's public layer entry points.

The benchmark measures end-to-end numbers with tracing off.  A separate
traced episode installs :class:`Tracer` wrappers on the entry points in
:data:`ENTRY_POINTS` (class attributes, restored afterwards), so every
call made inside a drive-loop *unit* (one daemon cycle or one pipeline
tick) records a span: name, start, end, parent span, the unit id and,
where the call carries one, the request id.  Each unit span also
records how far the program's public counters (legs, prefetch, solver,
pipeline, hardware retries) moved during the unit, read just outside
its timed interval.  Spans stay in memory and are written out when the
run ends.

Only the benchmark's own files are involved; the program is unchanged.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from stats import covered, self_time

#: Layer entry points wrapped in traced episodes, as
#: ``(module, class, method, span name)``.  The optimizer's methods are
#: wrapped on the concrete class in use (see :meth:`Tracer.install`).
ENTRY_POINTS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.channel.simulator", "ChannelSimulator", "build", "channel.build"),
    ("repro.channel.simulator", "ChannelSimulator", "prefetch", "channel.prefetch"),
    ("repro.orchestrator.orchestrator", "SurfaceOrchestrator", "reoptimize",
     "orchestrator.reoptimize"),
    ("repro.orchestrator.scheduler", "Scheduler", "admit_batch",
     "orchestrator.admit_batch"),
    ("repro.hwmgr.manager", "HardwareManager", "push_configuration", "hwmgr.push"),
    ("repro.hwmgr.manager", "HardwareManager", "commit_all", "hwmgr.commit"),
    ("repro.broker.broker", "ServiceBroker", "serve", "broker.serve"),
    ("repro.pipeline.pipeline", "RequestPipeline", "tick", "pipeline.tick"),
    ("repro.pipeline.queue", "RequestQueue", "drain", "pipeline.drain"),
    ("repro.runtime.daemon", "SurfOSDaemon", "observe", "runtime.observe"),
    ("repro.runtime.dynamics", "EnvironmentDynamics", "step", "runtime.dynamics_step"),
)

#: Optimizer methods, wrapped on ``type(orchestrator.optimizer)``.
OPTIMIZER_METHODS: Tuple[Tuple[str, str], ...] = (
    ("optimize", "solver.optimize"),
    ("optimize_many", "solver.optimize"),
)

#: Name of the root span of one drive-loop unit.
UNIT = "unit"


@dataclass
class Span:
    """One recorded call."""

    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    unit: int = -1
    ref: str = ""
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def interval(self) -> Tuple[float, float]:
        return (self.start, self.end)

    def as_dict(self, index: int) -> Dict[str, object]:
        out = {
            "id": index,
            "name": self.name,
            "start_s": round(self.start, 9),
            "end_s": round(self.end, 9),
            "parent": self.parent,
            "unit": self.unit,
        }
        if self.ref:
            out["ref"] = self.ref
        if self.attrs:
            out["attrs"] = self.attrs
        return out


def _request_ref(args, kwargs) -> str:
    """The request id of a ``ServiceBroker.serve(request, ...)`` call."""
    request = args[1] if len(args) > 1 else kwargs.get("request")
    return getattr(request, "request_id", "")


#: Span names whose calls carry a request id, and how to read it.
_REFS: Dict[str, Callable] = {"broker.serve": _request_ref}


def _reoptimize_attrs(args, result) -> Dict[str, object]:
    # ``reoptimize`` solves for every active task, and leaves that set
    # unchanged, so reading it on return gives the tasks solved.
    return {"tasks": len(args[0].active_contexts())}


def _tick_attrs(args, result) -> Dict[str, object]:
    return {"drained": result.drained, "reoptimized": result.reoptimized}


def _push_attrs(args, result) -> Dict[str, object]:
    return {"latency_s": result.latency_s, "attempts": result.attempts}


#: Span names whose attributes are read from the call's result.
_ATTRS: Dict[str, Callable] = {
    "orchestrator.reoptimize": _reoptimize_attrs,
    "pipeline.tick": _tick_attrs,
    "hwmgr.push": _push_attrs,
}


class Tracer:
    """Records spans for calls made inside drive-loop units."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._unit = -1
        self._counters: Optional[Callable[[], Dict[str, object]]] = None
        self._counts_before: Dict[str, object] = {}
        self._patched: List[Tuple[type, str, Optional[object]]] = []

    # -- recording -------------------------------------------------------

    def open(self, name: str, ref: str = "") -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            Span(name, time.perf_counter(), parent=parent, unit=self._unit, ref=ref)
        )
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int, **attrs: object) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        if attrs:
            span.attrs.update(attrs)
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name} closed out of order")

    def begin_unit(
        self, unit: int, counters: Optional[Callable[[], Dict[str, object]]] = None
    ) -> int:
        """Open the root span of drive-loop unit ``unit``.

        ``counters`` reads the program's public counters; the unit span
        records how much each one moved while the unit ran.
        """
        self._unit = unit
        self._counters = counters
        self._counts_before = counters() if counters else {}
        return self.open(UNIT)

    def end_unit(self, index: int, **attrs: object) -> None:
        self.close(index, **attrs)
        if self._counters is not None:
            after = self._counters()
            moved = {
                name: after[name] - before
                for name, before in self._counts_before.items()
                if isinstance(before, (int, float)) and after[name] != before
            }
            self.spans[index].attrs["counts"] = moved
        self._unit = -1

    # -- wrapping --------------------------------------------------------

    def _wrap(self, cls: type, method: str, name: str) -> None:
        had = method in cls.__dict__
        original = cls.__dict__.get(method)
        target = getattr(cls, method)
        ref_of = _REFS.get(name)
        attrs_of = _ATTRS.get(name)
        tracer = self

        @functools.wraps(target)
        def traced(*args, **kwargs):
            if tracer._unit < 0:
                return target(*args, **kwargs)
            index = tracer.open(name, ref_of(args, kwargs) if ref_of else "")
            result = None
            try:
                result = target(*args, **kwargs)
                return result
            finally:
                extra = attrs_of(args, result) if attrs_of and result is not None else {}
                tracer.close(index, **extra)

        setattr(cls, method, traced)
        self._patched.append((cls, method, original if had else None))

    def install(self, optimizer_cls: type) -> None:
        """Wrap every entry point (idempotent per tracer)."""
        import importlib

        if self._patched:
            return
        for module, cls_name, method, name in ENTRY_POINTS:
            cls = getattr(importlib.import_module(module), cls_name)
            self._wrap(cls, method, name)
        for method, name in OPTIMIZER_METHODS:
            self._wrap(optimizer_cls, method, name)

    def uninstall(self) -> None:
        """Restore every wrapped class attribute, last wrapped first."""
        while self._patched:
            cls, method, original = self._patched.pop()
            if original is None:
                delattr(cls, method)
            else:
                setattr(cls, method, original)

    # -- analysis --------------------------------------------------------

    def named(self, *names: str) -> List[Span]:
        return [s for s in self.spans if s.name in names]

    def covered_s(self, *names: str) -> float:
        """Wall seconds covered by spans of ``names`` (overlaps once)."""
        return covered(s.interval for s in self.named(*names))

    def self_s(self, name: str) -> float:
        """Summed self time of every ``name`` span."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for span in self.spans:
            children.setdefault(span.parent, []).append(span.interval)
        return sum(
            self_time(span.interval, children.get(index, ()))
            for index, span in enumerate(self.spans)
            if span.name == name
        )

    def unattributed_s(self) -> float:
        """Unit wall time not covered by any layer span."""
        return self.self_s(UNIT)

    def export(self, path: str, meta: Dict[str, object]) -> None:
        """Write the spans as JSON lines, after one ``meta`` line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta}, sort_keys=True) + "\n")
            for index, span in enumerate(self.spans):
                fh.write(json.dumps(span.as_dict(index), sort_keys=True) + "\n")
