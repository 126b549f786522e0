"""The SurfOS telemetry substrate: spans, counters, and an event log.

Every control-plane layer reports into one :class:`Telemetry` instance
(the kernel wires a single one through the hardware manager, channel
simulator, orchestrator, daemon, and broker).  The design goals:

* **Nested spans** with wall-clock *and* simulated-clock timing, so
  "where does reoptimize() spend its time" and "how much simulated
  settle did the hardware pay" are both first-class questions.
* **Named counters and gauges** for cache hits, pushes, objective
  evaluations, daemon reactions, …
* **A bounded in-memory event log** (completed spans + point events)
  exportable as JSON lines for offline analysis.
* **Near-zero cost when disabled**: ``span()`` returns a shared no-op
  handle and counters return without touching any dict.

Aggregate span statistics are folded in as spans finish, so summaries
survive event-log rotation.
"""

from __future__ import annotations

import json
import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

from .histogram import StreamingHistogram


def _strip_wall_fields(value: object) -> object:
    """Recursively drop ``wall_*`` keys (used by sim-only exports)."""
    if isinstance(value, dict):
        return {
            k: _strip_wall_fields(v)
            for k, v in value.items()
            if not str(k).startswith("wall")
        }
    if isinstance(value, list):
        return [_strip_wall_fields(v) for v in value]
    return value


def _format_metric(value: object) -> str:
    """Render a counter/gauge value (numeric or label) for a table."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return str(value)
    return f"{value:g}"


@dataclass(frozen=True)
class TelemetryEvent:
    """One completed span or point event in the log.

    Attributes:
        kind: ``"span"`` for timed spans, ``"event"`` for point events.
        name: leaf name (``"channel-build"``).
        path: slash-joined nesting path (``"reoptimize/channel-build"``).
        seq: monotonically increasing sequence number.
        wall_start_s: start offset from the telemetry epoch (seconds).
        wall_duration_s: wall-clock duration (0.0 for point events).
        sim_start_s: simulated time at start, when a sim clock is bound.
        sim_duration_s: simulated time elapsed, when a sim clock is bound.
        attrs: free-form attributes attached by the instrumented code.
    """

    kind: str
    name: str
    path: str
    seq: int
    wall_start_s: float
    wall_duration_s: float
    sim_start_s: Optional[float] = None
    sim_duration_s: Optional[float] = None
    attrs: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable form (used by :meth:`Telemetry.export_jsonl`)."""
        out: Dict[str, object] = {
            "kind": self.kind,
            "name": self.name,
            "path": self.path,
            "seq": self.seq,
            "wall_start_s": round(self.wall_start_s, 9),
            "wall_duration_s": round(self.wall_duration_s, 9),
        }
        if self.sim_start_s is not None:
            out["sim_start_s"] = self.sim_start_s
        if self.sim_duration_s is not None:
            out["sim_duration_s"] = self.sim_duration_s
        if self.attrs:
            out["attrs"] = self.attrs
        return out


@dataclass
class SpanStats:
    """Aggregate statistics for all spans sharing one path."""

    count: int = 0
    wall_total_s: float = 0.0
    wall_min_s: float = math.inf
    wall_max_s: float = 0.0
    sim_total_s: float = 0.0

    @property
    def wall_mean_s(self) -> float:
        """Mean wall-clock duration per span."""
        return self.wall_total_s / self.count if self.count else 0.0

    def add(self, wall_s: float, sim_s: Optional[float]) -> None:
        """Fold one finished span in."""
        self.count += 1
        self.wall_total_s += wall_s
        self.wall_min_s = min(self.wall_min_s, wall_s)
        self.wall_max_s = max(self.wall_max_s, wall_s)
        if sim_s is not None:
            self.sim_total_s += sim_s

    def as_dict(self) -> Dict[str, float]:
        """JSON-serializable form."""
        return {
            "count": self.count,
            "wall_total_s": self.wall_total_s,
            "wall_mean_s": self.wall_mean_s,
            "wall_min_s": self.wall_min_s if self.count else 0.0,
            "wall_max_s": self.wall_max_s,
            "sim_total_s": self.sim_total_s,
        }


class _NullSpan:
    """Shared no-op span handle used while telemetry is disabled."""

    __slots__ = ()

    path = ""
    wall_duration_s = 0.0
    sim_duration_s = None

    def set(self, **attrs: object) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


NULL_SPAN = _NullSpan()


class Span:
    """A live timed span; use as a context manager.

    After ``__exit__`` the handle keeps ``wall_duration_s`` /
    ``sim_duration_s``, so callers can read the measured timings back
    (the orchestrator builds its per-phase timing summary this way).
    """

    __slots__ = (
        "_telemetry",
        "name",
        "path",
        "attrs",
        "wall_start_s",
        "wall_duration_s",
        "sim_start_s",
        "sim_duration_s",
    )

    def __init__(self, telemetry: "Telemetry", name: str, attrs: Dict[str, object]):
        self._telemetry = telemetry
        self.name = name
        self.path = name
        self.attrs = attrs
        self.wall_start_s = 0.0
        self.wall_duration_s = 0.0
        self.sim_start_s: Optional[float] = None
        self.sim_duration_s: Optional[float] = None

    def set(self, **attrs: object) -> "Span":
        """Attach or update attributes mid-span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        t = self._telemetry
        t._stack.append(self.name)
        self.path = "/".join(t._stack)
        self.sim_start_s = t._sim_now()
        self.wall_start_s = time.perf_counter() - t._epoch
        return self

    def __exit__(self, *exc: object) -> bool:
        t = self._telemetry
        self.wall_duration_s = (time.perf_counter() - t._epoch) - self.wall_start_s
        sim_now = t._sim_now()
        if self.sim_start_s is not None and sim_now is not None:
            self.sim_duration_s = sim_now - self.sim_start_s
        if t._stack and t._stack[-1] == self.name:
            t._stack.pop()
        t._finish_span(self)
        return False


@dataclass
class TelemetrySnapshot:
    """A point-in-time copy of every aggregate the telemetry holds."""

    spans: Dict[str, SpanStats]
    counters: Dict[str, float]
    gauges: Dict[str, object]
    events_logged: int
    events_dropped: int
    #: Streaming-histogram summaries (p50/p99/p999 etc.), keyed by name.
    histograms: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """JSON-serializable form."""
        out: Dict[str, object] = {
            "spans": {p: s.as_dict() for p, s in self.spans.items()},
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "events_logged": self.events_logged,
            "events_dropped": self.events_dropped,
        }
        if self.histograms:
            out["histograms"] = {
                name: dict(summary)
                for name, summary in self.histograms.items()
            }
        return out

    def render(self) -> str:
        """Human-readable summary tables (spans, counters, gauges)."""
        from ..analysis.tables import render_table

        blocks: List[str] = []
        if self.spans:
            rows = [
                (
                    path,
                    stats.count,
                    f"{stats.wall_total_s * 1e3:.2f}",
                    f"{stats.wall_mean_s * 1e3:.2f}",
                    f"{stats.wall_max_s * 1e3:.2f}",
                    f"{stats.sim_total_s:.4g}",
                )
                for path, stats in sorted(self.spans.items())
            ]
            blocks.append(
                render_table(
                    ("span", "count", "wall total ms", "mean ms", "max ms", "sim s"),
                    rows,
                    title="Telemetry: spans",
                )
            )
        if self.counters:
            rows = [
                (name, f"{value:g}")
                for name, value in sorted(self.counters.items())
            ]
            blocks.append(
                render_table(("counter", "value"), rows, title="Telemetry: counters")
            )
        if self.gauges:
            rows = [
                (name, _format_metric(value))
                for name, value in sorted(self.gauges.items())
            ]
            blocks.append(
                render_table(("gauge", "value"), rows, title="Telemetry: gauges")
            )
        if self.histograms:
            rows = [
                (
                    name,
                    f"{summary.get('count', 0):g}",
                    f"{summary.get('mean', 0.0):.4g}",
                    f"{summary.get('p50', 0.0):.4g}",
                    f"{summary.get('p99', 0.0):.4g}",
                    f"{summary.get('p999', 0.0):.4g}",
                )
                for name, summary in sorted(self.histograms.items())
            ]
            blocks.append(
                render_table(
                    ("histogram", "count", "mean", "p50", "p99", "p999"),
                    rows,
                    title="Telemetry: histograms",
                )
            )
        if not blocks:
            return "(no telemetry recorded)"
        return "\n\n".join(blocks)


class Telemetry:
    """Tracing + metrics for one SurfOS deployment.

    Args:
        enabled: start collecting immediately (disable for zero-cost).
        max_events: bound on the in-memory event log; older events are
            dropped (aggregates are unaffected by rotation).
        sim_clock: optional zero-argument callable returning simulated
            time; spans then also carry sim-clock timing.
    """

    def __init__(
        self,
        enabled: bool = True,
        max_events: int = 10000,
        sim_clock: Optional[Callable[[], float]] = None,
    ):
        self.enabled = enabled
        self.max_events = max_events
        self._sim_clock = sim_clock
        self._epoch = time.perf_counter()
        self._events: Deque[TelemetryEvent] = deque(maxlen=max_events)
        self._span_stats: Dict[str, SpanStats] = {}
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, object] = {}
        self._histograms: Dict[str, StreamingHistogram] = {}
        self._stack: List[str] = []
        self._seq = 0
        self._dropped = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def bind_sim_clock(
        self, sim_clock: Callable[[], float], force: bool = False
    ) -> None:
        """Attach a simulated-time source (first binding wins by default)."""
        if self._sim_clock is None or force:
            self._sim_clock = sim_clock

    def _sim_now(self) -> Optional[float]:
        return self._sim_clock() if self._sim_clock is not None else None

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def span(self, name: str, **attrs: object) -> "Span":
        """Open a (nested) timed span; use as a context manager."""
        if not self.enabled:
            return NULL_SPAN  # type: ignore[return-value]
        return Span(self, name, attrs)

    def event(self, name: str, **attrs: object) -> None:
        """Record an instantaneous point event."""
        if not self.enabled:
            return
        path = "/".join(self._stack + [name]) if self._stack else name
        self._append(
            TelemetryEvent(
                kind="event",
                name=name,
                path=path,
                seq=self._next_seq(),
                wall_start_s=time.perf_counter() - self._epoch,
                wall_duration_s=0.0,
                sim_start_s=self._sim_now(),
                attrs=attrs,
            )
        )

    def counter(self, name: str, value: float = 1) -> float:
        """Increment a named counter; returns the new total."""
        if not self.enabled:
            return self._counters.get(name, 0)
        total = self._counters.get(name, 0) + value
        self._counters[name] = total
        return total

    def gauge(self, name: str, value) -> None:
        """Set a named gauge to its latest value (a number or a label).

        String values make configuration visible in the same place as
        measurements (e.g. an optimizer or scene name).
        """
        if not self.enabled:
            return
        self._gauges[name] = value

    def histogram(
        self,
        name: str,
        bucket_width: float = 0.001,
        buckets: int = 4096,
    ) -> StreamingHistogram:
        """The named streaming histogram, created on first use.

        The grid is fixed by the first caller; later callers get the
        existing histogram regardless of the arguments they pass (one
        metric, one grid).  Returned histograms stay live — ``observe``
        on them feeds the snapshot/summary/export path directly.
        """
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = StreamingHistogram(
                bucket_width=bucket_width, buckets=buckets
            )
        return hist

    def observe(self, name: str, value: float) -> None:
        """Fold one value into the named histogram (O(1) streaming)."""
        if not self.enabled:
            return
        self.histogram(name).observe(value)

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _append(self, event: TelemetryEvent) -> None:
        if len(self._events) == self.max_events:
            self._dropped += 1
        self._events.append(event)

    def _finish_span(self, span: Span) -> None:
        stats = self._span_stats.get(span.path)
        if stats is None:
            stats = self._span_stats[span.path] = SpanStats()
        stats.add(span.wall_duration_s, span.sim_duration_s)
        self._append(
            TelemetryEvent(
                kind="span",
                name=span.name,
                path=span.path,
                seq=self._next_seq(),
                wall_start_s=span.wall_start_s,
                wall_duration_s=span.wall_duration_s,
                sim_start_s=span.sim_start_s,
                sim_duration_s=span.sim_duration_s,
                attrs=span.attrs,
            )
        )

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def events(self, name: Optional[str] = None) -> List[TelemetryEvent]:
        """The logged events, optionally filtered by leaf name."""
        if name is None:
            return list(self._events)
        return [e for e in self._events if e.name == name]

    @property
    def counters(self) -> Dict[str, float]:
        """Current counter totals."""
        return dict(self._counters)

    @property
    def gauges(self) -> Dict[str, float]:
        """Latest gauge values."""
        return dict(self._gauges)

    def get_counter(self, name: str, default: float = 0) -> float:
        """One counter's total."""
        return self._counters.get(name, default)

    def snapshot(self) -> TelemetrySnapshot:
        """A point-in-time copy of all aggregates."""
        return TelemetrySnapshot(
            spans={
                path: SpanStats(
                    count=s.count,
                    wall_total_s=s.wall_total_s,
                    wall_min_s=s.wall_min_s,
                    wall_max_s=s.wall_max_s,
                    sim_total_s=s.sim_total_s,
                )
                for path, s in self._span_stats.items()
            },
            counters=dict(self._counters),
            gauges=dict(self._gauges),
            events_logged=len(self._events),
            events_dropped=self._dropped,
            histograms={
                name: hist.as_dict()
                for name, hist in self._histograms.items()
            },
        )

    def export_jsonl(
        self, path: Optional[str] = None, sim_only: bool = False
    ) -> str:
        """Serialize the event log (plus a trailing summary record).

        Returns the JSON-lines text; when ``path`` is given the text is
        also written to that file.  The last line is a ``"snapshot"``
        record carrying counters, gauges, and span aggregates so a
        report can be rebuilt without replaying every event.

        With ``sim_only`` every wall-clock field (``wall_*``) is
        stripped recursively, leaving only simulated-time, count, and
        attribute fields.  Two runs of a seeded scenario then export
        byte-identical text — CI diffs the two exports to catch
        nondeterminism.
        """
        records = [e.as_dict() for e in self._events]
        summary: Dict[str, object] = {"kind": "snapshot"}
        summary.update(self.snapshot().as_dict())
        records.append(summary)
        if sim_only:
            records = [_strip_wall_fields(r) for r in records]
        lines = [json.dumps(r, sort_keys=True) for r in records]
        text = "\n".join(lines) + "\n"
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        return text

    def summary(self) -> str:
        """Human-readable summary tables."""
        return self.snapshot().render()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "enabled" if self.enabled else "disabled"
        return (
            f"Telemetry({state}, {len(self._events)} events, "
            f"{len(self._span_stats)} span paths, "
            f"{len(self._counters)} counters)"
        )
