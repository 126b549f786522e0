"""Unit tests for the telemetry substrate (spans, counters, export)."""

import json

import pytest

from repro.core.errors import SurfOSError
from repro.telemetry import (
    NULL_SPAN,
    Telemetry,
    load_jsonl,
    render_report,
)


class TestSpans:
    def test_span_records_wall_duration(self):
        t = Telemetry()
        with t.span("work") as span:
            pass
        assert span.wall_duration_s >= 0.0
        stats = t.snapshot().spans["work"]
        assert stats.count == 1
        assert stats.wall_total_s == pytest.approx(span.wall_duration_s)

    def test_nested_spans_get_slash_paths(self):
        t = Telemetry()
        with t.span("outer"):
            with t.span("inner"):
                pass
            with t.span("inner"):
                pass
        spans = t.snapshot().spans
        assert set(spans) == {"outer", "outer/inner"}
        assert spans["outer/inner"].count == 2
        assert spans["outer"].count == 1

    def test_span_attrs_land_in_event_log(self):
        t = Telemetry()
        with t.span("push", surfaces=3) as span:
            span.set(applied=2)
        (event,) = t.events("push")
        assert event.kind == "span"
        assert event.attrs == {"surfaces": 3, "applied": 2}

    def test_sim_clock_timing(self):
        t = Telemetry()
        clock = {"now": 10.0}
        t.bind_sim_clock(lambda: clock["now"])
        with t.span("settle") as span:
            clock["now"] += 2.5
        assert span.sim_duration_s == pytest.approx(2.5)
        assert t.snapshot().spans["settle"].sim_total_s == pytest.approx(2.5)

    def test_sim_clock_first_binding_wins(self):
        t = Telemetry()
        t.bind_sim_clock(lambda: 1.0)
        t.bind_sim_clock(lambda: 99.0)
        with t.span("x") as span:
            pass
        assert span.sim_start_s == 1.0
        t.bind_sim_clock(lambda: 99.0, force=True)
        with t.span("y") as span:
            pass
        assert span.sim_start_s == 99.0

    def test_stats_survive_event_log_rotation(self):
        t = Telemetry(max_events=4)
        for _ in range(10):
            with t.span("tick"):
                pass
        snap = t.snapshot()
        assert snap.spans["tick"].count == 10
        assert snap.events_logged == 4
        assert snap.events_dropped == 6


class TestCountersAndEvents:
    def test_counter_accumulates_and_returns_total(self):
        t = Telemetry()
        assert t.counter("hits") == 1
        assert t.counter("hits", 4) == 5
        assert t.get_counter("hits") == 5
        assert t.get_counter("absent") == 0
        assert t.counters == {"hits": 5}

    def test_gauge_keeps_latest_value(self):
        t = Telemetry()
        t.gauge("settle_s", 0.1)
        t.gauge("settle_s", 0.3)
        assert t.gauges == {"settle_s": 0.3}

    def test_point_events_filterable_by_name(self):
        t = Telemetry()
        t.event("reaction", latency_s=0.01)
        t.event("other")
        t.event("reaction", latency_s=0.02)
        events = t.events("reaction")
        assert [e.attrs["latency_s"] for e in events] == [0.01, 0.02]
        assert len(t.events()) == 3

    def test_event_inside_span_inherits_path(self):
        t = Telemetry()
        with t.span("daemon"):
            t.event("reaction")
        (event,) = t.events("reaction")
        assert event.path == "daemon/reaction"


class TestDisabled:
    def test_disabled_span_is_shared_noop(self):
        t = Telemetry(enabled=False)
        span = t.span("anything", attr=1)
        assert span is NULL_SPAN
        with span as s:
            assert s.set(more=2) is s
        assert span.wall_duration_s == 0.0
        assert t.snapshot().spans == {}

    def test_disabled_counters_and_events_record_nothing(self):
        t = Telemetry(enabled=False)
        assert t.counter("hits") == 0
        t.event("x")
        t.gauge("g", 1.0)
        snap = t.snapshot()
        assert not snap.counters and not snap.gauges
        assert snap.events_logged == 0


class TestExportAndReport:
    def test_export_round_trip(self, tmp_path):
        t = Telemetry()
        with t.span("reoptimize"):
            with t.span("push"):
                pass
        t.counter("pushes", 2)
        t.event("reaction", latency_s=0.01)
        path = str(tmp_path / "trace.jsonl")
        text = t.export_jsonl(path)
        assert (tmp_path / "trace.jsonl").read_text() == text

        records = load_jsonl(path)
        # Trailing snapshot record carries the aggregates.
        assert records[-1]["kind"] == "snapshot"
        assert records[-1]["counters"] == {"pushes": 2}
        kinds = [r["kind"] for r in records[:-1]]
        assert "span" in kinds and "event" in kinds

        report = render_report(records)
        assert "reoptimize/push" in report
        assert "pushes" in report
        assert "reaction" in report

    def test_report_rebuilds_spans_without_snapshot_line(self, tmp_path):
        t = Telemetry()
        with t.span("alpha"):
            pass
        records = load_jsonl_text(tmp_path, t.export_jsonl())
        no_snapshot = [r for r in records if r["kind"] != "snapshot"]
        assert "alpha" in render_report(no_snapshot)

    def test_load_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json at all\n")
        with pytest.raises(SurfOSError):
            load_jsonl(str(bad))

    def test_load_rejects_empty_file(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n")
        with pytest.raises(SurfOSError):
            load_jsonl(str(empty))

    def test_summary_renders_tables(self):
        t = Telemetry()
        with t.span("work"):
            pass
        t.counter("hits")
        t.gauge("level", 0.5)
        summary = t.summary()
        assert "Telemetry: spans" in summary
        assert "Telemetry: counters" in summary
        assert "Telemetry: gauges" in summary

    def test_empty_summary(self):
        assert Telemetry().summary() == "(no telemetry recorded)"


def load_jsonl_text(tmp_path, text):
    path = tmp_path / "roundtrip.jsonl"
    path.write_text(text)
    return load_jsonl(str(path))


def test_snapshot_as_dict_is_json_serializable():
    t = Telemetry()
    with t.span("a", n=1):
        t.counter("c")
    json.dumps(t.snapshot().as_dict())
