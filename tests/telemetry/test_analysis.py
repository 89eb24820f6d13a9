"""Trace analytics: forest reconstruction, critical paths, flame export."""

import io
import re

import pytest

from repro.telemetry.analysis import (
    SpanRecord,
    TraceAnalysisError,
    aggregate_spans,
    build_forest,
    critical_path,
    folded_stacks,
    format_span_table,
    load_jsonl_spans,
    phase_report,
    render_folded,
    render_forest,
)


def span(name, span_id, parent, start, end, **fields):
    return SpanRecord(
        name=name, span_id=span_id, parent_id=parent,
        start=start, end=end, fields=fields,
    )


def request_tree():
    """One request span with a QCS phase and a probing phase under it."""
    return [
        span("request", 0, None, 0.0, 10.0),
        span("qcs.compose", 1, 0, 0.0, 6.0),
        span("qcs.graph_build", 2, 1, 0.0, 2.0),
        span("qcs.solve", 3, 1, 2.0, 6.0),
        span("probing.resolve", 4, 0, 6.0, 9.0),
    ]


class TestForest:
    def test_builds_tree_from_parent_links(self):
        forest = build_forest(request_tree())
        assert len(forest) == 1
        root = forest[0]
        assert root.name == "request"
        assert [c.name for c in root.children] == [
            "qcs.compose", "probing.resolve"
        ]
        assert [c.name for c in root.children[0].children] == [
            "qcs.graph_build", "qcs.solve"
        ]

    def test_orphan_parent_becomes_root(self):
        # Parent id 42 never closed (still open at export time).
        forest = build_forest([span("lookup", 7, 42, 1.0, 2.0)])
        assert len(forest) == 1
        assert forest[0].name == "lookup"

    def test_children_sorted_by_start(self):
        records = [
            span("root", 0, None, 0.0, 5.0),
            span("late", 2, 0, 3.0, 4.0),
            span("early", 1, 0, 1.0, 2.0),
        ]
        forest = build_forest(records)
        assert [c.name for c in forest[0].children] == ["early", "late"]

    def test_self_time_excludes_children(self):
        root = build_forest(request_tree())[0]
        # 10 total - (6 compose + 3 probing) = 1 of own time.
        assert root.self_time == pytest.approx(1.0)
        compose = root.children[0]
        # 6 total - (2 + 4) children = 0.
        assert compose.self_time == pytest.approx(0.0)

    def test_self_time_clamped_when_children_overlap(self):
        records = [
            span("root", 0, None, 0.0, 1.0),
            span("a", 1, 0, 0.0, 1.0),
            span("b", 2, 0, 0.0, 1.0),
        ]
        assert build_forest(records)[0].self_time == 0.0

    def test_walk_is_depth_first_parent_before_children(self):
        root = build_forest(request_tree())[0]
        names = [n.name for n in root.walk()]
        assert names == [
            "request", "qcs.compose", "qcs.graph_build", "qcs.solve",
            "probing.resolve",
        ]


class TestIngestion:
    def test_load_jsonl_telemetry_unit_is_minutes(self):
        stream = io.StringIO(
            '{"t": 2.0, "seq": 0, "event": "span", "name": "request", '
            '"id": 0, "parent": null, "start": 1.0}\n'
            '{"t": 2.0, "seq": 1, "event": "lookup.done", "hops": 3}\n'
        )
        records, unit = load_jsonl_spans(stream)
        assert unit == "min"
        assert len(records) == 1

    def test_load_jsonl_profile_unit_is_seconds(self):
        stream = io.StringIO(
            '{"t": 0.5, "seq": 0, "event": "span", "name": "request", '
            '"id": 0, "parent": null, "start": 0.1, "unit": "s"}\n'
        )
        _, unit = load_jsonl_spans(stream)
        assert unit == "s"

    def test_invalid_json_raises_with_line_number(self):
        with pytest.raises(TraceAnalysisError, match="line 2"):
            load_jsonl_spans(io.StringIO('{"event": "other"}\n{nope\n'))

    def test_missing_span_field_raises(self):
        with pytest.raises(TraceAnalysisError, match="missing field"):
            load_jsonl_spans(io.StringIO(
                '{"t": 1.0, "event": "span", "name": "x", "id": 0}\n'
            ))


class TestAggregation:
    def test_per_name_totals(self):
        stats = aggregate_spans(build_forest(request_tree()))
        assert stats["request"].count == 1
        assert stats["request"].total == pytest.approx(10.0)
        assert stats["qcs.solve"].self_total == pytest.approx(4.0)
        assert stats["qcs.compose"].self_total == pytest.approx(0.0)

    def test_table_sorted_by_self_time(self):
        stats = aggregate_spans(build_forest(request_tree()))
        table = format_span_table(stats, unit="min")
        rows = table.splitlines()[1:]
        assert rows[0].startswith("qcs.solve")  # largest self time first

    def test_empty_table(self):
        assert format_span_table({}, unit="s") == "(no spans)"


class TestCriticalPath:
    def test_follows_largest_duration_child(self):
        root = build_forest(request_tree())[0]
        chain = [n.name for n in critical_path(root)]
        assert chain == ["request", "qcs.compose", "qcs.solve"]

    def test_phase_report_names_dominant_phase(self):
        report = phase_report(build_forest(request_tree()))
        assert "1 'request' trees" in report
        # qcs.solve holds 4 of 10 units of self time -> the dominant phase.
        assert "qcs.solve" in report
        assert "dominant phase per tree" in report
        assert "critical path of slowest tree" in report

    def test_phase_report_zero_duration_fallback(self):
        records = [
            span("request", 0, None, 3.0, 3.0),
            span("qcs.compose", 1, 0, 3.0, 3.0),
        ]
        report = phase_report(build_forest(records))
        assert "zero duration" in report
        assert "repro profile run" in report

    def test_phase_report_missing_root_lists_names(self):
        report = phase_report(build_forest(request_tree()), root_name="nope")
        assert "no 'nope' spans" in report
        assert "request" in report


FOLDED_LINE = re.compile(r"^\S+(;\S+)* \d+$")


class TestFlameExport:
    def test_folded_lines_are_valid(self):
        text = render_folded(folded_stacks(build_forest(request_tree())))
        lines = text.splitlines()
        assert lines
        for line in lines:
            assert FOLDED_LINE.match(line), f"bad folded line: {line!r}"

    def test_weights_are_scaled_self_times(self):
        stacks = folded_stacks(build_forest(request_tree()))
        assert stacks["request;qcs.compose;qcs.solve"] == 4_000_000
        assert stacks["request"] == 1_000_000
        # Zero-self-time frames are omitted entirely.
        assert "request;qcs.compose" not in stacks

    def test_count_fallback_when_all_durations_zero(self):
        records = [
            span("request", 0, None, 1.0, 1.0),
            span("qcs.compose", 1, 0, 1.0, 1.0),
        ]
        stacks = folded_stacks(build_forest(records))
        assert stacks == {"request": 1, "request;qcs.compose": 1}

    def test_explicit_by_count(self):
        stacks = folded_stacks(build_forest(request_tree()), by_count=True)
        assert all(v == 1 for v in stacks.values())


class TestRenderForest:
    def test_tree_rendering_and_limit(self):
        forest = build_forest(request_tree())
        text = render_forest(forest, unit="min")
        assert text.splitlines()[0].startswith("request")
        assert "  qcs.compose" in text
        clipped = render_forest(forest, unit="min", limit=2)
        assert "(5 spans total)" in clipped

    def test_empty(self):
        assert render_forest([], unit="s") == "(no spans)"
