"""Tests for the span recorder and Chrome trace export."""

import json

import pytest

from repro.obs.spans import SpanRecorder, chrome_trace


class TestSpanRecorder:
    def test_begin_end_nesting(self):
        rec = SpanRecorder()
        outer = rec.begin("syscall", "read", 0.0)
        inner = rec.begin("fault", "disk", 0.1)
        rec.end(inner, 0.3)
        rec.end(outer, 0.4)
        syscall = rec.spans("syscall")[0]
        fault = rec.spans("fault")[0]
        assert syscall.parent_id is None
        assert fault.parent_id == syscall.id
        assert fault.duration == pytest.approx(0.2)
        assert rec.children_of(syscall) == [fault]

    def test_add_defaults_parent_to_open_span(self):
        rec = SpanRecorder()
        outer = rec.begin("syscall", "read", 0.0)
        dev = rec.add("device", "ext2-disk", 0.1, 0.2, bytes=4096)
        rec.end(outer, 0.3)
        assert dev.parent_id == outer.id
        assert dev.attr("bytes") == 4096
        # explicit parent wins over the stack
        orphan = rec.add("device", "x", 0.4, 0.5, parent_id=None)
        assert orphan.parent_id is None

    def test_end_pops_abandoned_children(self):
        rec = SpanRecorder()
        outer = rec.begin("syscall", "read", 0.0)
        rec.begin("fault", "disk", 0.1)  # never ended
        rec.end(outer, 0.5)
        assert rec.open_depth == 0
        assert rec.current() is None

    def test_ring_buffer_drops_oldest(self):
        rec = SpanRecorder(capacity=2)
        for i in range(4):
            rec.add("syscall", f"s{i}", float(i), float(i) + 0.5)
        assert len(rec) == 2
        assert rec.dropped == 2
        assert [s.name for s in rec.spans()] == ["s2", "s3"]

    def test_bad_capacity_and_backwards_span(self):
        with pytest.raises(ValueError):
            SpanRecorder(capacity=0)
        rec = SpanRecorder()
        with pytest.raises(ValueError):
            rec.add("syscall", "read", 1.0, 0.5)

    def test_clear(self):
        rec = SpanRecorder(capacity=1)
        rec.add("syscall", "a", 0.0, 1.0)
        rec.add("syscall", "b", 1.0, 2.0)
        rec.clear()
        assert len(rec) == 0
        assert rec.dropped == 0


class TestChromeTrace:
    def _recorder(self):
        rec = SpanRecorder()
        outer = rec.begin("syscall", "read", 0.0)
        rec.add("fault", "disk", 0.0, 0.02, page=3)
        rec.end(outer, 0.025)
        return rec

    def test_structure(self):
        doc = chrome_trace(self._recorder())
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert all(e["ph"] == "X" for e in doc["traceEvents"])
        assert json.loads(json.dumps(doc)) == doc

    def test_units_are_microseconds(self):
        doc = chrome_trace(self._recorder())
        fault = next(e for e in doc["traceEvents"] if e["cat"] == "fault")
        assert fault["ts"] == 0.0
        assert fault["dur"] == pytest.approx(20_000.0)

    def test_parent_before_child_on_shared_start(self):
        # Perfetto nests by containment; on a tied start the longer
        # (enclosing) span must sort first.
        doc = chrome_trace(self._recorder())
        names = [e["name"] for e in doc["traceEvents"]]
        assert names.index("read") < names.index("disk")

    def test_explicit_parent_links(self):
        doc = chrome_trace(self._recorder())
        by_name = {e["name"]: e for e in doc["traceEvents"]}
        assert by_name["disk"]["args"]["parent"] == \
            by_name["read"]["args"]["span"]
        assert "parent" not in by_name["read"]["args"]

    def test_accepts_plain_span_list(self):
        rec = self._recorder()
        doc = chrome_trace(rec.spans("fault"))
        assert len(doc["traceEvents"]) == 1
