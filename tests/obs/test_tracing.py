"""Unit tests for repro.obs.tracing."""

import json

from repro.obs import tracing
from repro.obs.tracing import Tracer, trace_span, use_tracer


class TestSpanNesting:
    def test_nested_spans_form_a_tree(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with trace_span("outer", width=4):
                with trace_span("inner.a"):
                    pass
                with trace_span("inner.b"):
                    with trace_span("leaf"):
                        pass
        assert len(tracer.roots) == 1
        outer = tracer.roots[0]
        assert outer.name == "outer"
        assert [c.name for c in outer.children] == ["inner.a", "inner.b"]
        assert [c.name for c in outer.children[1].children] == ["leaf"]
        assert tracer.span_count() == 4

    def test_sibling_roots(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with trace_span("first"):
                pass
            with trace_span("second"):
                pass
        assert [r.name for r in tracer.roots] == ["first", "second"]

    def test_durations_are_recorded(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with trace_span("timed"):
                pass
        span = tracer.roots[0]
        assert span.duration_s >= 0.0
        assert span.start_s >= 0.0

    def test_attrs_are_kept(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with trace_span("s", width=8, samples=100):
                pass
        assert tracer.roots[0].attrs == {"width": 8, "samples": 100}


class TestNullPath:
    def test_no_tracer_returns_shared_null_context(self):
        assert tracing.get_tracer() is None
        assert trace_span("a") is trace_span("b")

    def test_null_span_is_harmless(self):
        with trace_span("ignored", anything=1):
            pass  # must not raise, must not record anywhere

    def test_use_tracer_restores_previous(self):
        tracer = Tracer()
        with use_tracer(tracer):
            assert tracing.get_tracer() is tracer
        assert tracing.get_tracer() is None

    def test_use_tracer_detaches_inherited_span(self):
        # A fresh tracer must not attach new spans to a span that
        # belongs to the previously installed tracer.
        outer = Tracer()
        with use_tracer(outer):
            with trace_span("outer.region"):
                inner = Tracer()
                with use_tracer(inner):
                    with trace_span("inner.region"):
                        pass
        assert [s.name for s in inner.roots] == ["inner.region"]
        assert [s.name for s in outer.roots] == ["outer.region"]
        assert not outer.roots[0].children


class TestExports:
    def _traced(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with trace_span("root", width=2):
                with trace_span("child"):
                    pass
        return tracer

    def test_to_dict_format(self):
        doc = self._traced().to_dict()
        assert doc["format"] == tracing.TRACE_FORMAT
        (root,) = doc["spans"]
        assert root["name"] == "root"
        assert root["attrs"] == {"width": 2}
        assert [c["name"] for c in root["children"]] == ["child"]

    def test_json_round_trip(self, tmp_path):
        tracer = self._traced()
        path = tmp_path / "trace.json"
        tracer.write_json(str(path))
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(tracer.to_dict())
        )

    def test_chrome_export_shape(self):
        doc = self._traced().to_chrome()
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert [e["name"] for e in events] == ["root", "child"]
        for event in events:
            assert event["ph"] == "X"
            assert event["cat"] == "repro"
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
        # the child is contained in its parent's time range (both ends
        # come from the same tracer clock; slack covers float rounding)
        root, child = events
        assert root["ts"] <= child["ts"]
        assert child["ts"] + child["dur"] <= root["ts"] + root["dur"] + 1e-3

    def test_chrome_round_trip(self, tmp_path):
        tracer = self._traced()
        path = tmp_path / "chrome.json"
        tracer.write_chrome(str(path))
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(tracer.to_chrome())
        )
