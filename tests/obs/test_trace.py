"""Tests for span nesting, exception safety, and the profile renderer."""

import pytest

from repro import obs
from repro.obs.trace import NULL_SPAN, Tracer, format_span_tree, span_rows


class TestTracerNesting:
    def test_children_attach_to_parent(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner_a"):
                pass
            with tracer.span("inner_b"):
                pass
        assert len(tracer.roots) == 1
        outer = tracer.roots[0]
        assert [c.name for c in outer.children] == ["inner_a", "inner_b"]
        assert outer.children[0].path == "outer/inner_a"

    def test_durations_nest(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer = tracer.roots[0]
        assert outer.duration >= outer.children[0].duration >= 0.0

    def test_current_path(self):
        tracer = Tracer()
        assert tracer.current_path() == ""
        with tracer.span("a"):
            with tracer.span("b"):
                assert tracer.current_path() == "a/b"
        assert tracer.current_path() == ""

    def test_current_attr_walks_up(self):
        tracer = Tracer()
        with tracer.span("cv", fold=3):
            with tracer.span("train"):
                assert tracer.current_attr("fold") == 3
                assert tracer.current_attr("missing") is None

    def test_exception_recorded_and_propagated(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("failing"):
                    raise RuntimeError("boom")
        # Both spans closed, stack unwound, error tagged.
        assert tracer.current() is None
        outer = tracer.roots[0]
        assert outer.error == "RuntimeError"
        assert outer.children[0].error == "RuntimeError"
        assert outer.children[0].end is not None

    def test_on_close_hook_fires_per_span(self):
        closed = []
        tracer = Tracer(on_close=lambda s: closed.append(s.path))
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        assert closed == ["a/b", "a"]

    def test_reset(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        tracer.reset()
        assert tracer.roots == []

    def test_roots_unbounded_by_default(self):
        tracer = Tracer()
        for _ in range(100):
            with tracer.span("r"):
                pass
        assert len(tracer.roots) == 100

    def test_max_roots_keeps_the_most_recent(self):
        tracer = Tracer()
        tracer.max_roots = 8
        for i in range(100):
            with tracer.span("r", i=i):
                pass
            assert len(tracer.roots) <= 16
        kept = [sp.attrs["i"] for sp in tracer.roots]
        assert len(kept) >= 8
        assert kept == list(range(100 - len(kept), 100))

    def test_max_roots_bounds_grafted_roots(self):
        tracer = Tracer()
        tracer.max_roots = 4
        for i in range(50):
            tracer.graft({"name": "w", "attrs": {"i": i}, "duration": 0.0})
        kept = [sp.attrs["i"] for sp in tracer.roots]
        assert 4 <= len(kept) <= 8
        assert kept[-1] == 49


class TestGlobalSpan:
    def test_disabled_returns_shared_null_span(self):
        assert not obs.enabled()
        sp = obs.span("x")
        assert sp is NULL_SPAN
        with sp:
            sp.set_attr("k", 1)  # no-op, no error
        assert obs.get_tracer().roots == []

    def test_null_span_is_reentrant(self):
        with obs.span("a"):
            with obs.span("a"):
                pass  # same singleton open twice: fine

    def test_enabled_records_and_emits_event(self):
        obs.enable()
        with obs.span("stage", graphs=2):
            pass
        records = obs.get_event_log().records(kind="span")
        assert len(records) == 1
        assert records[0]["name"] == "stage"
        assert records[0]["attrs"]["graphs"] == 2
        assert records[0]["duration_s"] >= 0.0

    def test_exception_tagged_in_event(self):
        obs.enable()
        with pytest.raises(ValueError):
            with obs.span("bad"):
                raise ValueError()
        record = obs.get_event_log().records(kind="span")[0]
        assert record["attrs"]["error"] == "ValueError"


class TestRender:
    def test_format_aggregates_paths(self):
        rows = [
            ("cv", 4.0),
            ("cv/fold", 2.0),
            ("cv/fold", 2.0),
            ("cv/fold/train", 1.5),
            ("cv/fold/train", 1.5),
        ]
        text = format_span_tree(rows)
        lines = text.splitlines()
        assert "stage" in lines[0]
        fold_line = next(l for l in lines if "fold" in l and "train" not in l)
        assert " 2 " in fold_line  # aggregated call count
        assert "4.000s" in text
        assert "100.0%" in text  # fold share of cv

    def test_format_deterministic_under_row_order(self):
        rows = [("a", 1.0), ("a/b", 0.5), ("a/c", 0.25)]
        assert format_span_tree(rows) == format_span_tree(list(reversed(rows)))

    def test_empty(self):
        assert "no spans" in format_span_tree([])

    def test_span_rows_parents_first(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        rows = span_rows(tracer.roots)
        assert [p for p, _ in rows] == ["outer", "outer/inner"]
