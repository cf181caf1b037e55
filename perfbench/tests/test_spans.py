import threading

import pytest

from perfbench.spans import Span, SpanRecorder, aggregate, covered, self_times


def span(name, start, end, span_id, parent_id=None):
    return Span(name, start, end, span_id, parent_id)


def test_nested_spans_subtract_only_direct_children():
    spans = [
        span("parent", 0.0, 10.0, 1),
        span("child", 2.0, 5.0, 2, 1),
        span("grandchild", 3.0, 4.0, 3, 2),
    ]
    own = self_times(spans)
    assert own == {1: pytest.approx(7.0), 2: pytest.approx(2.0), 3: pytest.approx(1.0)}
    assert sum(own.values()) == pytest.approx(10.0)


def test_adjacent_children_are_both_subtracted():
    spans = [
        span("parent", 0.0, 6.0, 1),
        span("a", 0.0, 2.0, 2, 1),
        span("b", 2.0, 5.0, 3, 1),
    ]
    assert self_times(spans)[1] == pytest.approx(1.0)


def test_overlapping_children_count_their_union_once():
    spans = [
        span("parent", 0.0, 10.0, 1),
        span("a", 1.0, 4.0, 2, 1),
        span("b", 3.0, 6.0, 3, 1),
    ]
    assert self_times(spans)[1] == pytest.approx(5.0)


def test_children_are_clipped_to_the_parent():
    assert covered([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert covered([], 0.0, 1.0) == 0.0


def test_aggregate_windows_after_self_time():
    spans = [
        span("outer", 0.0, 10.0, 1),
        span("inner", 1.0, 3.0, 2, 1),
        span("inner", 20.0, 21.0, 3),
    ]
    totals = aggregate(spans, window=(0.0, 5.0))
    assert totals["outer"].self_s == pytest.approx(8.0)
    assert totals["inner"].calls == 1
    assert totals["inner"].total_s == pytest.approx(2.0)


def test_bookkeeping_spans_leave_every_layer_time():
    spans = [
        span("model.predict", 0.0, 10.0, 1),
        span("encode.assemble", 1.0, 5.0, 2, 1),
        span("trace.probe", 3.0, 4.0, 3, 2),
    ]
    totals = aggregate(spans)
    assert "trace.probe" not in totals
    assert totals["encode.assemble"].self_s == pytest.approx(3.0)
    assert totals["encode.assemble"].total_s == pytest.approx(3.0)
    assert totals["model.predict"].total_s == pytest.approx(9.0)
    assert totals["model.predict"].self_s == pytest.approx(6.0)


def test_recorder_nests_per_thread_and_shares_trace_ids():
    rec = SpanRecorder()
    with rec.span("request", trace_id="abc") as outer:
        with rec.span("stage") as inner:
            pass
        seen = []
        worker = threading.Thread(target=lambda: seen.append(_open(rec)))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    assert inner.parent_id == outer.span_id
    assert inner.trace_id == "abc"
    assert seen[0].parent_id is None  # another thread's stack
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert len(rec.spans) == 3


def _open(rec):
    with rec.span("elsewhere") as s:
        return s
