"""Unit tests for the structured trace recorder and the null path."""

import pytest

from repro.obs import (
    NULL_RECORDER,
    NullRecorder,
    TraceRecorder,
)


class TestTraceRecorder:
    def test_span_ids_are_sequential(self):
        rec = TraceRecorder()
        first = rec.span("a", "cat", "t0", 0.0, 1.0)
        second = rec.span("b", "cat", "t0", 1.0, 2.0)
        assert (first, second) == (1, 2)

    def test_span_fields(self):
        rec = TraceRecorder()
        sid = rec.span("job0:gemm", "job", "blade0", 1.0, 3.5,
                       {"k": 8}, parent_id=None)
        span = rec.spans[0]
        assert span.span_id == sid
        assert span.name == "job0:gemm"
        assert span.cat == "job"
        assert span.track == "blade0"
        assert span.duration == pytest.approx(2.5)
        assert span.args == {"k": 8}

    def test_span_rejects_negative_duration(self):
        rec = TraceRecorder()
        with pytest.raises(ValueError, match="ends before"):
            rec.span("bad", "cat", "t", 2.0, 1.0)

    def test_child_span_keeps_parent(self):
        rec = TraceRecorder()
        parent = rec.span("job", "job", "blade0", 0.0, 2.0)
        rec.span("kernel", "kernel", "blade0", 0.5, 1.5,
                 parent_id=parent)
        assert rec.spans[1].parent_id == parent

    def test_args_are_copied(self):
        rec = TraceRecorder()
        args = {"n": 1}
        rec.span("s", "c", "t", 0.0, 1.0, args)
        rec.instant("i", "c", "t", 0.0, args)
        args["n"] = 99
        assert rec.spans[0].args == {"n": 1}
        assert rec.instants[0].args == {"n": 1}

    def test_counter_series_lookup(self):
        rec = TraceRecorder()
        rec.counter("queue_depth", "queue", 0.0, 0)
        rec.counter("queue_depth", "queue", 1.0, 3)
        rec.counter("other", "queue", 0.5, 1)
        values = [s.value for s in rec.series("queue_depth")]
        assert values == [0.0, 3.0]

    def test_unknown_counter_raises_with_available(self):
        rec = TraceRecorder()
        rec.counter("queue_depth", "queue", 0.0, 0)
        with pytest.raises(ValueError, match="queue_depth"):
            rec.series("nope")

    def test_tracks_first_appearance_order(self):
        rec = TraceRecorder()
        rec.span("a", "c", "blade1", 0.0, 1.0)
        rec.instant("b", "c", "scheduler", 0.0)
        rec.counter("q", "queue", 0.0, 1)
        rec.span("c", "c", "blade1", 1.0, 2.0)
        assert rec.tracks() == ["blade1", "scheduler", "queue"]

    def test_find_spans_filters(self):
        rec = TraceRecorder()
        rec.span("job0:dot", "job", "b", 0.0, 1.0)
        rec.span("job1:gemm", "job", "b", 1.0, 2.0)
        rec.span("reconfig:x", "reconfig", "b", 0.0, 0.1)
        assert len(rec.find_spans(cat="job")) == 2
        assert len(rec.find_spans(name_prefix="job1")) == 1
        assert len(rec.find_spans(cat="job", name_prefix="job0")) == 1

    def test_len_counts_all_events(self):
        rec = TraceRecorder()
        rec.span("s", "c", "t", 0.0, 1.0)
        rec.instant("i", "c", "t", 0.0)
        rec.counter("n", "t", 0.0, 1)
        assert len(rec) == 3


class TestNullRecorder:
    def test_disabled_recorder_keeps_nothing(self):
        for rec in (NullRecorder(), NULL_RECORDER):
            rec.instant("i", "c", "t", 0.0, {"a": 1})
            assert not hasattr(rec, "instants")
        rec = TraceRecorder()
        rec.instant("i", "c", "t", 0.0, {"a": 1})
        assert len(rec) == 1

    def test_methods_are_inert(self):
        rec = NullRecorder()
        assert rec.span("s", "c", "t", 0.0, 1.0, {"a": 1}) == -1
        assert rec.instant("i", "c", "t", 0.0) is None
        assert rec.counter("n", "t", 0.0, 1) is None
        assert not hasattr(rec, "spans")


class TestRingMode:
    def test_default_is_unbounded(self):
        rec = TraceRecorder()
        assert rec.max_events is None
        for i in range(100):
            rec.instant("i", "c", "t", float(i))
        assert len(rec) == 100
        assert rec.dropped_events == 0
        assert isinstance(rec.instants, list)

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError, match="max_events"):
            TraceRecorder(max_events=0)

    def test_evicts_globally_oldest_event(self):
        rec = TraceRecorder(max_events=3)
        rec.span("s0", "c", "t", 0.0, 1.0)
        rec.instant("i0", "c", "t", 1.0)
        rec.counter("c0", "t", 2.0, 1)
        rec.instant("i1", "c", "t", 3.0)  # evicts the span
        assert len(rec) == 3
        assert rec.dropped_events == 1
        assert len(rec.spans) == 0
        assert [i.name for i in rec.instants] == ["i0", "i1"]
        assert len(rec.counters) == 1

    def test_ring_holds_newest_events(self):
        rec = TraceRecorder(max_events=10)
        for i in range(100):
            rec.instant(f"i{i}", "c", "t", float(i))
        assert len(rec) == 10
        assert rec.dropped_events == 90
        assert [i.name for i in rec.instants] == \
            [f"i{i}" for i in range(90, 100)]

    def test_span_ids_keep_counting_past_eviction(self):
        rec = TraceRecorder(max_events=2)
        ids = [rec.span(f"s{i}", "c", "t", float(i), float(i) + 1.0)
               for i in range(5)]
        assert ids == [1, 2, 3, 4, 5]
        assert [s.span_id for s in rec.spans] == [4, 5]
