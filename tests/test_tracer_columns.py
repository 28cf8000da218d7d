"""The column-backed :class:`Tracer` against the object walks it replaced.

:mod:`tests.oracles` keeps the recorder as a list of
:class:`TraceEvent` objects, with the filters, the linter and the JSONL
writer that walked it.  Every test here builds the same trace both ways
and asks for the same answers: the events and the extent, each filter's
output, the lint issues in order, and the bytes written.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.instrument import (EVENT_KINDS, OUTSIDE_REGION, EventColumns,
                              TraceEvent, Tracer, filter_activities,
                              filter_events, filter_ranks, filter_regions,
                              filter_time, iter_binary_trace, iter_trace,
                              lint_trace, merge, profile, read_trace,
                              relabel_region, shift_time, write_binary_trace,
                              write_trace, write_tracer)
from repro.instrument.stream import read_binary_trace

from .oracles import (ObjectTracer, object_filter_activities,
                      object_filter_events, object_filter_ranks,
                      object_filter_regions, object_filter_time,
                      object_lint_trace, object_merge,
                      object_relabel_region, object_shift_time,
                      object_write_trace)

#: Region and activity names overlap on purpose: one name table holds
#: both in a chunk.
REGIONS = ("solve", "halo", "computation", OUTSIDE_REGION)
ACTIVITIES = ("computation", "point-to-point", "collective", "halo")


@st.composite
def trace_events(draw, max_size=40):
    """Events on a few ranks and names, with zero-length and negative
    intervals and a small message space so sends and receives pair."""
    events = []
    for _ in range(draw(st.integers(0, max_size))):
        begin = draw(st.floats(-2.0, 10.0, allow_nan=False))
        events.append(TraceEvent(
            rank=draw(st.integers(0, 5)),
            region=draw(st.sampled_from(REGIONS)),
            activity=draw(st.sampled_from(ACTIVITIES)), begin=begin,
            end=begin + draw(st.sampled_from([0.0, 0.5])
                             | st.floats(0.0, 3.0, allow_nan=False)),
            kind=draw(st.sampled_from(EVENT_KINDS)),
            nbytes=draw(st.sampled_from([0, 8, 64])),
            partner=draw(st.integers(-1, 5))))
    return events


def build(events, how="record"):
    """The same events in a :class:`Tracer` and an :class:`ObjectTracer`."""
    columns, objects = Tracer(), ObjectTracer()
    objects.extend(events)
    if how == "extend":
        columns.extend(events)
    else:
        for event in events:
            columns.record(event.rank, event.region, event.activity,
                           event.begin, event.end, event.kind, event.nbytes,
                           event.partner)
    return columns, objects


def assert_same(columns, objects):
    assert columns.events == objects.events
    assert len(columns) == len(objects)
    assert columns.n_ranks == objects.n_ranks
    assert columns.begin == objects.begin
    assert columns.elapsed == objects.elapsed
    assert columns.regions() == objects.regions()
    assert columns.activities() == objects.activities()
    for rank in range(objects.n_ranks + 1):
        assert columns.events_of(rank) == objects.events_of(rank)


def assert_filters_agree(columns, objects, window, offset, relabel):
    pairs = [
        (filter_events(columns, lambda event: event.kind == "send"),
         object_filter_events(objects, lambda event: event.kind == "send")),
        (filter_regions(columns, ["halo", OUTSIDE_REGION]),
         object_filter_regions(objects, ["halo", OUTSIDE_REGION])),
        (filter_activities(columns, ["computation", "halo"]),
         object_filter_activities(objects, ["computation", "halo"])),
        (filter_ranks(columns, [0, 2, 7]),
         object_filter_ranks(objects, [0, 2, 7])),
        (relabel_region(columns, *relabel),
         object_relabel_region(objects, *relabel)),
        (merge([columns, columns], [0, 3]),
         object_merge([objects, objects], [0, 3])),
        (merge([columns, columns]), object_merge([objects, objects])),
    ]
    for clip in (True, False):
        pairs.append((filter_time(columns, *window, clip=clip),
                      object_filter_time(objects, *window, clip=clip)))
    if all(event.begin + offset >= 0.0 for event in objects.events):
        pairs.append((shift_time(columns, offset),
                      object_shift_time(objects, offset)))
    else:
        for shift, tracer in ((shift_time, columns),
                              (object_shift_time, objects)):
            with pytest.raises(TraceError, match="before time zero"):
                shift(tracer, offset)
    for result, expected in pairs:
        assert_same(result, expected)
        assert lint_trace(result) == object_lint_trace(expected)


class TestDifferential:
    @settings(max_examples=80, deadline=None)
    @given(events=trace_events(), how=st.sampled_from(["record", "extend"]),
           window=st.tuples(st.floats(-1.0, 6.0), st.floats(0.0, 6.0)),
           offset=st.floats(-1.0, 5.0),
           relabel=st.tuples(st.sampled_from(REGIONS),
                             st.sampled_from(REGIONS + ACTIVITIES
                                             + ("fresh",))))
    # A -0.0 begin clipped at a window opening at 0.0 keeps its sign, as
    # the row-by-row ``max`` does, and prints "-0" in the overlap issue.
    @example(events=[TraceEvent(0, "solve", "computation", begin, 0.5,
                                "compute", 0, 0) for begin in (0.0, -0.0)],
             how="record", window=(0.0, 0.0), offset=0.0,
             relabel=("solve", "solve"))
    def test_tracer_filters_and_lint(self, events, how, window, offset,
                                     relabel):
        columns, objects = build(events, how)
        assert_same(columns, objects)
        assert lint_trace(columns) == object_lint_trace(objects)
        window = (window[0], window[0] + window[1] + 0.25)
        assert_filters_agree(columns, objects, window, offset, relabel)

    @settings(max_examples=40, deadline=None)
    @given(events=trace_events(), gz=st.booleans())
    def test_written_then_read_back(self, events, gz, tmp_path_factory):
        directory = tmp_path_factory.mktemp("written")
        suffix = ".jsonl.gz" if gz else ".jsonl"
        columns, objects = build(events)
        written, expected = (directory / f"new{suffix}",
                             directory / f"old{suffix}")
        assert write_tracer(written, columns) == len(events)
        assert object_write_trace(expected, objects.events) == len(events)
        if not gz:
            assert written.read_bytes() == expected.read_bytes()
        assert tuple(read_trace(written)) == objects.events
        assert write_trace(written, events) == len(events)
        if not gz:
            assert written.read_bytes() == expected.read_bytes()

    @settings(max_examples=40, deadline=None)
    @given(first=trace_events(), second=trace_events())
    def test_extend_with_chunks_from_two_readers(self, first, second,
                                                 tmp_path_factory):
        """A JSONL and a binary reader intern names in their own orders;
        the tracer keeps each chunk's table."""
        directory = tmp_path_factory.mktemp("readers")
        jsonl, rptb = directory / "a.jsonl", directory / "b.rptb"
        write_trace(jsonl, first)
        write_binary_trace(rptb, second)
        columns = Tracer()
        columns.extend(iter_trace(jsonl, chunk_size=7))
        columns.extend(iter_binary_trace(rptb, chunk_size=5))
        objects = ObjectTracer()
        objects.extend(read_trace(jsonl))
        objects.extend(read_binary_trace(rptb))
        assert objects.events == tuple(first + second)
        assert_same(columns, objects)
        assert lint_trace(columns) == object_lint_trace(objects)
        assert_filters_agree(columns, objects, (0.5, 4.0), 2.0,
                             ("halo", "solve"))


def trace(*rows):
    """Events from ``(rank, region, activity, begin, end[, kind,
    nbytes, partner])`` rows."""
    return [TraceEvent(*row) for row in rows]


class TestCases:
    def test_empty_tracer(self, tmp_path):
        columns, objects = build([])
        assert_same(columns, objects)
        assert list(columns) == []
        assert lint_trace(columns) == object_lint_trace(objects) == ()
        assert_filters_agree(columns, objects, (0.0, 1.0), 1.0,
                             ("solve", "halo"))
        write_tracer(tmp_path / "new.jsonl", columns)
        object_write_trace(tmp_path / "old.jsonl", [])
        assert ((tmp_path / "new.jsonl").read_bytes()
                == (tmp_path / "old.jsonl").read_bytes())

    def test_relabel_onto_an_existing_region(self):
        columns, objects = build(trace(
            (0, "solve", "computation", 0.0, 1.0),
            (1, "halo", "computation", 0.0, 2.0),
            (0, "halo", "point-to-point", 1.0, 1.5)))
        result = relabel_region(columns, "halo", "solve")
        assert_same(result, object_relabel_region(objects, "halo", "solve"))
        assert result.regions() == ("solve",)
        assert profile(result).regions == ("solve",)

    def test_relabel_a_name_that_is_also_an_activity(self):
        """Regions and activities share a chunk's name table: renaming
        the region leaves the activity of the same name alone."""
        columns, objects = build(trace(
            (0, "computation", "computation", 0.0, 1.0),
            (1, "solve", "computation", 0.0, 2.0)))
        result = relabel_region(columns, "computation", "kernel")
        assert_same(result, object_relabel_region(objects, "computation",
                                                  "kernel"))
        assert result.activities() == ("computation",)
        assert result.regions() == ("kernel", "solve")
        into_activity = relabel_region(columns, "solve", "computation")
        assert into_activity.regions() == ("computation",)

    def test_merge_with_offsets_keeps_partner_minus_one(self):
        events = trace(
            (0, "solve", "point-to-point", 0.0, 1.0, "send", 8, 1),
            (1, "solve", "point-to-point", 0.0, 1.0, "recv", 8, 0),
            (1, "solve", "computation", 1.0, 2.0, "compute", 0, -1))
        first, first_objects = build(events)
        second, second_objects = build(events, "extend")
        result = merge([first, second], rank_offsets=[0, 2])
        expected = object_merge([first_objects, second_objects], [0, 2])
        assert_same(result, expected)
        assert [event.partner for event in result.events] == \
            [1, 0, -1, 3, 2, -1]
        assert lint_trace(result) == object_lint_trace(expected) == ()

    def test_merge_refuses_offsets_past_64_bit_ranks(self):
        """The object form refused such ranks when it built the events;
        the columns would wrap around instead."""
        columns, objects = build(trace((1, "solve", "computation", 0.0,
                                        1.0)))
        for offsets in ([0, -1], [0, (1 << 63) - 1]):
            with pytest.raises(TraceError):
                object_merge([objects, objects], offsets)
            with pytest.raises(TraceError, match="rank offsets"):
                merge([columns, columns], offsets)
        assert merge([columns], [(1 << 63) - 2]).n_ranks == 1 << 63

    def test_filter_time_zero_length_events_and_no_clip(self):
        columns, objects = build(trace(
            (0, "solve", "computation", 1.0, 1.0),      # zero length, inside
            (0, "solve", "computation", 0.0, 2.0),      # straddles
            (1, "solve", "computation", 3.0, 3.0),      # zero length, at end
            (1, "solve", "computation", 2.5, 4.0)))
        for clip in (True, False):
            result = filter_time(columns, 1.0, 3.0, clip=clip)
            assert_same(result, object_filter_time(objects, 1.0, 3.0,
                                                   clip=clip))
        assert filter_time(columns, 1.0, 3.0, clip=False).events == (
            TraceEvent(0, "solve", "computation", 0.0, 2.0),
            TraceEvent(1, "solve", "computation", 2.5, 4.0))

    def test_extend_takes_chunks_and_events_in_one_call(self):
        events = trace((0, "solve", "computation", 0.0, 1.0),
                       (1, "halo", "collective", 0.5, 1.5))
        chunk = EventColumns.from_events(events[1:])
        columns = Tracer()
        columns.extend([events[0], chunk, events[0]])
        assert columns.events == (events[0], events[1], events[0])
        assert columns.regions() == ("solve", "halo")

    def test_extend_with_a_tracer_copies_its_chunks(self):
        columns, _ = build(trace((0, "solve", "computation", 0.0, 1.0)))
        columns.extend(columns)
        assert len(columns) == 2 and len(columns.events) == 2

    def test_iterates_as_bounded_chunks(self):
        from repro.instrument.columns import DEFAULT_CHUNK_SIZE
        columns = Tracer()
        for step in range(DEFAULT_CHUNK_SIZE + 3):
            columns.record(step % 3, "solve", "computation", step, step + 1)
        chunks = list(columns)
        assert [len(chunk) for chunk in chunks] == [DEFAULT_CHUNK_SIZE, 3]
        assert all(isinstance(chunk, EventColumns) for chunk in chunks)
        assert columns.n_ranks == 3 and columns.elapsed == len(columns)

    def test_events_of_rejects_negative_ranks(self):
        with pytest.raises(TraceError, match="non-negative"):
            Tracer().events_of(-1)
