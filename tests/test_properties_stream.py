"""Property tests for the streaming engine (Hypothesis).

The invariants the one-pass design rests on:

* chunking is irrelevant — however an event stream is cut into chunks,
  the finalized measurements are bit-identical to the eager profile
  (per-cell additions happen in the same event order);
* sharding is irrelevant up to summation rounding — any partition of
  the stream into consecutive segments, accumulated independently and
  merged in order, agrees to 1e-12 with the same labels;
* merging is associative, and finalized *values* are insensitive to
  merge order (label order follows the merge sequence, so values are
  compared by label);
* a randomly truncated trace file streams exactly like it reads
  eagerly: both paths salvage the same prefix or both raise.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import OnlineAccumulator
from repro.core.online import OUTSIDE_REGION
from repro.errors import TraceError, TraceWarning
from repro.instrument import (TraceEvent, Tracer, iter_binary_trace,
                              iter_trace, profile, read_binary_trace,
                              read_trace, write_binary_trace, write_trace)

REGIONS = ("alpha", "beta", "gamma")
ACTIVITIES = ("computation", "point-to-point", "collective",
              "synchronization", "io phase")


@st.composite
def annotated_traces(draw, max_size=50):
    """Event lists with at least one annotated event.  Times are
    dyadic rationals, so every duration and sum is exact in binary
    floating point (bit-identity assertions stay meaningful)."""

    def event(rank, region, activity, begin_units, duration_units):
        return TraceEvent(rank, region, activity, begin_units / 16.0,
                          (begin_units + duration_units) / 16.0)

    events = draw(st.lists(
        st.builds(event,
                  rank=st.integers(0, 3),
                  region=st.sampled_from(REGIONS + (OUTSIDE_REGION,)),
                  activity=st.sampled_from(ACTIVITIES),
                  begin_units=st.integers(0, 512),
                  duration_units=st.integers(0, 64)),
        max_size=max_size))
    events.append(event(draw(st.integers(0, 3)),
                        draw(st.sampled_from(REGIONS)),
                        draw(st.sampled_from(ACTIVITIES)),
                        draw(st.integers(0, 512)),
                        draw(st.integers(1, 64))))
    return events


def eager_profile(events):
    tracer = Tracer()
    tracer.extend(events)
    return profile(tracer)


def partition(events, sizes):
    """Cut ``events`` into consecutive segments of the given relative
    sizes (at least one segment; sizes normalized to the list)."""
    cuts = [0]
    remaining = len(events)
    for size in sizes:
        cuts.append(min(cuts[-1] + size, len(events)))
    cuts.append(len(events))
    return [events[lo:hi] for lo, hi in zip(cuts, cuts[1:]) if hi > lo] \
        or [events]


def values_by_label(measurements):
    """{(region, activity, rank): value} — the label-indexed tensor,
    for order-insensitive comparison."""
    return {
        (region, activity, rank): measurements.times[i, j, rank]
        for i, region in enumerate(measurements.regions)
        for j, activity in enumerate(measurements.activities)
        for rank in range(measurements.n_processors)
    }


class TestChunkingInvariance:
    @settings(max_examples=60, deadline=None)
    @given(events=annotated_traces(),
           chunk_sizes=st.lists(st.integers(1, 17), min_size=1,
                                max_size=8))
    def test_any_chunking_is_bit_identical_to_profile(self, events,
                                                      chunk_sizes):
        reference = eager_profile(events)
        accumulator = OnlineAccumulator()
        position = 0
        index = 0
        while position < len(events):
            size = chunk_sizes[index % len(chunk_sizes)]
            accumulator.update(events[position:position + size])
            position += size
            index += 1
        streamed = accumulator.finalize()
        assert streamed.regions == reference.regions
        assert streamed.activities == reference.activities
        assert np.array_equal(streamed.times, reference.times)
        assert streamed.total_time == reference.total_time


class TestShardingInvariance:
    @settings(max_examples=60, deadline=None)
    @given(events=annotated_traces(),
           sizes=st.lists(st.integers(1, 20), min_size=1, max_size=6))
    def test_any_consecutive_partition_merges_to_the_profile(self, events,
                                                             sizes):
        reference = eager_profile(events)
        parts = [OnlineAccumulator().update(segment)
                 for segment in partition(events, sizes)]
        merged = parts[0]
        for part in parts[1:]:
            merged = merged.merge(part)
        streamed = merged.finalize()
        assert streamed.regions == reference.regions
        assert streamed.activities == reference.activities
        np.testing.assert_allclose(streamed.times, reference.times,
                                   rtol=0, atol=1e-12)
        assert abs(streamed.total_time - reference.total_time) <= 1e-12


class TestMergeAlgebra:
    @settings(max_examples=60, deadline=None)
    @given(events=annotated_traces(), cut_a=st.integers(0, 50),
           cut_b=st.integers(0, 50))
    def test_merge_is_associative(self, events, cut_a, cut_b):
        lo, hi = sorted((min(cut_a, len(events)), min(cut_b, len(events))))
        a = OnlineAccumulator().update(events[:lo])
        b = OnlineAccumulator().update(events[lo:hi])
        c = OnlineAccumulator().update(events[hi:])
        left = a.merge(b).merge(c).finalize()
        right = a.merge(b.merge(c)).finalize()
        assert left.regions == right.regions
        assert left.activities == right.activities
        np.testing.assert_allclose(left.times, right.times,
                                   rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(events=annotated_traces(), cut=st.integers(0, 50))
    def test_merge_values_are_order_insensitive(self, events, cut):
        """a.merge(b) and b.merge(a) may order labels differently, but
        every (region, activity, rank) cell holds the same value."""
        cut = min(cut, len(events))
        a = OnlineAccumulator().update(events[:cut])
        b = OnlineAccumulator().update(events[cut:])
        forward = a.merge(b).finalize()
        backward = b.merge(a).finalize()
        assert sorted(forward.regions) == sorted(backward.regions)
        assert sorted(forward.activities) == sorted(backward.activities)
        one = values_by_label(forward)
        other = values_by_label(backward)
        assert one.keys() == other.keys()
        assert all(abs(one[key] - other[key]) <= 1e-12 for key in one)
        assert abs(forward.total_time - backward.total_time) <= 1e-12


def stream_salvaged(iterator, path, chunk_size):
    """Drain a streaming reader with warnings hidden, like the eager
    ``read_salvaged`` helper; returns events or raises TraceError."""
    events = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TraceWarning)
        for chunk in iterator(path, chunk_size=chunk_size):
            events.extend(chunk)
    return events


class TestTruncationParity:
    """Streaming a damaged file behaves exactly like eager reading:
    same salvaged prefix, or both raise."""

    def sample_events(self):
        return [
            TraceEvent(rank % 4, REGIONS[rank % 3], ACTIVITIES[rank % 5],
                       float(rank), float(rank) + 0.5,
                       kind=("compute", "send")[rank % 2],
                       nbytes=rank * 100, partner=(rank + 1) % 4)
            for rank in range(12)
        ]

    def assert_parity(self, eager_reader, iterator, path, chunk_size):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TraceWarning)
            try:
                expected = eager_reader(path)
            except TraceError:
                with pytest.raises(TraceError):
                    stream_salvaged(iterator, path, chunk_size)
                return
        assert stream_salvaged(iterator, path, chunk_size) == expected

    @settings(max_examples=80, deadline=None)
    @given(offset=st.integers(0, 10_000), chunk_size=st.integers(1, 7))
    def test_jsonl_truncation(self, tmp_path_factory, offset, chunk_size):
        directory = tmp_path_factory.mktemp("jsonl")
        path = directory / "t.jsonl"
        write_trace(path, self.sample_events())
        data = path.read_bytes()
        path.write_bytes(data[:min(offset, len(data))])
        self.assert_parity(read_trace, iter_trace, path, chunk_size)

    @settings(max_examples=40, deadline=None)
    @given(offset=st.integers(0, 10_000), chunk_size=st.integers(1, 7))
    def test_gzip_truncation(self, tmp_path_factory, offset, chunk_size):
        directory = tmp_path_factory.mktemp("gz")
        path = directory / "t.jsonl.gz"
        write_trace(path, self.sample_events())
        data = path.read_bytes()
        path.write_bytes(data[:min(offset, len(data))])
        self.assert_parity(read_trace, iter_trace, path, chunk_size)

    @settings(max_examples=80, deadline=None)
    @given(offset=st.integers(0, 10_000), chunk_size=st.integers(1, 7))
    def test_binary_truncation(self, tmp_path_factory, offset, chunk_size):
        directory = tmp_path_factory.mktemp("bin")
        path = directory / "t.rptb"
        write_binary_trace(path, self.sample_events())
        data = path.read_bytes()
        path.write_bytes(data[:min(offset, len(data))])
        self.assert_parity(read_binary_trace, iter_binary_trace, path,
                           chunk_size)

    @settings(max_examples=40, deadline=None)
    @given(position=st.integers(0, 2000), junk=st.binary(min_size=1,
                                                         max_size=8),
           chunk_size=st.integers(1, 7))
    def test_jsonl_corruption(self, tmp_path_factory, position, junk,
                              chunk_size):
        """Overwritten bytes anywhere in the file: still parity."""
        directory = tmp_path_factory.mktemp("corrupt")
        path = directory / "t.jsonl"
        write_trace(path, self.sample_events())
        data = bytearray(path.read_bytes())
        position = min(position, len(data) - 1)
        data[position:position + len(junk)] = junk
        path.write_bytes(bytes(data))
        self.assert_parity(read_trace, iter_trace, path, chunk_size)


def read_outcome(read, path, on_error):
    """What a reader made of a file: ``("raised", message)`` or
    ``("read", events, warning texts)``.  Events compare by ``repr`` so
    an overwritten NaN time still equals itself."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            events = read(path, on_error)
        except TraceError as error:
            return ("raised", str(error))
    return ("read", [repr(event) for event in events],
            [str(entry.message) for entry in caught
             if issubclass(entry.category, TraceWarning)])


class TestBinaryOverwriteParity:
    """Overwritten bytes inside the record area — a bad name index, a
    bad kind, ``end < begin`` or an empty activity — give the same
    salvaged prefix, warning text and strict-mode error from the
    vectorized readers as from the per-record scalar oracle."""

    EVENTS = [
        TraceEvent(rank % 4, ("alpha", "", "beta")[rank % 3],
                   ("computation", "point-to-point")[rank % 2],
                   float(rank), float(rank) + 0.5,
                   kind=("compute", "send")[rank % 2],
                   nbytes=rank * 100, partner=(rank + 1) % 4)
        for rank in range(12)
    ]

    def assert_parity(self, path, chunk_size):
        from repro.instrument import iter_binary_span
        from tests.oracles import scalar_read_binary

        def chunked(iterator):
            return lambda source, on_error: [
                event for chunk in iterator(source, on_error)
                for event in chunk]

        readers = {
            "eager": read_binary_trace,
            "stream": chunked(lambda source, on_error: iter_binary_trace(
                source, chunk_size, on_error=on_error)),
            "span": chunked(lambda source, on_error: iter_binary_span(
                source, 0, len(self.EVENTS), chunk_size,
                on_error=on_error)),
        }
        for on_error in ("salvage", "raise"):
            expected = read_outcome(scalar_read_binary, path, on_error)
            for name, reader in readers.items():
                assert read_outcome(reader, path, on_error) == expected, \
                    (name, on_error)

    def written(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("overwrite") / "t.rptb"
        write_binary_trace(path, self.EVENTS)
        size = path.stat().st_size
        return path, size - 37 * len(self.EVENTS), size

    @settings(max_examples=120, deadline=None)
    @given(where=st.floats(0.0, 1.0, exclude_max=True),
           junk=st.binary(min_size=1, max_size=16),
           chunk_size=st.integers(1, 7))
    def test_any_byte_range(self, tmp_path_factory, where, junk,
                            chunk_size):
        path, records_at, size = self.written(tmp_path_factory)
        position = records_at + int(where * (size - records_at))
        data = bytearray(path.read_bytes())
        data[position:position + len(junk)] = junk[:size - position]
        path.write_bytes(bytes(data))
        self.assert_parity(path, chunk_size)

    @settings(max_examples=120, deadline=None)
    @given(record=st.integers(0, 11),
           field=st.sampled_from(["region", "activity", "kind", "begin",
                                  "end"]),
           value=st.integers(0, 7), chunk_size=st.integers(1, 7))
    def test_field_overwrite(self, tmp_path_factory, record, field, value,
                             chunk_size):
        """Targeted damage: small codes reach the empty name, the first
        invalid name index and kind, and times that run backwards."""
        from repro.instrument.binary import RECORD
        path, records_at, _ = self.written(tmp_path_factory)
        data = path.read_bytes()
        records = np.frombuffer(data, dtype=RECORD,
                                offset=records_at).copy()
        records[field][record] = value
        path.write_bytes(data[:records_at] + records.tobytes())
        self.assert_parity(path, chunk_size)
