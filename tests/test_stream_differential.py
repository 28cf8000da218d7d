"""Differential suite: the streaming engine against the eager pipeline.

The contract of :class:`OnlineAccumulator`: fed the same events, it
finalizes the very measurements :func:`profile` builds — and therefore
every downstream quantity of the batch engine (dispersion matrices for
every registered index, the three views, the rankings, the efficiency
factorization) agrees to 1e-12, whether the events arrived as one
chunk, as many small chunks, or as independently accumulated shards
merged afterwards.  The stack binner kept as the windowing oracle
(``tests.oracles.WindowedAccumulator``) gets the same treatment against
:func:`window_profiles`.
"""

import numpy as np
import pytest

from repro.core import (AnalysisSession, OnlineAccumulator,
                        available_indices, efficiency)
from repro.instrument import (equal_edges, iter_any, profile,
                              window_profiles, write_binary_trace,
                              write_trace)
from repro.shards import shard_accumulate
from tests.oracles import WindowedAccumulator

TOLERANCE = 1e-12


def chunked(events, size):
    return [events[start:start + size]
            for start in range(0, len(events), size)]


@pytest.fixture(scope="module")
def eager(cfd_run):
    """(events, measurements, session) of the reference pipeline."""
    _, tracer, _ = cfd_run
    measurements = profile(tracer)
    return tracer.events, measurements, AnalysisSession(measurements)


def streamed_session(events, chunk_size):
    accumulator = OnlineAccumulator()
    for chunk in chunked(list(events), chunk_size):
        accumulator.update(chunk)
    return accumulator.session()


def assert_measurements_close(streamed, reference, tolerance=TOLERANCE):
    assert streamed.regions == reference.regions
    assert streamed.activities == reference.activities
    assert streamed.n_processors == reference.n_processors
    np.testing.assert_allclose(streamed.times, reference.times,
                               rtol=0, atol=tolerance)
    assert abs(streamed.total_time
               - reference.total_time) <= tolerance


class TestSingleChunk:
    def test_measurements_are_bit_identical(self, eager):
        events, reference, _ = eager
        streamed = OnlineAccumulator().update(events).finalize()
        assert streamed.regions == reference.regions
        assert streamed.activities == reference.activities
        assert np.array_equal(streamed.times, reference.times)
        assert streamed.total_time == reference.total_time


class TestManyChunks:
    @pytest.mark.parametrize("chunk_size", [1, 7, 100, 4096])
    def test_measurements_are_bit_identical(self, eager, chunk_size):
        """Per-cell additions happen in event order regardless of the
        chunking, so even the floating point matches bit for bit."""
        events, reference, _ = eager
        streamed = streamed_session(events, chunk_size).measurements
        assert np.array_equal(streamed.times, reference.times)
        assert streamed.total_time == reference.total_time

    def test_every_index_matrix_agrees(self, eager):
        events, _, reference = eager
        session = streamed_session(events, 97)
        for index in available_indices():
            expected = reference.dispersion_matrix(index)
            got = session.dispersion_matrix(index)
            np.testing.assert_allclose(got, expected, rtol=0,
                                       atol=TOLERANCE, equal_nan=True)

    def test_views_agree(self, eager):
        events, _, reference = eager
        session = streamed_session(events, 97)
        for index in ("euclidean", "cv", "gini"):
            activity_view, region_view = session.views(index)
            expected_activity, expected_region = reference.views(index)
            for got, expected in ((activity_view, expected_activity),
                                  (region_view, expected_region)):
                np.testing.assert_allclose(got.dispersion,
                                           expected.dispersion, rtol=0,
                                           atol=TOLERANCE, equal_nan=True)
                np.testing.assert_allclose(got.index, expected.index,
                                           rtol=0, atol=TOLERANCE,
                                           equal_nan=True)
                np.testing.assert_allclose(got.scaled_index,
                                           expected.scaled_index, rtol=0,
                                           atol=TOLERANCE, equal_nan=True)

    def test_processor_view_agrees(self, eager):
        events, _, reference = eager
        session = streamed_session(events, 97)
        np.testing.assert_allclose(
            session.processor_view().dispersion,
            reference.processor_view().dispersion,
            rtol=0, atol=TOLERANCE, equal_nan=True)

    def test_rankings_agree(self, eager):
        events, _, reference = eager
        session = streamed_session(events, 97)
        for kind in ("region", "activity"):
            for criterion, parameters in (("maximum", {}),
                                          ("threshold", {"threshold": 0.1}),
                                          ("share", {})):
                got = session.ranking(kind=kind, criterion=criterion,
                                      **parameters)
                expected = reference.ranking(kind=kind, criterion=criterion,
                                             **parameters)
                assert [item.name for item in got.ordered] \
                    == [item.name for item in expected.ordered]
                for mine, theirs in zip(got.ordered, expected.ordered):
                    assert abs(mine.value - theirs.value) <= TOLERANCE

    def test_efficiency_agrees(self, eager):
        events, reference_set, _ = eager
        streamed = streamed_session(events, 97).measurements
        got = efficiency(streamed)
        expected = efficiency(reference_set)
        for field in ("parallel_efficiency", "load_balance",
                      "communication_efficiency"):
            assert abs(getattr(got, field)
                       - getattr(expected, field)) <= TOLERANCE


class TestShardedMerge:
    @pytest.mark.parametrize("n_parts", [2, 3, 8])
    def test_merged_shards_agree(self, eager, n_parts):
        """Partial accumulators over disjoint event ranges, merged in
        order, agree with the eager profile to summation rounding."""
        events, reference, _ = eager
        count = len(events)
        parts = []
        for index in range(n_parts):
            lo = index * count // n_parts
            hi = (index + 1) * count // n_parts
            parts.append(OnlineAccumulator().update(events[lo:hi]))
        merged = parts[0]
        for part in parts[1:]:
            merged = merged.merge(part)
        assert_measurements_close(merged.finalize(), reference)

    def test_merged_session_matrices_agree(self, eager):
        events, _, reference = eager
        half = len(events) // 2
        merged = OnlineAccumulator().update(events[:half]).merge(
            OnlineAccumulator().update(events[half:]))
        session = merged.session()
        for index in available_indices():
            np.testing.assert_allclose(
                session.dispersion_matrix(index),
                reference.dispersion_matrix(index),
                rtol=0, atol=TOLERANCE, equal_nan=True)

    def test_merge_leaves_operands_usable(self, eager):
        events, _, _ = eager
        half = len(events) // 2
        left = OnlineAccumulator().update(events[:half])
        right = OnlineAccumulator().update(events[half:])
        before = dict(left._sums)
        left.merge(right)
        assert left._sums == before          # merge is non-mutating
        assert left.n_events == half


class TestFileDriver:
    """The whole streaming path — file, iterator, shard driver."""

    @pytest.mark.parametrize("suffix", [".jsonl", ".jsonl.gz", ".rptb"])
    def test_stream_from_file_matches_profile(self, eager, tmp_path,
                                              suffix):
        events, reference, _ = eager
        path = tmp_path / f"t{suffix}"
        if suffix == ".rptb":
            write_binary_trace(path, events)
        else:
            write_trace(path, events)
        accumulator = OnlineAccumulator().consume(
            iter_any(path, chunk_size=500))
        streamed = accumulator.finalize()
        assert streamed.regions == reference.regions
        assert np.array_equal(streamed.times, reference.times)

    @pytest.mark.parametrize("n_shards", [1, 2, 5])
    def test_shard_accumulate_matches_profile(self, eager, tmp_path,
                                              n_shards):
        events, reference, _ = eager
        path = tmp_path / "t.jsonl"
        write_trace(path, events)
        merged = shard_accumulate(path, jobs=1, n_shards=n_shards,
                                  chunk_size=256)
        assert_measurements_close(merged.finalize(), reference)

    def test_shard_accumulate_with_workers(self, eager, tmp_path):
        events, reference, _ = eager
        path = tmp_path / "t.rptb"
        write_binary_trace(path, events)
        merged = shard_accumulate(path, jobs=2, chunk_size=512)
        assert_measurements_close(merged.finalize(), reference)


class TestWindowedDifferential:
    @pytest.mark.parametrize("n_windows", [1, 4, 9])
    def test_windowed_accumulator_matches_window_profiles(self, cfd_run,
                                                          n_windows):
        _, tracer, _ = cfd_run
        expected = window_profiles(tracer, n_windows=n_windows)
        layout = profile(tracer)
        edges = equal_edges(tracer.begin, tracer.elapsed, n_windows)
        binner = WindowedAccumulator(edges, layout.regions,
                                     layout.activities, tracer.n_ranks)
        for chunk in chunked(list(tracer.events), 333):
            binner.update(chunk)
        got = binner.finalize()
        assert len(got) == len(expected)
        for mine, theirs in zip(got, expected):
            assert mine.begin == theirs.begin
            assert mine.end == theirs.end
            assert np.array_equal(mine.measurements.times,
                                  theirs.measurements.times)
            assert mine.measurements.total_time \
                == theirs.measurements.total_time

    def test_windowed_merge_agrees(self, cfd_run):
        _, tracer, _ = cfd_run
        events = list(tracer.events)
        layout = profile(tracer)
        edges = equal_edges(tracer.begin, tracer.elapsed, 6)

        def binner(part):
            return WindowedAccumulator(edges, layout.regions,
                                       layout.activities,
                                       tracer.n_ranks).update(part)

        half = len(events) // 2
        merged = binner(events[:half]).merge(binner(events[half:]))
        whole = binner(events)
        for mine, theirs in zip(merged.finalize(), whole.finalize()):
            np.testing.assert_allclose(mine.measurements.times,
                                       theirs.measurements.times,
                                       rtol=0, atol=TOLERANCE)
