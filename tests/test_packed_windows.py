"""Packed windows: a window costs its performed cells.

:func:`repro.instrument.windows.fold_windows` gives each window its
``(N, K)`` ``t_ij`` matrix and the ``(M, P)`` rows of its performed
cells, and :func:`repro.core.temporal.temporal_analysis` reads that
form; the dense ``(N, K, P)`` tensor is built only when
``Window.measurements`` is asked for.

* Against the stack oracle (``tests.oracles.stack_fold_windows``), on
  any trace, chunking and windowing: each window's rows ``array_equal``
  the oracle tensor's performed rows, its ``t_ij`` and ``T`` are the
  oracle's, and the temporal series are, window for window, those of
  :class:`~repro.core.batch.BatchAnalysis` and
  :func:`~repro.core.views.view_indices` on the oracle's window.
* Neither the builder nor the analysis holds a window once the next is
  asked for (``weakref``).
* The fold keeps labels and extent (a
  :class:`~repro.core.online.TraceLayout`), never a tensor, and checks
  every event's times once.
"""

import gc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (BatchAnalysis, MeasurementSet, TraceLayout,
                        available_indices, temporal_analysis)
from repro.core import online
from repro.core.views import view_indices
from repro.errors import ReproError, TraceError
from repro.instrument import EventColumns, TraceEvent, window_profiles
from repro.instrument import windows as windowing
from repro.instrument.windows import Window, fold_windows
from tests.oracles import stack_fold_windows
from tests.test_window_builder import chunks_of, events, windowings


def outcome(build):
    try:
        return build()
    except ReproError as error:
        return type(error), str(error)


@settings(max_examples=200, deadline=None)
@given(trace=st.lists(events(), min_size=1, max_size=40),
       options=windowings(), size=st.integers(1, 41),
       slab=st.sampled_from([1, 3, 1 << 16]),
       index=st.sampled_from(available_indices()))
def test_packed_rows_and_series_match_the_stack_oracle(trace, options, size,
                                                       slab, index):
    chunks = chunks_of(trace, size)
    expected = outcome(lambda: stack_fold_windows(chunks, **options))
    with mock.patch.object(windowing, "SLAB_EVENTS", slab):
        got = outcome(lambda: list(fold_windows(chunks, **options)[0]))
    if isinstance(expected, tuple):
        assert got == expected
        return
    assert len(got) == len(expected)
    for window, reference in zip(got, expected):
        ms = reference.measurements
        assert (window.regions, window.activities) == (ms.regions,
                                                       ms.activities)
        assert np.array_equal(window.rows, ms.times[ms.performed])
        assert np.array_equal(window.t_ij, ms.region_activity_times)
        assert window.total_time == ms.total_time
    analysis = temporal_analysis(got, index)
    regions = np.array([trend.series for trend in analysis.trends]).T
    activities = np.array([trend.series
                           for trend in analysis.activity_trends]).T
    for w, reference in enumerate(expected):
        ms = reference.measurements
        expected_regions, expected_activities = view_indices(
            BatchAnalysis(ms).matrix(index), ms.region_activity_times)
        np.testing.assert_array_equal(regions[w], expected_regions)
        np.testing.assert_array_equal(activities[w], expected_activities)


def bulk_trace(steps=4, ranks=3):
    return [TraceEvent(rank, region, activity, float(step) + offset,
                       step + offset + 0.2 + 0.05 * rank)
            for step in range(steps) for rank in range(ranks)
            for offset, region, activity in ((0.0, "alpha", "computation"),
                                             (0.5, "beta", "collective"))]


class TestWindows:
    def test_a_binned_window_holds_rows_and_builds_its_set(self):
        window = window_profiles(chunks_of(bulk_trace(), 7), 4)[0]
        assert window.t_ij.shape == (2, 2)
        assert window.rows.shape == (2, 3)
        first, second = window.measurements, window.measurements
        assert first is not second
        assert np.array_equal(first.times, second.times)
        assert first.times.shape == (2, 2, 3)
        assert first.total_time == window.total_time

    def test_a_window_made_from_a_set_keeps_it(self):
        times = np.array([[[1.0, 2.0], [0.0, 0.0]]])
        ms = MeasurementSet(times, activities=("a", "b"))
        window = Window(begin=0.0, end=1.0, measurements=ms)
        assert window.measurements is ms
        assert np.array_equal(window.rows, [[1.0, 2.0]])
        assert np.array_equal(window.t_ij, [[2.0, 0.0]])
        assert window.midpoint == 0.5
        # Windows and bare sets are analyzed alike.
        assert temporal_analysis([window]).trends \
            == temporal_analysis([ms]).trends

    def test_series_outgrowing_their_first_size_are_doubled(self):
        """A generator has no length: its series start at 64 windows
        and double; a list's are sized to it."""
        chunks = chunks_of(bulk_trace(steps=8), 5)
        listed = window_profiles(chunks, 200)
        assert len(listed) > 64
        for index in ("euclidean", "gini"):
            streamed = temporal_analysis(fold_windows(chunks, 200)[0], index)
            expected = temporal_analysis(listed, index)
            assert streamed.n_windows == expected.n_windows == len(listed)
            for got, want in ((streamed.trends, expected.trends),
                              (streamed.activity_trends,
                               expected.activity_trends)):
                np.testing.assert_array_equal(
                    [trend.series for trend in got],
                    [trend.series for trend in want])


class TestOneWindowAtATime:
    def test_the_analysis_drops_each_window_before_the_next(self):
        """Each window is handed out, and dropped by the source, before
        the next is asked for: no reference may remain then."""
        held = window_profiles(chunks_of(bulk_trace(steps=6), 5), 6)
        checked = []

        def handed_out():
            while held:
                window = held.pop(0)
                ref = weakref.ref(window)
                yield window
                del window
                gc.collect()
                assert ref() is None, "the analysis kept a window"
                checked.append(True)

        temporal_analysis(handed_out())
        assert len(checked) == 6

    def test_the_builder_drops_each_window_before_binning_the_next(self):
        refs = []
        overlap = windowing._BinningColumns.overlap

        def binning(kept, edges, w):
            assert all(ref() is None for ref in refs), \
                "the builder kept a window"
            return overlap(kept, edges, w)

        with mock.patch.object(windowing._BinningColumns, "overlap",
                               binning):
            windows, _ = fold_windows(chunks_of(bulk_trace(steps=6), 5), 6)
            for window in windows:
                refs.append(weakref.ref(window))
                del window
        assert len(refs) == 6


class TestFold:
    def test_the_fold_keeps_a_layout_and_no_tensor(self):
        with mock.patch.object(online.OnlineAccumulator, "update",
                               side_effect=AssertionError("summed")):
            windows, layout = fold_windows(chunks_of(bulk_trace(), 5), 4)
            assert len(list(windows)) == 4
        assert type(layout) is TraceLayout
        assert layout.n_events == len(bulk_trace())
        assert layout.regions() == ("alpha", "beta")
        assert layout.n_ranks == 3

    @pytest.mark.parametrize("begin,end,message", [
        (0.0, float("nan"), "event times must be finite"),
        (float("-inf"), 1.0, "event times must be finite"),
        (2.0, 1.0, "an event ends before it begins"),
    ])
    def test_event_times_are_checked_once(self, begin, end, message):
        good = EventColumns.from_events(bulk_trace())
        bad = EventColumns.from_events([TraceEvent(0, "alpha",
                                                   "computation", 0.0,
                                                   1.0)])
        bad.begin[0], bad.end[0] = begin, end
        with pytest.raises(TraceError, match=message):
            fold_windows([good, bad], 4)
