"""The windowed path: per-window views, zero-copy windows, memory.

* A time-resolved analysis must give, window for window, exactly the
  views :class:`~repro.core.batch.BatchAnalysis` and
  :func:`~repro.core.views.view_indices` give on that window alone —
  for every registered index, including a custom one registered with
  ``register_index`` as one last-axis function, and on stacks with dash
  cells, windows with no performed cell and a single processor.  One
  window over a whole trace gives its whole-trace views bit for bit.
* The windows the stack oracle :meth:`WindowedAccumulator.finalize`
  (``tests.oracles``) returns are read-only views of one stack;
  accumulating after finalize copies the stack first, so returned
  windows never change.
* A temporal run holds one windowed tensor: windowing a trace and
  rendering its report each peak below 1.25x the tensor plus one
  decoded chunk (traced by ``tracemalloc``).  Since windows are built
  one at a time, the report's peak does not grow with the window
  count: ``build_report`` at 256 windows, and a daemon job at
  ``MAX_WINDOWS``, stay within a small factor of 16 windows.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (AnalysisSession, BatchAnalysis, MeasurementSet,
                        available_indices, register_index,
                        temporal_analysis)
from repro.core.views import view_indices
from repro.instrument import (TraceEvent, Tracer, iter_any, profile,
                              window_profiles, write_binary_trace)
from repro.instrument.stream import trace_windows
from repro.reports import build_report, render_temporal_report
from tests.oracles import WindowedAccumulator

CUSTOM = "midrange-windowed-test-only"
SPARSE = "nan-when-concentrated-test-only"


@pytest.fixture(scope="module")
def custom_index():
    """A custom last-axis index: the windowed path evaluates it like the
    built-ins."""
    from repro.core import dispersion
    register_index(CUSTOM)(lambda data: np.ptp(data, axis=-1) / 2)
    yield CUSTOM
    del dispersion._REGISTRY[CUSTOM]


@pytest.fixture(scope="module")
def sparse_index():
    """A custom last-axis index that scores some *performed* cells nan
    (those where the first processor holds the most time): both views
    must leave those cells out of their weighted means alike."""
    from repro.core import dispersion
    register_index(SPARSE)(lambda data: np.where(
        data.argmax(axis=-1) == 0, np.nan, np.ptp(data, axis=-1)))
    yield SPARSE
    del dispersion._REGISTRY[SPARSE]


@st.composite
def window_stacks(draw):
    """Measurement sets sharing one layout: dash cells, windows with no
    performed cell at all, and (often) a single processor."""
    n = draw(st.integers(min_value=1, max_value=3))
    k = draw(st.integers(min_value=1, max_value=3))
    p = draw(st.sampled_from([1, 1, 2, 3, 5]))
    n_windows = draw(st.integers(min_value=1, max_value=4))
    values = st.one_of(st.just(0.0),
                       st.floats(min_value=1e-3, max_value=1e3))
    sets = []
    for _ in range(n_windows):
        cells = draw(st.lists(values, min_size=n * k * p,
                              max_size=n * k * p))
        tensor = np.array(cells).reshape(n, k, p)
        if draw(st.booleans()):
            # A dash cell in every window that has some time.
            tensor[draw(st.integers(0, n - 1)),
                   draw(st.integers(0, k - 1))] = 0.0
        if draw(st.integers(0, 4)) == 0:
            tensor[...] = 0.0           # no performed cell at all
        sets.append(MeasurementSet(tensor))
    return sets


@settings(max_examples=80, deadline=None)
@given(sets=window_stacks())
def test_temporal_series_match_batch_analysis_per_window(
        sets, custom_index):
    for index in (*available_indices(), custom_index):
        analysis = temporal_analysis(sets, index)
        assert analysis.n_windows == len(sets)
        regions = np.array([trend.series for trend in analysis.trends]).T
        activities = np.array([trend.series
                               for trend in analysis.activity_trends]).T
        for w, ms in enumerate(sets):
            expected_regions, expected_activities = view_indices(
                BatchAnalysis(ms).matrix(index), ms.region_activity_times)
            np.testing.assert_array_equal(regions[w], expected_regions)
            np.testing.assert_array_equal(activities[w],
                                          expected_activities)
            # ... which are the whole-set views (their scaled indices
            # divide by T, 0 for an idle window).
            with np.errstate(invalid="ignore"):
                activity_view, region_view = AnalysisSession(ms).views(index)
            np.testing.assert_array_equal(regions[w], region_view.index)
            np.testing.assert_array_equal(activities[w],
                                          activity_view.index)


def seeded_tracer(seed=11, ranks=6, n_regions=12, steps=3):
    """Bulk-synchronous steps over ``n_regions`` regions, three
    activities each, with seeded per-rank durations."""
    rng = np.random.default_rng(seed)
    tracer = Tracer()
    clock = 0.0
    for _ in range(steps):
        for region in range(n_regions):
            for activity in ACTIVITY_NAMES[:3]:
                for rank, duration in enumerate(
                        rng.uniform(0.1, 1.0, ranks)):
                    tracer.record(rank, f"region {region}", activity,
                                  clock, clock + float(duration))
                clock += 1.0
    return tracer


def test_one_window_gives_the_whole_trace_views(custom_index,
                                                sparse_index):
    tracer = seeded_tracer()
    whole = profile(tracer)
    windows = window_profiles(tracer, 1)
    np.testing.assert_array_equal(windows[0].measurements.times,
                                  whole.times)
    session = AnalysisSession(whole)
    assert whole.n_regions >= 8
    for index in (*available_indices(), custom_index, sparse_index):
        analysis = temporal_analysis(windows, index)
        activity_view, region_view = session.views(index)
        np.testing.assert_array_equal(
            [trend.series[0] for trend in analysis.trends],
            region_view.index)
        np.testing.assert_array_equal(
            [trend.series[0] for trend in analysis.activity_trends],
            activity_view.index)
    # The sparse index scores some performed cells nan, and not all.
    matrix = session.dispersion_matrix(sparse_index)
    dropped = np.isnan(matrix) & whole.performed
    assert dropped.any() and not dropped.all()


def drifting_tracer():
    """Three ranks, two regions; rank 0 slows down over four steps."""
    tracer = Tracer()
    for step in range(4):
        begin = float(step)
        for rank in range(3):
            work = 0.4 + (0.1 * step if rank == 0 else 0.0)
            tracer.record(rank, "solve", "computation", begin, begin + work)
            tracer.record(rank, "halo", "point-to-point", begin + 0.5,
                          begin + 0.6 + 0.05 * rank, kind="send",
                          nbytes=64, partner=(rank + 1) % 3)
    return tracer


def accumulator(tracer, n_windows=4):
    windows = window_profiles(tracer, n_windows)
    first = windows[0].measurements
    edges = [window.begin for window in windows] + [windows[-1].end]
    return WindowedAccumulator(edges, first.regions, first.activities,
                               first.n_processors)


class TestZeroCopyWindows:
    def test_windows_are_read_only_views_of_one_stack(self):
        tracer = drifting_tracer()
        windows = accumulator(tracer).consume([tracer.events]).finalize()
        stack = windows[0].measurements.times.base
        assert stack is not None and stack.ndim == 4
        for window in windows:
            times = window.measurements.times
            assert times.base is stack
            assert not times.flags.writeable
            with pytest.raises(ValueError):
                times[0, 0, 0] = 1.0

    @pytest.mark.parametrize("fold", ["update", "consume"])
    def test_folding_after_finalize_leaves_windows_unchanged(self, fold):
        tracer = drifting_tracer()
        binner = accumulator(tracer).consume([tracer.events])
        before = binner.finalize()
        saved = [window.measurements.times.copy() for window in before]
        more = [TraceEvent(1, "solve", "computation", 0.1, 3.5)]
        if fold == "update":
            binner.update(more)
        else:
            binner.consume([more])
        for window, times in zip(before, saved):
            assert not window.measurements.times.flags.writeable
            np.testing.assert_array_equal(window.measurements.times, times)
        after = binner.finalize()
        grown = sum(w.measurements.times.sum() for w in after)
        assert grown == pytest.approx(sum(t.sum() for t in saved) + 3.4)


# ----------------------------------------------------------------------
# Memory: one windowed tensor per temporal run
# ----------------------------------------------------------------------
RANKS, REGIONS, ACTIVITIES, STEPS, WINDOWS = 256, 16, 4, 4, 64
ACTIVITY_NAMES = ("computation", "point-to-point", "collective",
                  "synchronization")


@pytest.fixture(scope="module")
def wide_trace(tmp_path_factory):
    """Bulk-synchronous binary trace: every step runs every region, each
    region its four activities in turn on all ranks."""
    rng = np.random.default_rng(7)
    events = []
    clock = 0.0
    for _ in range(STEPS):
        for region in range(REGIONS):
            for activity in ACTIVITY_NAMES:
                durations = rng.uniform(0.5, 1.0, RANKS)
                events.extend(TraceEvent(rank, f"region {region}", activity,
                                         clock, clock + float(duration))
                              for rank, duration in enumerate(durations))
                clock += 1.0
    path = tmp_path_factory.mktemp("wide") / "wide.rptb"
    write_binary_trace(path, events)
    return path


def test_temporal_run_holds_one_windowed_tensor(wide_trace):
    # Warm-up on the same code paths, so no first-time import or cache
    # is charged to the traced stages.
    warm, scout = trace_windows(wide_trace, 2)
    render_temporal_report(warm, scout.n_events, phases=True,
                           forecast=0.5, heatmap=True)
    del warm
    chunk = next(iter(iter_any(wide_trace)))
    chunk_bytes = sum(getattr(chunk, column).nbytes for column in (
        "rank", "region", "activity", "begin", "end", "kind", "nbytes",
        "partner"))
    del chunk
    tensor_bytes = WINDOWS * REGIONS * ACTIVITIES * RANKS * 8
    bound = 1.25 * tensor_bytes + chunk_bytes

    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        windows, scout = trace_windows(wide_trace, WINDOWS)
        windowing = tracemalloc.get_traced_memory()[1] - baseline
        tracemalloc.reset_peak()
        text = render_temporal_report(windows, scout.n_events, phases=True,
                                      forecast=0.5, heatmap=True)
        report = tracemalloc.get_traced_memory()[1] - baseline
    finally:
        tracemalloc.stop()
    assert "time-resolved analysis: 64 windows" in text
    assert windowing < bound, (
        f"windowing peaked at {windowing / tensor_bytes:.2f}x the tensor")
    assert report < bound, (
        f"the report peaked at {report / tensor_bytes:.2f}x the tensor")


#: Largest ratio of a temporal report's traced peak at many windows to
#: its peak at 16 windows on ``wide_trace``.  Measured on the
#: one-window-at-a-time builder: 1.00 for ``build_report`` at 256
#: windows, 1.6 for it at 4,096 and 2.1 for a daemon job at 4,096,
#: where only the per-window series, the text and the JSON payload
#: grow.  The ``(W, N, K, P)`` stack made it 5.5 at 256 windows.
WINDOW_PEAK_FACTOR = 3.0


def traced_peak(run):
    """Peak bytes traced while ``run()`` runs, in every thread."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_report_peak_does_not_grow_with_the_window_count(wide_trace):
    def build(windows):
        document = build_report(
            "temporal", wide_trace,
            {"windows": windows, "forecast": 0.5, "heatmap": True})
        assert document["n_windows"] == windows

    build(2)            # warm-up: no first-time import is charged
    few = traced_peak(lambda: build(16))
    many = traced_peak(lambda: build(256))
    assert many < WINDOW_PEAK_FACTOR * few, (
        f"256 windows peaked at {many / few:.2f}x the peak at 16")


def test_daemon_temporal_job_at_max_windows(wide_trace, tmp_path):
    """The largest window count a daemon request may ask for runs as
    one window at a time: the job completes within the same factor of
    a 16-window job's peak."""
    from repro.cache import ReportCache
    from repro.reports import MAX_WINDOWS
    from repro.serve.jobs import JobRunner
    from repro.serve.store import TraceStore
    store = TraceStore(tmp_path / "store")
    meta, _ = store.add_file(wide_trace)
    runner = JobRunner(store, ReportCache(tmp_path / "cache"), workers=1)

    def job(windows):
        payload = runner.fetch(meta.sha256, "temporal",
                               {"windows": windows})
        assert payload["status"] == "ok"
        assert 1 < payload["report"]["n_windows"] <= windows

    try:
        job(2)
        few = traced_peak(lambda: job(16))
        many = traced_peak(lambda: job(MAX_WINDOWS))
    finally:
        runner.shutdown()
    assert many < WINDOW_PEAK_FACTOR * few, (
        f"{MAX_WINDOWS} windows peaked at {many / few:.2f}x the peak at 16")

