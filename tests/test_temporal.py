"""Tests for windowed profiles and the temporal (drift) analysis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MeasurementSet, detect_phases, temporal_analysis
from repro.core.temporal import RegionTrend, _amplification
from repro.errors import MeasurementError, TraceError
from repro.instrument import (Tracer, profile, shift_time, window_profiles,
                              window_profiles_at)
from tests.oracles import rescan_window_profiles, rescan_window_profiles_at


def make_tracer():
    """Two ranks; the imbalance of region 'r' grows over three phases."""
    tracer = Tracer()
    for phase, skew in enumerate((0.0, 0.3, 0.6)):
        begin = float(phase)
        tracer.record(0, "r", "computation", begin, begin + 0.5 + skew)
        tracer.record(1, "r", "computation", begin, begin + 0.5 - skew / 2)
    return tracer


class TestWindowProfiles:
    def test_window_count_and_bounds(self):
        windows = window_profiles(make_tracer(), 3)
        assert len(windows) == 3
        assert windows[0].begin == 0.0
        assert windows[-1].end == pytest.approx(3.1)
        assert windows[1].midpoint > windows[0].midpoint

    def test_windows_partition_the_tensor(self):
        """Summing the windowed tensors recovers the whole profile."""
        tracer = make_tracer()
        whole = profile(tracer)
        windows = window_profiles(tracer, 4)
        total = sum(window.measurements.times for window in windows)
        np.testing.assert_allclose(total, whole.times, atol=1e-12)

    def test_boundary_events_split_proportionally(self):
        tracer = Tracer()
        tracer.record(0, "r", "computation", 0.0, 2.0)
        windows = window_profiles(tracer, 2)
        assert len(windows) == 2
        for window in windows:
            assert window.measurements.times.sum() == pytest.approx(1.0)

    def test_consistent_layout_across_windows(self):
        tracer = Tracer()
        tracer.record(0, "a", "computation", 0.0, 1.0)
        tracer.record(0, "b", "point-to-point", 1.0, 2.0, kind="send")
        windows = window_profiles(tracer, 2)
        first, second = windows
        assert first.measurements.regions == second.measurements.regions
        assert first.measurements.activities == \
            second.measurements.activities

    def test_empty_windows_dropped(self):
        tracer = Tracer()
        tracer.record(0, "r", "computation", 0.0, 0.1)
        tracer.record(0, "r", "computation", 0.9, 1.0)
        windows = window_profiles(tracer, 10)
        assert 1 <= len(windows) <= 3

    def test_rejects_empty_trace(self):
        with pytest.raises(TraceError):
            window_profiles(Tracer(), 2)

    def test_rejects_zero_windows(self):
        with pytest.raises(TraceError):
            window_profiles(make_tracer(), 0)


class TestTemporalAnalysis:
    def test_growing_imbalance_has_positive_slope(self):
        windows = window_profiles(make_tracer(), 3)
        analysis = temporal_analysis(windows)
        trend = analysis.trend("r")
        assert trend.slope > 0.0
        assert trend.series[0] < trend.series[-1]
        # The first window is perfectly balanced (ID 0), so the
        # amplification falls back to the first positive value as the
        # baseline and still reports the degradation.
        assert trend.final > 0.5
        assert trend.amplification > 1.0

    def test_flat_imbalance_is_stationary(self):
        tracer = Tracer()
        for phase in range(3):
            begin = float(phase)
            tracer.record(0, "r", "computation", begin, begin + 1.0)
            tracer.record(1, "r", "computation", begin, begin + 1.0)
        analysis = temporal_analysis(window_profiles(tracer, 3))
        assert analysis.stationary_regions() == ("r",)
        assert analysis.drifting_regions() == ()

    def test_accepts_bare_measurement_sets(self):
        def skewed(delta):
            times = np.zeros((1, 1, 2))
            times[0, 0] = [1.0 + delta, 1.0 - delta]
            return MeasurementSet(times, regions=("r",), activities=("X",))

        analysis = temporal_analysis([skewed(0.0), skewed(0.2),
                                      skewed(0.4)])
        assert analysis.trend("r").slope > 0.0

    def test_unknown_region_rejected(self):
        analysis = temporal_analysis(window_profiles(make_tracer(), 2))
        with pytest.raises(MeasurementError):
            analysis.trend("nope")

    def test_mismatched_regions_rejected(self):
        a = MeasurementSet(np.ones((1, 1, 2)), regions=("a",),
                           activities=("X",))
        b = MeasurementSet(np.ones((1, 1, 2)), regions=("b",),
                           activities=("X",))
        with pytest.raises(MeasurementError):
            temporal_analysis([a, b])

    def test_empty_rejected(self):
        with pytest.raises(MeasurementError):
            temporal_analysis([])


class TestWindowProfilesAt:
    def test_explicit_boundaries(self):
        from repro.instrument import window_profiles_at
        windows = window_profiles_at(make_tracer(), [0.0, 1.0, 2.0, 3.1])
        assert len(windows) == 3
        assert windows[0].end == 1.0
        # Phase-aligned: each window holds exactly one phase's events.
        assert windows[0].measurements.times.sum() == pytest.approx(1.0)

    def test_partial_coverage(self):
        from repro.instrument import window_profiles_at
        windows = window_profiles_at(make_tracer(), [1.0, 2.0])
        assert len(windows) == 1
        assert windows[0].begin == 1.0

    def test_validation(self):
        from repro.instrument import window_profiles_at
        with pytest.raises(TraceError):
            window_profiles_at(make_tracer(), [0.0])
        with pytest.raises(TraceError):
            window_profiles_at(make_tracer(), [1.0, 1.0])
        with pytest.raises(TraceError):
            window_profiles_at(make_tracer(), [100.0, 200.0])


def skewed_set(delta, region="r"):
    """A one-region, two-processor set with imbalance ``delta``."""
    times = np.zeros((1, 1, 2))
    times[0, 0] = [1.0 + delta, 1.0 - delta]
    return MeasurementSet(times, regions=(region,), activities=("X",))


class TestAmplification:
    """Regression suite for the balanced-start blind spot: a series
    starting at exactly 0 used to report amplification 1.0 no matter
    how badly it degraded."""

    def test_positive_start_is_final_over_first(self):
        assert _amplification([2.0, 1.0, 5.0]) == pytest.approx(2.5)

    def test_zero_start_uses_first_positive_baseline(self):
        assert _amplification([0.0, 2.0, 5.0]) == pytest.approx(2.5)

    def test_zero_start_sudden_degradation_is_infinite(self):
        assert _amplification([0.0, 0.0, 5.0]) == float("inf")

    def test_all_zero_is_one(self):
        assert _amplification([0.0, 0.0, 0.0]) == 1.0

    def test_recovery_to_zero(self):
        assert _amplification([0.0, 2.0, 0.0]) == 0.0

    def test_nan_windows_skipped(self):
        assert _amplification([float("nan"), 2.0, 4.0]) == pytest.approx(2.0)

    def test_short_series_is_one(self):
        assert _amplification([3.0]) == 1.0
        assert _amplification([]) == 1.0

    def test_trend_skips_nan_windows_and_returns_floats(self):
        nan = float("nan")
        trend = RegionTrend(region="r", series=(nan, 0.0, 2.0, nan, 4.0, nan),
                            slope=0.0, mean=2.0)
        assert trend.final == 4.0 and type(trend.final) is float
        assert trend.amplification == 2.0
        assert type(trend.amplification) is float
        idle = RegionTrend(region="r", series=(nan, nan), slope=0.0,
                           mean=nan)
        assert np.isnan(idle.final) and idle.amplification == 1.0

    def test_balanced_start_then_degrading_region_is_flagged(self):
        """Acceptance regression: a region that starts perfectly
        balanced (index exactly 0) and then degrades must show up in
        drifting_regions()."""
        analysis = temporal_analysis(
            [skewed_set(0.0), skewed_set(0.2), skewed_set(0.5)])
        trend = analysis.trend("r")
        assert trend.series[0] == pytest.approx(0.0)
        assert trend.slope > 0.0
        assert trend.amplification >= 1.5
        assert "r" in analysis.drifting_regions()


def offset_tracer(offset):
    """The drifting two-rank trace translated to start at ``offset``."""
    return shift_time(make_tracer(), offset)


class TestSweepMatchesRescan:
    """The single-pass sweep must be bit-identical to the historical
    per-window rescan, offsets included."""

    @staticmethod
    def assert_windows_identical(old, new):
        assert len(old) == len(new)
        for reference, candidate in zip(old, new):
            assert reference.begin == candidate.begin
            assert reference.end == candidate.end
            ms_old, ms_new = reference.measurements, candidate.measurements
            assert ms_old.regions == ms_new.regions
            assert ms_old.activities == ms_new.activities
            assert np.array_equal(ms_old.times, ms_new.times)
            assert ms_old.total_time == ms_new.total_time

    @pytest.mark.parametrize("n_windows", [1, 2, 3, 7, 64])
    def test_equal_windows(self, n_windows):
        tracer = make_tracer()
        self.assert_windows_identical(
            rescan_window_profiles(tracer, n_windows),
            window_profiles(tracer, n_windows))

    @pytest.mark.parametrize("offset", [0.25, 5.0, 1234.5])
    def test_offset_traces(self, offset):
        tracer = offset_tracer(offset)
        self.assert_windows_identical(
            rescan_window_profiles(tracer, 5),
            window_profiles(tracer, 5))

    def test_explicit_boundaries(self):
        tracer = make_tracer()
        boundaries = [0.0, 0.4, 1.0, 2.2, 3.1]
        self.assert_windows_identical(
            rescan_window_profiles_at(tracer, boundaries),
            window_profiles_at(tracer, boundaries))

    def test_mixed_regions_and_activities(self):
        tracer = Tracer()
        tracer.record(0, "a", "computation", 0.0, 1.3)
        tracer.record(1, "a", "point-to-point", 0.2, 0.9, kind="send")
        tracer.record(0, "b", "synchronization", 1.3, 2.8, kind="wait")
        tracer.record(1, "b", "computation", 1.0, 2.5)
        self.assert_windows_identical(
            rescan_window_profiles(tracer, 4),
            window_profiles(tracer, 4))


class TestOffsetWindows:
    """window_profiles used to assume traces start at t=0: a trace
    beginning at t=1000 produced windows covering [0, end] with all the
    mass crammed into the tail."""

    def test_edges_span_the_actual_extent(self):
        tracer = offset_tracer(1000.0)
        windows = window_profiles(tracer, 4)
        assert windows[0].begin == pytest.approx(1000.0)
        assert windows[-1].end == pytest.approx(1003.1)

    def test_offset_windows_partition_the_tensor(self):
        tracer = offset_tracer(1000.0)
        whole = profile(tracer)
        total = sum(w.measurements.times for w in window_profiles(tracer, 4))
        np.testing.assert_allclose(total, whole.times, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(offset=st.floats(min_value=0.0, max_value=1e6,
                            allow_nan=False, allow_infinity=False),
           n_windows=st.integers(min_value=1, max_value=9))
    def test_windows_sum_to_whole_trace_under_any_offset(
            self, offset, n_windows):
        tracer = offset_tracer(offset)
        whole = profile(tracer)
        windows = window_profiles(tracer, n_windows)
        total = sum(w.measurements.times for w in windows)
        np.testing.assert_allclose(total, whole.times,
                                   rtol=1e-9, atol=1e-9 * (1.0 + offset))


class TestDetectPhases:
    def test_step_change_found_at_boundary(self):
        phases = detect_phases([0.0, 0.0, 0.0, 5.0, 5.0, 5.0])
        assert len(phases) == 2
        assert (phases[0].begin, phases[0].end) == (0, 3)
        assert (phases[1].begin, phases[1].end) == (3, 6)
        assert phases[0].mean == pytest.approx(0.0)
        assert phases[1].mean == pytest.approx(5.0)

    def test_flat_series_is_one_phase(self):
        phases = detect_phases([2.0] * 8)
        assert len(phases) == 1
        assert phases[0].n_windows == 8

    def test_jitter_around_a_step_yields_only_the_step(self):
        rng = np.random.default_rng(7)
        series = np.concatenate([np.zeros(16), np.full(16, 5.0)])
        series += 0.01 * rng.standard_normal(32)
        phases = detect_phases(series)
        assert [p.begin for p in phases] == [0, 16]

    def test_three_levels(self):
        series = [0.0] * 4 + [3.0] * 4 + [9.0] * 4
        phases = detect_phases(series)
        assert [p.begin for p in phases] == [0, 4, 8]

    def test_nan_windows_carry_no_evidence(self):
        phases = detect_phases([0.0, float("nan"), 0.0, 5.0, 5.0, 5.0])
        assert phases[-1].begin == 3

    def test_all_nan_series_is_one_nan_phase(self):
        phases = detect_phases([float("nan")] * 4)
        assert len(phases) == 1
        assert np.isnan(phases[0].mean)

    def test_explicit_penalty_suppresses_splits(self):
        series = [0.0, 0.0, 5.0, 5.0]
        assert len(detect_phases(series)) == 2
        assert len(detect_phases(series, penalty=1e6)) == 1

    def test_empty_series_rejected(self):
        with pytest.raises(MeasurementError):
            detect_phases([])

    def test_bad_min_size_rejected(self):
        with pytest.raises(MeasurementError):
            detect_phases([1.0, 2.0], min_size=0)


class TestForecast:
    def drifting_analysis(self):
        return temporal_analysis(
            [skewed_set(0.1), skewed_set(0.2), skewed_set(0.3)])

    def test_already_crossed_reports_first_observed_window(self):
        trend = self.drifting_analysis().trend("r")
        threshold = trend.series[1]
        assert trend.forecast_window(threshold) == 1.0

    def test_future_crossing_extrapolates(self):
        trend = self.drifting_analysis().trend("r")
        threshold = trend.series[-1] + 2.0 * trend.slope
        window = trend.forecast_window(threshold)
        assert len(trend.series) - 1 < window < float("inf")

    def test_declining_series_never_crosses(self):
        analysis = temporal_analysis(
            [skewed_set(0.3), skewed_set(0.2), skewed_set(0.1)])
        assert analysis.trend("r").forecast_window(1e9) == float("inf")

    def test_forecast_maps_every_region(self):
        analysis = self.drifting_analysis()
        forecasts = analysis.forecast(1e9)
        assert set(forecasts) == {"r"}


class TestTemporalEdgeCases:
    def test_single_window(self):
        analysis = temporal_analysis(window_profiles(make_tracer(), 1))
        assert analysis.n_windows == 1
        trend = analysis.trend("r")
        assert trend.slope == 0.0
        assert trend.amplification == 1.0
        assert analysis.drifting_regions() == ()

    def test_all_nan_region_series(self):
        """A region that never runs has a nan index in every window;
        it must neither crash nor be reported as drifting."""
        def with_quiet(delta):
            times = np.zeros((2, 1, 2))
            times[0, 0] = [1.0 + delta, 1.0 - delta]
            return MeasurementSet(times, regions=("r", "quiet"),
                                  activities=("X",))

        analysis = temporal_analysis(
            [with_quiet(0.0), with_quiet(0.2), with_quiet(0.4)])
        quiet = analysis.trend("quiet")
        assert all(np.isnan(value) for value in quiet.series)
        assert quiet.slope == 0.0
        assert quiet.amplification == 1.0
        assert "quiet" not in analysis.drifting_regions()
        assert "r" in analysis.drifting_regions()

    def test_mixed_windows_and_sets(self):
        windows = window_profiles(make_tracer(), 2)
        extra = windows[-1].measurements
        analysis = temporal_analysis(list(windows) + [extra])
        assert analysis.n_windows == 3

    def test_mixed_inputs_with_mismatched_regions_rejected(self):
        windows = window_profiles(make_tracer(), 2)
        alien = MeasurementSet(np.ones((1, 1, 2)), regions=("other",),
                               activities=("X",))
        with pytest.raises(MeasurementError):
            temporal_analysis(list(windows) + [alien])

    def test_heterogeneous_processor_counts_fall_back(self):
        """Sets with different P are analyzed window by window like any
        other: trends still come out, activity trends included."""
        wide = np.zeros((1, 1, 4))
        wide[0, 0] = [1.4, 0.6, 1.0, 1.0]
        analysis = temporal_analysis(
            [skewed_set(0.0), skewed_set(0.2),
             MeasurementSet(wide, regions=("r",), activities=("X",))])
        assert analysis.n_windows == 3
        assert analysis.trend("r").series[-1] > 0.0
        assert len(analysis.activity_trend("X").series) == 3

    def test_differing_activities_give_no_activity_trends(self):
        other = MeasurementSet(np.ones((1, 1, 2)), regions=("r",),
                               activities=("Y",))
        analysis = temporal_analysis([skewed_set(0.2), other])
        assert analysis.activity_trends == ()
        assert analysis.trend("r").series[1] == 0.0

    def test_activity_trends_on_homogeneous_windows(self):
        analysis = temporal_analysis(window_profiles(make_tracer(), 3))
        trend = analysis.activity_trend("computation")
        assert len(trend.series) == 3
        with pytest.raises(MeasurementError):
            analysis.activity_trend("quantum")

    def test_phases_of_overall_series(self):
        analysis = temporal_analysis(
            [skewed_set(0.0)] * 3 + [skewed_set(0.5)] * 3)
        phases = analysis.phases()
        assert len(phases) == 2
        assert phases[1].begin == 3
