"""Unit tests for the three dissimilarity views."""

import numpy as np
import pytest

from repro.core import (MeasurementSet, compute_activity_and_region_views,
                        compute_activity_view, compute_processor_view,
                        compute_region_view, dispersion_matrix)
from repro.errors import DispersionError


class TestDispersionMatrix:
    def test_values_hand_computed(self, tiny_measurements):
        matrix = dispersion_matrix(tiny_measurements)
        # A/X balanced -> 0; A/Y concentrated on p0 of 4 -> sqrt(0.75).
        assert matrix[0, 0] == pytest.approx(0.0)
        assert matrix[0, 1] == pytest.approx(np.sqrt(0.75))
        # B/X standardized (.125, .25, .375, .25), mean .25:
        # sqrt(2 * 0.125^2) = 0.1767767...
        assert matrix[1, 0] == pytest.approx(np.sqrt(2 * 0.125 ** 2))

    def test_not_performed_is_nan(self, tiny_measurements):
        matrix = dispersion_matrix(tiny_measurements)
        assert np.isnan(matrix[1, 1])

    def test_other_index(self, tiny_measurements):
        matrix = dispersion_matrix(tiny_measurements, index="cv")
        assert matrix[0, 0] == pytest.approx(0.0)
        # A/Y standardized (1,0,0,0): std = sqrt(3)/4, mean = 1/4 -> sqrt(3)
        assert matrix[0, 1] == pytest.approx(np.sqrt(3))

    def test_unknown_index_rejected(self, tiny_measurements):
        with pytest.raises(DispersionError):
            dispersion_matrix(tiny_measurements, index="nope")


class TestActivityView:
    def test_weighted_average(self, tiny_measurements):
        view = compute_activity_view(tiny_measurements)
        # Activity X: ID = 0 (A, weight 2) and 0.17678 (B, weight 3):
        # ID_A = 3/5 * 0.1767767
        assert view.index[0] == pytest.approx(0.6 * np.sqrt(2 * 0.125 ** 2))
        # Activity Y performed only in A.
        assert view.index[1] == pytest.approx(np.sqrt(0.75))

    def test_scaled_index(self, tiny_measurements):
        view = compute_activity_view(tiny_measurements)
        total = tiny_measurements.total_time      # 2 + 4 + 3 = 9
        assert total == pytest.approx(9.0)
        assert view.scaled_index[1] == pytest.approx(
            (4.0 / 9.0) * np.sqrt(0.75))

    def test_most_imbalanced(self, tiny_measurements):
        view = compute_activity_view(tiny_measurements)
        assert view.most_imbalanced() == "Y"

    def test_ranking(self, tiny_measurements):
        view = compute_activity_view(tiny_measurements)
        assert view.ranking() == ("Y", "X")

    def test_localize(self, tiny_measurements):
        view = compute_activity_view(tiny_measurements)
        assert view.localize("X") == "B"
        assert view.localize("Y") == "A"

    def test_uniform_weighting(self, tiny_measurements):
        view = compute_activity_view(tiny_measurements, weighting="uniform")
        assert view.index[0] == pytest.approx(np.sqrt(2 * 0.125 ** 2) / 2)

    def test_bad_weighting_rejected(self, tiny_measurements):
        with pytest.raises(DispersionError):
            compute_activity_view(tiny_measurements, weighting="nope")


class TestRegionView:
    def test_weighted_average(self, tiny_measurements):
        view = compute_region_view(tiny_measurements)
        # Region A: weights (2, 4)/6 over IDs (0, sqrt(.75)).
        assert view.index[0] == pytest.approx((4.0 / 6.0) * np.sqrt(0.75))
        # Region B: only X.
        assert view.index[1] == pytest.approx(np.sqrt(2 * 0.125 ** 2))

    def test_scaled_index(self, tiny_measurements):
        view = compute_region_view(tiny_measurements)
        assert view.scaled_index[0] == pytest.approx(
            (6.0 / 9.0) * (4.0 / 6.0) * np.sqrt(0.75))

    def test_most_imbalanced(self, tiny_measurements):
        view = compute_region_view(tiny_measurements)
        assert view.most_imbalanced() == "A"

    def test_localize(self, tiny_measurements):
        view = compute_region_view(tiny_measurements)
        assert view.localize("A") == "Y"
        assert view.localize("B") == "X"

    def test_tuning_candidates_filters_small_regions(self):
        times = np.zeros((2, 1, 2))
        times[0, 0] = [1.0, 3.0]         # big, imbalanced
        times[1, 0] = [0.001, 0.004]     # tiny, very imbalanced
        ms = MeasurementSet(times, regions=("big", "tiny"),
                            activities=("X",))
        view = compute_region_view(ms)
        assert view.tuning_candidates(minimum_time_share=0.05) == ("big",)

    def test_both_views_share_dispersion(self, tiny_measurements):
        activity_view, region_view = compute_activity_and_region_views(
            tiny_measurements)
        np.testing.assert_array_equal(
            np.nan_to_num(activity_view.dispersion),
            np.nan_to_num(region_view.dispersion))


class TestProcessorView:
    def test_balanced_region_gives_zero(self):
        times = np.zeros((1, 2, 4))
        times[0, 0] = 2.0
        times[0, 1] = 1.0
        ms = MeasurementSet(times)
        view = compute_processor_view(ms)
        np.testing.assert_allclose(view.dispersion, 0.0)

    def test_deviant_processor_detected(self, tiny_measurements):
        view = compute_processor_view(tiny_measurements)
        # Region A: processor 0's profile (1/3, 2/3), others (1, 0).
        assert view.most_imbalanced_processor("A") == 0
        # Hand value: mean profile = (1/3 + 3)/4 = 5/6 for X.
        # p0 deviation: (1/3 - 5/6) = -1/2 in X, +1/2 in Y -> sqrt(0.5)
        assert view.dispersion[0, 0] == pytest.approx(np.sqrt(0.5))
        # Others: (1 - 5/6) = 1/6 in X, -1/6 in Y -> sqrt(2)/6
        assert view.dispersion[0, 1] == pytest.approx(np.sqrt(2) / 6)

    def test_single_activity_region_is_flat(self, tiny_measurements):
        view = compute_processor_view(tiny_measurements)
        # Region B performs only X: every profile is (1,), ID_P = 0.
        np.testing.assert_allclose(view.dispersion[1, :], 0.0)

    def test_counts_and_times(self, tiny_measurements):
        view = compute_processor_view(tiny_measurements)
        counts = view.imbalance_counts()
        assert counts.sum() == tiny_measurements.n_regions
        assert counts[0] >= 1
        times = view.imbalanced_times()
        assert times[0] >= 6.0       # processor 0's own time in region A

    def test_summary(self, tiny_measurements):
        summary = compute_processor_view(tiny_measurements).summary()
        assert summary.most_frequent == 0
        assert summary.region_winners["A"] == 0
        assert summary.longest == 0
        assert summary.longest_time >= 6.0

    def test_non_euclidean_rejected(self, tiny_measurements):
        with pytest.raises(DispersionError):
            compute_processor_view(tiny_measurements, index="cv")

    def test_non_euclidean_refused_before_the_matrix_is_built(
            self, tiny_measurements, monkeypatch):
        from repro.core import BatchAnalysis

        def fail(self):
            raise AssertionError("processor matrix built for a refused "
                                 "index")

        monkeypatch.setattr(BatchAnalysis, "processor_dispersion", fail)
        with pytest.raises(DispersionError):
            compute_processor_view(tiny_measurements, index="gini")

    def test_session_view_holds_the_engine_matrix(self, tiny_measurements):
        """The session's processor view shares the batch engine's
        cached ``(N, P)`` matrix, read-only, instead of a copy."""
        from repro.core import AnalysisSession
        session = AnalysisSession(tiny_measurements)
        view = session.processor_view()
        assert np.shares_memory(view.dispersion,
                                session.batch.processor_dispersion())
        with pytest.raises(ValueError, match="read-only"):
            view.dispersion[0, 0] = 1.0
