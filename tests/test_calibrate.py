"""Tests of the paper-data constants and the dataset reconstruction."""

import numpy as np
import pytest

from repro.calibrate import (DESIGNATED_PROCESSOR, paper_data, reconstruct,
                             shares, spotlight, times_from_shares, verify)
from repro.calibrate.directions import direction_from_shape
from repro.core import compute_activity_view, compute_region_view
from repro.errors import CalibrationError


class TestPaperDataConsistency:
    """The published tables must be internally consistent."""

    def test_overall_column_matches_row_sums(self):
        np.testing.assert_allclose(paper_data.TABLE_1.sum(axis=1),
                                   paper_data.TABLE_1_OVERALL, atol=5e-4)

    def test_dashes_agree_between_tables(self):
        assert np.array_equal(paper_data.TABLE_1 > 0,
                              ~np.isnan(paper_data.TABLE_2))

    def test_recomputed_id_a_matches_printed(self):
        recomputed = paper_data.recomputed_id_a()
        for activity, printed in paper_data.TABLE_3_ID_A.items():
            assert recomputed[activity] == pytest.approx(printed, abs=4e-4)

    def test_recomputed_id_c_matches_printed(self):
        recomputed = paper_data.recomputed_id_c()
        for region, printed in paper_data.TABLE_4_ID_C.items():
            assert recomputed[region] == pytest.approx(printed, abs=2e-4)

    def test_derived_total_time(self):
        # T ~ 69.9 s; the loops cover 64.754 s (~92.6%).
        assert paper_data.TOTAL_TIME == pytest.approx(69.9, abs=0.15)
        assert paper_data.loops_total_time() == pytest.approx(64.754)

    def test_scaled_indices_reconstruct_from_t(self):
        id_a = paper_data.recomputed_id_a()
        activity_times = paper_data.TABLE_1.sum(axis=0)
        for j, activity in enumerate(paper_data.ACTIVITIES):
            sid = id_a[activity] * activity_times[j] / paper_data.TOTAL_TIME
            assert sid == pytest.approx(paper_data.TABLE_3_SID_A[activity],
                                        abs=2e-5)

    def test_loop1_share_of_program(self):
        share = paper_data.TABLE_1_OVERALL[0] / paper_data.TOTAL_TIME
        assert share == pytest.approx(0.27, abs=0.005)


class TestDirections:
    def test_spotlight_is_unit_and_zero_mean(self):
        direction = spotlight(16, 3, +1)
        assert direction.sum() == pytest.approx(0.0, abs=1e-12)
        assert np.linalg.norm(direction) == pytest.approx(1.0)
        assert direction[3] == direction.max()

    def test_spotlight_negative(self):
        direction = spotlight(16, 3, -1)
        assert direction[3] == direction.min()

    def test_shares_hit_requested_dispersion(self):
        values = shares(16, 0.1, spotlight(16, 0, +1))
        assert values.sum() == pytest.approx(1.0)
        assert np.linalg.norm(values - values.mean()) == pytest.approx(0.1)

    def test_shares_reject_negative_result(self):
        with pytest.raises(CalibrationError):
            shares(16, 0.9, spotlight(16, 0, -1))

    def test_times_from_shares_max_convention(self):
        values = times_from_shares(shares(4, 0.1, spotlight(4, 1, +1)), 7.0)
        assert values.max() == pytest.approx(7.0)

    def test_direction_from_shape_banding_preserved(self):
        shape = np.array([0.0, 0.1, 1.0, 5.0])
        direction = direction_from_shape(shape)
        assert np.argmax(direction) == 3
        assert np.argmin(direction) == 0

    def test_constant_shape_rejected(self):
        with pytest.raises(CalibrationError):
            direction_from_shape([1.0, 1.0])


class TestReconstruction:
    def test_all_constraints_hold(self, paper_measurements):
        report = verify(paper_measurements)
        assert report.passed, report.describe_failures()

    def test_table1_exact(self, paper_measurements):
        np.testing.assert_allclose(paper_measurements.region_activity_times,
                                   paper_data.TABLE_1, atol=1e-12)
        np.testing.assert_allclose(paper_measurements.region_times,
                                   paper_data.TABLE_1_OVERALL, atol=5e-4)

    def test_table2_machine_precision(self, paper_measurements):
        from repro.core import dispersion_matrix
        matrix = dispersion_matrix(paper_measurements)
        mask = ~np.isnan(paper_data.TABLE_2)
        assert np.array_equal(~np.isnan(matrix), mask)
        np.testing.assert_allclose(matrix[mask], paper_data.TABLE_2[mask],
                                   atol=1e-9)

    @pytest.mark.parametrize(
        "view, labels, printed_id, printed_sid, tolerance", [
            (compute_activity_view, "activities", paper_data.TABLE_3_ID_A,
             paper_data.TABLE_3_SID_A, 4e-4),
            (compute_region_view, "regions", paper_data.TABLE_4_ID_C,
             paper_data.TABLE_4_SID_C, 2e-4),
        ], ids=["table3", "table4"])
    def test_summaries_within_the_printed_digits(
            self, paper_measurements, view, labels, printed_id, printed_sid,
            tolerance):
        computed = view(paper_measurements)
        for index, name in enumerate(getattr(paper_measurements, labels)):
            assert computed.index[index] == pytest.approx(
                printed_id[name], abs=tolerance)
            assert computed.scaled_index[index] == pytest.approx(
                printed_sid[name], abs=2e-5)

    def test_processor_winners(self, paper_measurements):
        from repro.core import compute_processor_view
        view = compute_processor_view(paper_measurements)
        for region, processor in DESIGNATED_PROCESSOR.items():
            assert view.most_imbalanced_processor(region) == processor

    def test_longest_imbalanced_values(self, paper_measurements):
        from repro.core import compute_processor_view
        view = compute_processor_view(paper_measurements)
        loop1 = paper_measurements.region_index("loop 1")
        assert view.dispersion[loop1, 1] == pytest.approx(0.25754, abs=1e-6)
        own = paper_measurements.processor_region_times()[loop1, 1]
        assert own == pytest.approx(15.93, abs=1e-6)

    def test_total_time_carried(self, paper_measurements):
        assert paper_measurements.total_time == pytest.approx(
            paper_data.TOTAL_TIME)

    def test_deterministic(self, paper_measurements):
        again = reconstruct(verify_constraints=False)
        np.testing.assert_allclose(paper_measurements.times, again.times,
                                   atol=1e-12)
        assert verify(again).passed

    def test_verify_flags_corruption(self, paper_measurements):
        from repro.core import MeasurementSet
        corrupted = paper_measurements.times.copy()
        corrupted[0, 0, :] *= 1.5          # break loop 1 computation
        bad = MeasurementSet(corrupted, paper_measurements.regions,
                             paper_measurements.activities,
                             total_time=paper_measurements.total_time * 2)
        report = verify(bad)
        assert not report.passed
        assert "table 1" in report.describe_failures()
