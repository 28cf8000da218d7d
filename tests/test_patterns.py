"""Unit tests for the Figure 1/2 band classification."""

import numpy as np
import pytest

from repro.calibrate import paper_data
from repro.core import Band, MeasurementSet, band_counts, classify, pattern_grid
from repro.errors import MeasurementError


class TestClassify:
    def test_extremes_labelled(self):
        bands = classify([1.0, 5.0, 3.0])
        assert bands[0] is Band.MIN
        assert bands[1] is Band.MAX

    def test_upper_band(self):
        # range 0..10, upper cut 8.5: 9.0 is UPPER, 8.0 is MID.
        bands = classify([0.0, 9.0, 8.0, 10.0])
        assert bands[1] is Band.UPPER
        assert bands[2] is Band.MID

    def test_lower_band(self):
        # lower cut 1.5: 1.0 LOWER, 2.0 MID.
        bands = classify([0.0, 1.0, 2.0, 10.0])
        assert bands[1] is Band.LOWER
        assert bands[2] is Band.MID

    def test_ties_at_extremes(self):
        bands = classify([1.0, 1.0, 5.0, 5.0])
        assert bands[0] is Band.MIN and bands[1] is Band.MIN
        assert bands[2] is Band.MAX and bands[3] is Band.MAX

    def test_constant_data_is_all_mid(self):
        bands = classify([2.0, 2.0, 2.0])
        assert all(band is Band.MID for band in bands)

    def test_band_boundaries_inclusive(self):
        # exactly on the cut (0.85 * range above min) counts as UPPER.
        bands = classify([0.0, 8.5, 10.0])
        assert bands[1] is Band.UPPER

    def test_custom_fraction(self):
        bands = classify([0.0, 7.0, 10.0], band_fraction=0.4)
        assert bands[1] is Band.UPPER

    def test_rejects_bad_fraction(self):
        with pytest.raises(MeasurementError):
            classify([1.0, 2.0], band_fraction=0.6)

    def test_rejects_empty(self):
        with pytest.raises(MeasurementError):
            classify([])

    def test_rejects_nan(self):
        with pytest.raises(MeasurementError):
            classify([1.0, float("nan")])


class TestBandCounts:
    def test_counts(self):
        # range 10: lower cut 1.5 -> 1.0 is LOWER, 2.0 is MID.
        counts = band_counts(classify([0.0, 1.0, 2.0, 10.0]))
        assert counts[Band.MIN] == 1
        assert counts[Band.MAX] == 1
        assert counts[Band.LOWER] == 1
        assert counts[Band.MID] == 1
        assert sum(counts.values()) == 4


class TestPatternGrid:
    @pytest.fixture()
    def measurements(self):
        times = np.zeros((2, 2, 4))
        times[0, 0] = [1.0, 2.0, 3.0, 4.0]
        times[1, 0] = [5.0, 5.0, 5.0, 5.0]
        times[0, 1] = [1.0, 1.0, 1.0, 2.0]   # Y performed only in R1
        return MeasurementSet(times, regions=("R1", "R2"),
                              activities=("X", "Y"))

    def test_rows_cover_performing_regions_only(self, measurements):
        grid = pattern_grid(measurements, "Y")
        assert grid.regions == ("R1",)

    def test_row_lookup(self, measurements):
        grid = pattern_grid(measurements, "X")
        row = grid.row("R1")
        assert row[0] is Band.MIN and row[3] is Band.MAX

    def test_row_unknown_region(self, measurements):
        grid = pattern_grid(measurements, "Y")
        with pytest.raises(MeasurementError):
            grid.row("R2")

    def test_count(self, measurements):
        grid = pattern_grid(measurements, "Y")
        assert grid.count("R1", Band.MIN) == 3
        assert grid.count("R1", Band.MAX) == 1

    def test_balance_score(self, measurements):
        grid = pattern_grid(measurements, "X")
        # R2 is constant (4 MID); R1 = [1,2,3,4]: MIN, MID, MID, MAX.
        assert grid.balance_score() == pytest.approx(0.75)

    def test_paper_figure_counts(self, paper_measurements):
        grid = pattern_grid(paper_measurements, "computation")
        assert grid.regions == paper_data.REGIONS     # every loop computes
        assert all(len(row) == 16 for row in grid.rows)
        assert grid.count("loop 4", Band.UPPER) == 5
        assert grid.count("loop 6", Band.LOWER) == 11

    def test_paper_figure_2_rows_are_flat(self, paper_measurements):
        """The paper's "very balanced" p2p rows: one band each but for
        the reconstruction's single deviating processor."""
        grid = pattern_grid(paper_measurements, "point-to-point")
        assert grid.regions == ("loop 3", "loop 4", "loop 5", "loop 6")
        for region in grid.regions:
            row = grid.row(region)
            assert max(row.count(band) for band in set(row)) >= 15


class TestAsciiRendering:
    def test_render_contains_rows_and_legend(self, paper_measurements):
        from repro.viz import render_pattern_grid
        grid = pattern_grid(paper_measurements, "computation")
        text = render_pattern_grid(grid)
        assert "loop 1" in text and "loop 7" in text
        assert "legend" in text
        # 16 processors -> 16 cells per row.
        row_line = [line for line in text.splitlines()
                    if line.startswith("loop 4")][0]
        assert row_line.count("[") == 16

    def test_figure_2_omits_non_p2p_loops(self, paper_measurements):
        from repro.viz import render_pattern_grid
        from repro.core import pattern_grid as grid_of
        grid = grid_of(paper_measurements, "point-to-point")
        text = render_pattern_grid(grid)
        assert "loop 3" in text and "loop 1" not in text
