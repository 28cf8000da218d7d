"""Tests of the CFD workload: structure, determinism and paper shape."""

import numpy as np
import pytest

from repro.apps import LOOPS, CFDConfig, run_cfd
from repro.core import Band, analyze, dispersion_matrix, pattern_grid
from repro.errors import WorkloadError


class TestConfigValidation:
    def test_defaults_valid(self):
        CFDConfig()

    def test_rejects_bad_grid(self):
        with pytest.raises(WorkloadError):
            CFDConfig(grid=(0, 10))

    def test_rejects_bad_steps(self):
        with pytest.raises(WorkloadError):
            CFDConfig(steps=0)

    def test_rejects_incomplete_sweeps(self):
        with pytest.raises(WorkloadError):
            CFDConfig(sweeps={"loop 1": 1.0})

    def test_rejects_unknown_imbalance_loop(self):
        from repro.apps import Straggler
        with pytest.raises(WorkloadError):
            CFDConfig(loop_imbalance={"loop 99": Straggler()})


class TestStructure:
    def test_seven_regions_sixteen_ranks(self, cfd_measurements):
        assert cfd_measurements.regions == LOOPS
        assert cfd_measurements.n_processors == 16

    def test_activity_signature_matches_table1(self, cfd_measurements):
        performed = cfd_measurements.performed
        names = cfd_measurements.activities
        signature = {
            region: tuple(names[j] for j in range(4) if performed[i, j])
            for i, region in enumerate(cfd_measurements.regions)}
        assert signature["loop 1"] == ("computation", "collective",
                                       "synchronization")
        assert signature["loop 2"] == ("computation", "collective")
        assert signature["loop 3"] == ("computation", "point-to-point")
        assert signature["loop 4"] == ("computation", "point-to-point")
        assert signature["loop 5"] == ("computation", "point-to-point",
                                       "collective", "synchronization")
        assert signature["loop 6"] == ("computation", "point-to-point",
                                       "synchronization")
        assert signature["loop 7"] == ("computation", "collective")

    def test_deterministic(self, cfd_run):
        again = run_cfd()
        np.testing.assert_array_equal(cfd_run[2].times, again[2].times)
        assert cfd_run[0].clocks == again[0].clocks

    def test_small_config_runs(self):
        config = CFDConfig(grid=(64, 64), steps=1)
        result, tracer, ms = run_cfd(config, n_ranks=8)
        assert ms.n_processors == 8
        assert result.elapsed > 0.0

    def test_decomposition_skew_shows_in_computation(self, cfd_measurements):
        comp = cfd_measurements.activity_index("computation")
        loop3 = cfd_measurements.region_index("loop 3")
        times = cfd_measurements.times[loop3, comp, :]
        # The linear decomposition gradient gives the last rank more
        # cells than the first.
        assert times[-1] > times[0]


class TestPaperShape:
    """The §4 qualitative findings, on freshly simulated data."""

    @pytest.fixture(scope="class")
    def result(self, cfd_measurements):
        return analyze(cfd_measurements)

    def test_loop1_heaviest_about_a_quarter(self, result):
        assert result.breakdown.heaviest_region == "loop 1"
        assert 0.20 <= result.breakdown.heaviest_region_share <= 0.40

    def test_computation_dominant(self, result):
        assert result.breakdown.dominant_activity == "computation"

    def test_loop3_longest_p2p(self, result):
        extremes = {e.activity: e for e in result.breakdown.extremes}
        assert extremes["point-to-point"].worst_region == "loop 3"

    def test_three_loops_synchronize(self, result):
        syncing = result.breakdown.regions_performing("synchronization")
        assert len(syncing) == 3

    def test_clusters_heavy_vs_light(self, result):
        assert set(map(frozenset, result.region_clusters)) == {
            frozenset({"loop 1", "loop 2"}),
            frozenset({"loop 3", "loop 4", "loop 5", "loop 6", "loop 7"})}

    def test_sync_most_imbalanced_but_negligible(self, result):
        view = result.activity_view
        assert view.most_imbalanced() == "synchronization"
        assert view.ranking(scaled=True)[-1] == "synchronization"

    def test_loop6_most_imbalanced_loop1_candidate(self, result):
        view = result.region_view
        assert view.most_imbalanced() == "loop 6"
        assert view.most_imbalanced(scaled=True) == "loop 1"
        assert result.tuning_candidates[0] == "loop 1"

    def test_table2_loop6_most_dispersed(self, cfd_measurements):
        matrix = dispersion_matrix(cfd_measurements)
        names = cfd_measurements.activities
        comp = names.index("computation")
        p2p = names.index("point-to-point")
        sync = names.index("synchronization")
        assert np.nanargmax(matrix[:, comp]) == 5
        assert np.nanargmax(matrix[:, p2p]) == 5
        # The heavy loops' computation stays comparatively balanced.
        assert matrix[0, comp] < matrix[5, comp]
        assert matrix[1, comp] < matrix[5, comp]
        # The paper's synchronization indices span 0.13 .. 0.31.
        assert np.nanmax(matrix[:, sync]) > 0.05

    def test_processor_view_finds_the_hot_ranks(self, result):
        view = result.processor_view
        # Loop 4's winner is a hot rank (3..8) or a halo neighbour that
        # waits on one (2, 9); loop 6's boundary ranks and loop 1's
        # rank 1 (the paper's "processor 2") are planted.
        assert view.most_imbalanced_processor("loop 4") in range(2, 10)
        assert view.most_imbalanced_processor("loop 6") in {12, 13, 14, 15}
        assert view.most_imbalanced_processor("loop 1") == 1

    def test_loop4_hot_block_visible_in_patterns(self, cfd_measurements):
        grid = pattern_grid(cfd_measurements, "computation")
        row = grid.row("loop 4")
        hot = {3, 4, 5, 6, 7, 8}
        flagged = {p for p, band in enumerate(row)
                   if band in (Band.MAX, Band.UPPER)}
        assert flagged <= hot
        assert len(flagged) >= 4

    def test_figure1_loop6_mostly_in_the_lower_band(self, cfd_measurements):
        grid = pattern_grid(cfd_measurements, "computation")
        assert grid.regions == LOOPS
        low = [band for band in grid.row("loop 6")
               if band in (Band.MIN, Band.LOWER)]
        assert len(low) >= 10

    def test_figure2_loop3_among_the_balanced(self, cfd_measurements):
        p2p_loops = ("loop 3", "loop 4", "loop 5", "loop 6")
        assert pattern_grid(cfd_measurements,
                            "point-to-point").regions == p2p_loops
        column = dispersion_matrix(cfd_measurements)[
            :, cfd_measurements.activity_index("point-to-point")]
        loop = {region: column[cfd_measurements.region_index(region)]
                for region in p2p_loops}
        assert loop["loop 3"] < loop["loop 4"]
        assert loop["loop 3"] < loop["loop 6"]
