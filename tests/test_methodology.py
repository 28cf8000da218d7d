"""Unit tests for the end-to-end methodology driver."""

import numpy as np
import pytest

from repro.calibrate import paper_data
from repro.core import (MeasurementSet, Methodology, analyze,
                        compute_activity_and_region_views)
from repro.errors import ReproError


class TestAnalyze:
    def test_result_components(self, tiny_measurements):
        result = analyze(tiny_measurements, cluster_count=None)
        assert result.breakdown.dominant_activity in ("X", "Y")
        assert result.processor_view.dispersion.shape == (2, 4)
        assert result.activity_view.index.shape == (2,)
        assert result.region_view.index.shape == (2,)
        assert result.activity_ranking.names
        assert result.region_ranking.names

    def test_cluster_disabled_for_small_sets(self, tiny_measurements):
        result = analyze(tiny_measurements, cluster_count=None)
        assert result.region_clusters == (("A", "B"),)

    def test_patterns_cover_performed_activities(self, tiny_measurements):
        result = analyze(tiny_measurements, cluster_count=None)
        activities = {grid.activity for grid in result.patterns}
        assert activities == {"X", "Y"}

    def test_pattern_lookup(self, tiny_measurements):
        result = analyze(tiny_measurements, cluster_count=None)
        assert result.pattern("X").activity == "X"
        with pytest.raises(ReproError):
            result.pattern("Z")

    def test_criterion_configuration(self, tiny_measurements):
        methodology = Methodology(criterion="threshold",
                                  criterion_parameters={"threshold": 0.0},
                                  cluster_count=None)
        result = methodology.analyze(tiny_measurements)
        assert result.activity_ranking.criterion == "threshold(0)"

    def test_uniform_weighting_changes_indices(self, paper_measurements):
        time_weighted = analyze(paper_measurements)
        uniform = analyze(paper_measurements, weighting="uniform")
        assert not np.allclose(time_weighted.activity_view.index,
                               uniform.activity_view.index)
        # Loop 6 wins either way; loop 1's paper value relies on the
        # time weights (its tiny, erratic synchronization would
        # otherwise dominate), and uniform weights inflate
        # point-to-point, whose large indices live in short loops.
        assert time_weighted.region_view.most_imbalanced() == "loop 6"
        assert uniform.region_view.most_imbalanced() == "loop 6"
        loop1 = paper_measurements.region_index("loop 1")
        assert time_weighted.region_view.index[loop1] < \
            uniform.region_view.index[loop1]
        p2p = paper_measurements.activity_index("point-to-point")
        assert uniform.activity_view.index[p2p] > \
            time_weighted.activity_view.index[p2p]

    def test_alternative_index(self, paper_measurements):
        result = analyze(paper_measurements, index="cv")
        assert np.all(np.nan_to_num(result.activity_view.dispersion) >= 0.0)

    @pytest.mark.parametrize("n_regions, n_processors", [
        (16, 16), (16, 64), (16, 256), (8, 32), (64, 32), (256, 32)])
    def test_views_cover_every_region(self, n_regions, n_processors):
        rng = np.random.default_rng((n_regions, n_processors))
        tensor = rng.uniform(0.5, 1.5, (n_regions, 4, n_processors))
        tensor[:, 1, :] *= rng.uniform(size=(n_regions, 1)) > 0.3
        result = analyze(MeasurementSet(tensor))
        assert result.region_view.index.shape == (n_regions,)

    def test_deterministic(self, paper_measurements):
        first = analyze(paper_measurements)
        second = analyze(paper_measurements)
        np.testing.assert_array_equal(first.region_view.scaled_index,
                                      second.region_view.scaled_index)


class TestPaperConclusions:
    """The §4 narrative, end to end on the reconstructed data."""

    @pytest.fixture(scope="class")
    def result(self, paper_measurements):
        return analyze(paper_measurements)

    def test_dominant_and_heaviest(self, result):
        assert result.breakdown.dominant_activity == "computation"
        assert result.breakdown.heaviest_region == "loop 1"
        assert result.breakdown.heaviest_region_share == pytest.approx(
            paper_data.HEAVIEST_REGION_SHARE, abs=0.01)

    def test_loop3_longest_p2p_three_loops_synchronize(self, result):
        extremes = {e.activity: e for e in result.breakdown.extremes}
        assert extremes["point-to-point"].worst_region == \
            paper_data.LONGEST_P2P_REGION
        assert len(result.breakdown.regions_performing(
            "synchronization")) == paper_data.SYNCHRONIZING_REGIONS

    @pytest.mark.parametrize("index", ["euclidean", "variance", "cv", "mad",
                                       "gini", "theil"])
    def test_winners_hold_under_every_index(self, paper_measurements,
                                            index):
        activity_view, region_view = compute_activity_and_region_views(
            paper_measurements, index=index)
        assert activity_view.ranking()[0] == "synchronization"
        assert region_view.ranking()[0] == "loop 6"

    def test_clusters(self, result):
        assert set(map(frozenset, result.region_clusters)) == {
            frozenset({"loop 1", "loop 2"}),
            frozenset({"loop 3", "loop 4", "loop 5", "loop 6", "loop 7"})}

    def test_sync_most_imbalanced_but_negligible(self, result):
        view = result.activity_view
        assert view.most_imbalanced() == "synchronization"
        # "its impact on the overall performance is negligible"
        assert view.ranking(scaled=True)[-1] == "synchronization"

    def test_loop6_most_imbalanced_loop1_candidate(self, result):
        view = result.region_view
        assert view.most_imbalanced() == "loop 6"
        assert view.most_imbalanced(scaled=True) == "loop 1"
        assert result.tuning_candidates[0] == "loop 1"

    def test_processor_view_facts(self, result):
        summary = result.processor_view.summary()
        assert summary.most_frequent == 0          # "processor 1"
        assert summary.most_frequent_count == 2    # loops 3 and 7
        assert summary.longest == 1                # "processor 2"
        assert summary.longest_time == pytest.approx(15.93, abs=1e-6)

    def test_localization(self, result):
        # Synchronization is worst in loop 5 (ID 0.30571).
        assert result.activity_view.localize("synchronization") == "loop 5"
        # Collective imbalance localizes to loop 1.
        assert result.activity_view.localize("collective") == "loop 1"
