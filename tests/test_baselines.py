"""Unit tests for the baseline metrics and the threshold search."""

import numpy as np
import pytest

from repro.baselines import (ThresholdSearch, imbalance_percentage,
                             imbalance_time, percent_imbalance,
                             region_percent_imbalance, search, summarize)
from repro.core import MeasurementSet
from repro.errors import DispersionError, RankingError


class TestPercentImbalanceFamily:
    def test_balanced(self):
        assert percent_imbalance([2.0, 2.0, 2.0]) == pytest.approx(0.0)
        assert imbalance_time([2.0, 2.0]) == pytest.approx(0.0)
        assert imbalance_percentage([2.0, 2.0]) == pytest.approx(0.0)

    def test_straggler(self):
        values = [1.0, 1.0, 1.0, 2.0]
        assert percent_imbalance(values) == pytest.approx(2.0 / 1.25 - 1.0)
        assert imbalance_time(values) == pytest.approx(0.75)
        assert imbalance_percentage(values) == pytest.approx(
            (0.75 / 2.0) * (4 / 3))

    def test_fully_concentrated_percentage_is_one(self):
        assert imbalance_percentage([4.0, 0.0, 0.0, 0.0]) == pytest.approx(1.0)

    def test_single_processor(self):
        assert imbalance_percentage([3.0]) == 0.0

    def test_zero_mean_rejected(self):
        with pytest.raises(DispersionError):
            percent_imbalance([0.0, 0.0])

    def test_negative_rejected(self):
        with pytest.raises(DispersionError):
            imbalance_time([1.0, -1.0])

    def test_summarize_covers_performed_pairs(self, tiny_measurements):
        result = summarize(tiny_measurements)
        assert set(result["A"]) == {"X", "Y"}
        assert set(result["B"]) == {"X"}
        assert result["A"]["X"].percent == pytest.approx(0.0)
        assert result["A"]["Y"].percent == pytest.approx(3.0)

    def test_region_percent_imbalance(self, tiny_measurements):
        values = region_percent_imbalance(tiny_measurements)
        # Region A totals per processor: 6, 2, 2, 2 -> 6/3 - 1 = 1.
        assert values["A"] == pytest.approx(1.0)


class TestThresholdSearch:
    def test_finds_planted_bottleneck(self):
        times = np.zeros((2, 2, 4))
        times[0, 0] = [1.0, 1.0, 1.0, 3.0]       # hot processor 3
        times[0, 1] = [0.1, 0.1, 0.1, 0.1]
        times[1, 0] = [1.0, 1.0, 1.0, 1.0]
        ms = MeasurementSet(times, regions=("hot", "cold"),
                            activities=("X", "Y"))
        result = search(ms, activity_threshold=0.3,
                        processor_threshold=0.5)
        assert ("X", "hot", 3) in result.bottlenecks
        assert all(processor == 3
                   for _, _, processor in result.bottlenecks)

    def test_search_trail_levels(self, paper_measurements):
        result = search(paper_measurements)
        levels = {hypothesis.level for hypothesis in result.hypotheses}
        assert levels == {"program", "region", "processor"}

    def test_threshold_prunes(self, paper_measurements):
        narrow = search(paper_measurements, activity_threshold=0.6)
        wide = search(paper_measurements, activity_threshold=0.21)
        assert narrow.tested < wide.tested

    def test_flagged_regions_on_paper_data(self, paper_measurements):
        result = search(paper_measurements)
        flagged = result.flagged_regions()
        # Computation exceeds 20% of wall clock everywhere it dominates.
        assert ("computation", "loop 1") in flagged
        assert ("collective", "loop 1") in flagged

    def test_misses_negligible_but_imbalanced_activity(self,
                                                       paper_measurements):
        # The contrast with the paper: synchronization is the most
        # imbalanced activity but only 0.1% of the program, so a
        # threshold search never even refines it.
        result = search(paper_measurements)
        assert all(hypothesis.focus[0] != "synchronization"
                   or hypothesis.level == "program"
                   for hypothesis in result.hypotheses)

    def test_bad_thresholds_rejected(self):
        with pytest.raises(RankingError):
            ThresholdSearch(activity_threshold=0.0)
        with pytest.raises(RankingError):
            ThresholdSearch(processor_threshold=-0.1)
