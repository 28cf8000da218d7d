"""Tests for the guided drill-down search."""

import numpy as np
import pytest

from repro.baselines import drill_down, search
from repro.core import MeasurementSet


class TestDrillDown:
    def test_finds_planted_hotspot(self):
        times = np.ones((2, 2, 4))
        times[1, 1, 2] = 9.0         # region 2, activity 2, processor 3
        ms = MeasurementSet(times, regions=("r1", "r2"),
                            activities=("X", "Y"))
        result = drill_down(ms)
        assert result.activity == "Y"
        assert result.region == "r2"
        assert result.processor == 2
        assert result.cost == 3

    def test_path_structure(self, paper_measurements):
        result = drill_down(paper_measurements)
        assert [step.level for step in result.steps] == \
            ["activity", "region", "processor"]
        assert "->" in result.describe()

    def test_paper_descent(self, paper_measurements):
        """On the paper's data the descent lands on computation in
        loop 1 — the scaled indices' conclusion — and fingers
        processor 2 (the loop's hot rank)."""
        result = drill_down(paper_measurements)
        assert result.activity == "computation"
        assert result.region == "loop 1"
        assert result.processor == 1
        assert result.cost == 3

    def test_orders_of_magnitude_cheaper_than_threshold_search(
            self, paper_measurements):
        baseline = search(paper_measurements)
        guided = drill_down(paper_measurements)
        assert guided.cost * 30 < baseline.tested

    def test_deterministic(self, paper_measurements):
        first = drill_down(paper_measurements)
        second = drill_down(paper_measurements)
        assert first == second

    def test_alternative_index(self, paper_measurements):
        result = drill_down(paper_measurements, index="cv")
        assert result.cost == 3
