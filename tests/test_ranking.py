"""Unit tests for the ranking criteria."""

import pytest

from repro.core import (agreement, kendall_distance, rank, rank_by_maximum,
                        rank_by_percentile, rank_by_threshold)
from repro.errors import RankingError

VALUES = {"a": 0.5, "b": 0.1, "c": 0.9, "d": 0.3}


class TestMaximum:
    def test_selects_top(self):
        result = rank_by_maximum(VALUES)
        assert result.names == ("c",)

    def test_selects_top_k(self):
        result = rank_by_maximum(VALUES, count=2)
        assert result.names == ("c", "a")

    def test_ordered_covers_all(self):
        result = rank_by_maximum(VALUES)
        assert [item.name for item in result.ordered] == ["c", "a", "d", "b"]

    def test_count_larger_than_items(self):
        result = rank_by_maximum(VALUES, count=10)
        assert len(result) == 4

    def test_rejects_zero_count(self):
        with pytest.raises(RankingError):
            rank_by_maximum(VALUES, count=0)

    def test_ties_break_by_name(self):
        result = rank_by_maximum({"b": 1.0, "a": 1.0}, count=2)
        assert result.names == ("a", "b")

    def test_nan_values_ignored(self):
        result = rank_by_maximum({"a": float("nan"), "b": 1.0})
        assert result.names == ("b",)

    def test_all_nan_rejected(self):
        with pytest.raises(RankingError):
            rank_by_maximum({"a": float("nan")})


class TestPercentile:
    def test_median_selection(self):
        result = rank_by_percentile(VALUES, percentile=50.0)
        assert set(result.names) == {"c", "a"}

    def test_high_percentile(self):
        result = rank_by_percentile(VALUES, percentile=90.0)
        assert result.names == ("c",)

    def test_rejects_out_of_range(self):
        with pytest.raises(RankingError):
            rank_by_percentile(VALUES, percentile=100.0)
        with pytest.raises(RankingError):
            rank_by_percentile(VALUES, percentile=0.0)


class TestThreshold:
    def test_selection(self):
        result = rank_by_threshold(VALUES, threshold=0.4)
        assert result.names == ("c", "a")

    def test_strict_inequality(self):
        result = rank_by_threshold(VALUES, threshold=0.9)
        assert result.names == ()

    def test_rejects_nan_threshold(self):
        with pytest.raises(RankingError):
            rank_by_threshold(VALUES, threshold=float("nan"))


class TestDispatch:
    def test_maximum(self):
        assert rank(VALUES, "maximum").criterion == "maximum"

    def test_percentile(self):
        result = rank(VALUES, "percentile", percentile=75.0)
        assert result.criterion == "percentile(75)"

    def test_threshold(self):
        result = rank(VALUES, "threshold", threshold=0.2)
        assert result.criterion == "threshold(0.2)"

    def test_unknown_rejected(self):
        with pytest.raises(RankingError):
            rank(VALUES, "magic")


class TestComparisons:
    def test_agreement_identical(self):
        first = rank_by_maximum(VALUES, count=2)
        second = rank_by_maximum(VALUES, count=2)
        assert agreement(first, second) == 1.0

    def test_agreement_partial(self):
        first = rank_by_maximum(VALUES, count=2)          # c, a
        second = rank_by_threshold(VALUES, threshold=0.05)  # all four
        assert agreement(first, second) == pytest.approx(0.5)

    def test_agreement_empty_selections(self):
        first = rank_by_threshold(VALUES, threshold=1.0)
        second = rank_by_threshold(VALUES, threshold=2.0)
        assert agreement(first, second) == 1.0

    def test_kendall_identity(self):
        assert kendall_distance(["a", "b", "c"], ["a", "b", "c"]) == 0

    def test_kendall_reversal(self):
        assert kendall_distance(["a", "b", "c"], ["c", "b", "a"]) == 3

    def test_kendall_single_swap(self):
        assert kendall_distance(["a", "b", "c"], ["b", "a", "c"]) == 1

    def test_kendall_requires_same_items(self):
        with pytest.raises(RankingError):
            kendall_distance(["a"], ["b"])

    def test_every_criterion_keeps_the_paper_candidate(self,
                                                       paper_measurements):
        """Maximum, percentile and threshold select different loops from
        the paper's scaled region indices, but all keep loop 1, so no
        two of them ever fully disagree."""
        from repro.core import compute_region_view
        view = compute_region_view(paper_measurements)
        values = dict(zip(view.regions, map(float, view.scaled_index)))
        selections = [rank(values, "maximum", count=2),
                      rank(values, "percentile", percentile=75.0),
                      rank(values, "threshold", threshold=0.003)]
        for selection in selections:
            assert "loop 1" in selection.names, selection.criterion
        assert min(agreement(first, second)
                   for first in selections for second in selections) > 0.0
