"""Unit tests for the measurement model (t_ijp tensor and conventions)."""

import numpy as np
import pytest

from repro.core import MeasurementSet
from repro.errors import MeasurementError


def tensor(n=2, k=3, p=4, fill=1.0):
    return np.full((n, k, p), fill)


class TestConstruction:
    def test_shapes(self):
        ms = MeasurementSet(tensor(2, 3, 4))
        assert (ms.n_regions, ms.n_activities, ms.n_processors) == (2, 3, 4)

    def test_default_region_names(self):
        ms = MeasurementSet(tensor(3, 2, 2))
        assert ms.regions == ("loop 1", "loop 2", "loop 3")

    def test_default_activity_names_generic(self):
        ms = MeasurementSet(tensor(1, 2, 2))
        assert ms.activities == ("activity 1", "activity 2")

    def test_default_activity_names_paper(self):
        ms = MeasurementSet(tensor(1, 4, 2))
        assert ms.activities == ("computation", "point-to-point",
                                 "collective", "synchronization")

    def test_rejects_wrong_dimensionality(self):
        with pytest.raises(MeasurementError):
            MeasurementSet(np.ones((2, 2)))

    def test_rejects_negative_times(self):
        bad = tensor()
        bad[0, 0, 0] = -1.0
        with pytest.raises(MeasurementError):
            MeasurementSet(bad)

    def test_rejects_non_finite(self):
        bad = tensor()
        bad[0, 0, 0] = np.nan
        with pytest.raises(MeasurementError):
            MeasurementSet(bad)

    @pytest.mark.parametrize("cells,message", [
        ({0: np.nan}, "times must be finite"),
        ({0: np.inf}, "times must be finite"),
        ({0: -np.inf}, "times must be finite"),
        ({0: -1.0}, "times must be non-negative"),
        ({0: -1.0, 5: np.nan}, "times must be finite"),
        ({0: -1.0, 5: np.inf}, "times must be finite"),
        ({3: np.inf, 7: -np.inf}, "times must be finite"),
        ({0: -0.0}, None),
    ])
    def test_tensor_check_messages_and_their_order(self, cells, message):
        """Non-finite cells are named before negative ones, whichever
        comes first in the tensor."""
        times = tensor(2, 2, 3)
        for flat, value in cells.items():
            times.reshape(-1)[flat] = value
        if message is None:
            MeasurementSet(times)
            return
        with pytest.raises(MeasurementError) as error:
            MeasurementSet(times)
        assert str(error.value) == message

    @pytest.mark.parametrize("shape", [(0, 2, 2), (2, 0, 2), (2, 2, 0)])
    def test_empty_tensor_reaches_the_extent_check(self, shape):
        with pytest.raises(MeasurementError,
                           match="at least one region, activity"):
            MeasurementSet(np.empty(shape))

    def test_rejects_name_count_mismatch(self):
        with pytest.raises(MeasurementError):
            MeasurementSet(tensor(2, 2, 2), regions=("only one",))

    def test_rejects_duplicate_names(self):
        with pytest.raises(MeasurementError):
            MeasurementSet(tensor(2, 2, 2), regions=("same", "same"))

    def test_rejects_bad_aggregation(self):
        with pytest.raises(MeasurementError):
            MeasurementSet(tensor(), aggregation="median")

    def test_rejects_total_time_below_coverage(self):
        with pytest.raises(MeasurementError):
            MeasurementSet(tensor(1, 1, 2, fill=2.0), total_time=1.0)

    def test_rejects_nonpositive_total_time(self):
        with pytest.raises(MeasurementError):
            MeasurementSet(tensor(), total_time=0.0)


class TestAggregation:
    def setup_method(self):
        times = np.zeros((1, 2, 3))
        times[0, 0] = [1.0, 2.0, 3.0]
        times[0, 1] = [4.0, 4.0, 4.0]
        self.times = times

    def test_max_aggregation(self):
        ms = MeasurementSet(self.times, aggregation="max")
        assert ms.region_activity_times[0, 0] == 3.0

    def test_mean_aggregation(self):
        ms = MeasurementSet(self.times, aggregation="mean")
        assert ms.region_activity_times[0, 0] == pytest.approx(2.0)

    def test_sum_aggregation(self):
        ms = MeasurementSet(self.times, aggregation="sum")
        assert ms.region_activity_times[0, 0] == 6.0

    def test_region_times_sum_activities(self):
        ms = MeasurementSet(self.times)
        assert ms.region_times[0] == pytest.approx(3.0 + 4.0)

    def test_activity_times(self):
        ms = MeasurementSet(self.times)
        assert ms.activity_times.tolist() == [3.0, 4.0]

    def test_with_aggregation_copies(self):
        ms = MeasurementSet(self.times)
        mean = ms.with_aggregation("mean")
        assert mean.region_activity_times[0, 0] == pytest.approx(2.0)
        assert ms.region_activity_times[0, 0] == 3.0


class TestTotalsAndCoverage:
    def test_default_full_coverage(self):
        ms = MeasurementSet(tensor(2, 2, 2, fill=1.0))
        assert ms.coverage == pytest.approx(1.0)
        assert ms.total_time == pytest.approx(ms.covered_time)

    def test_partial_coverage(self):
        ms = MeasurementSet(tensor(1, 1, 2, fill=1.0), total_time=2.0)
        assert ms.coverage == pytest.approx(0.5)

    def test_with_total_time(self):
        ms = MeasurementSet(tensor(1, 1, 2, fill=1.0))
        bigger = ms.with_total_time(10.0)
        assert bigger.total_time == 10.0
        assert ms.total_time == pytest.approx(1.0)

    def test_with_total_time_checks_only_the_new_total(self, monkeypatch):
        """The tensor was checked when the set was made; a new ``T`` does
        not rescan its cells, and a bad one fails as in the constructor."""
        from repro.core import measurements
        ms = MeasurementSet(tensor(2, 2, 3, fill=0.5))

        def rescan(times):
            raise AssertionError("tensor checked again")

        monkeypatch.setattr(measurements, "_as_tensor", rescan)
        bigger = ms.with_total_time(10)
        assert bigger.total_time == 10.0 and type(bigger.total_time) is float
        assert bigger.times is ms.times
        assert bigger.covered_time == ms.covered_time
        assert bigger.coverage == pytest.approx(0.2)
        monkeypatch.undo()
        for total in (float("nan"), float("inf"), 0.0, -1.0, 1.0):
            with pytest.raises(MeasurementError) as fresh:
                MeasurementSet(ms.times, total_time=total)
            with pytest.raises(MeasurementError) as derived:
                ms.with_total_time(total)
            assert str(derived.value) == str(fresh.value)


class TestLookupsAndSubsets:
    def test_region_index(self, tiny_measurements):
        assert tiny_measurements.region_index("B") == 1

    def test_region_index_unknown(self, tiny_measurements):
        with pytest.raises(MeasurementError):
            tiny_measurements.region_index("nope")

    def test_activity_index(self, tiny_measurements):
        assert tiny_measurements.activity_index("Y") == 1

    def test_activity_index_unknown(self, tiny_measurements):
        with pytest.raises(MeasurementError):
            tiny_measurements.activity_index("nope")

    def test_performed_mask(self, tiny_measurements):
        performed = tiny_measurements.performed
        assert performed.tolist() == [[True, True], [True, False]]

    def test_processor_region_times(self, tiny_measurements):
        totals = tiny_measurements.processor_region_times()
        assert totals[0].tolist() == [6.0, 2.0, 2.0, 2.0]

    def test_processor_times(self, tiny_measurements):
        assert tiny_measurements.processor_times()[0] == pytest.approx(7.0)

    def test_subset_regions(self, tiny_measurements):
        sub = tiny_measurements.subset_regions(["B"])
        assert sub.n_regions == 1
        assert sub.regions == ("B",)
        assert sub.region_activity_times[0, 0] == 3.0

    def test_subset_activities(self, tiny_measurements):
        sub = tiny_measurements.subset_activities(["Y"])
        assert sub.activities == ("Y",)
        assert sub.region_activity_times[0, 0] == 4.0

    def test_subset_preserves_order_given(self, tiny_measurements):
        sub = tiny_measurements.subset_regions(["B", "A"])
        assert sub.regions == ("B", "A")
