"""Tests for the efficiency factorization and the what-if modeling."""

import numpy as np
import pytest

from repro.core import (MeasurementSet, balance_everything,
                        balance_predictions, efficiency,
                        render_efficiency_table, render_predictions,
                        scaling_analysis)
from repro.errors import MeasurementError


def make_ms(comp_rows, p2p_rows=None, total=None):
    comp = np.asarray(comp_rows, dtype=float)
    n_regions, n_processors = comp.shape
    tensor = np.zeros((n_regions, 2, n_processors))
    tensor[:, 0, :] = comp
    if p2p_rows is not None:
        tensor[:, 1, :] = np.asarray(p2p_rows, dtype=float)
    return MeasurementSet(tensor, activities=("computation",
                                              "point-to-point"),
                          total_time=total)


class TestEfficiency:
    def test_balanced_no_comm(self):
        ms = make_ms([[1.0, 1.0, 1.0, 1.0]])
        eff = efficiency(ms)
        assert eff.load_balance == pytest.approx(1.0)
        assert eff.communication_efficiency == pytest.approx(1.0)
        assert eff.parallel_efficiency == pytest.approx(1.0)
        assert eff.imbalance_cost == pytest.approx(0.0)

    def test_pure_imbalance(self):
        # One processor does double work; elapsed = its time.
        ms = make_ms([[2.0, 1.0, 1.0, 1.0]])
        eff = efficiency(ms, elapsed=2.0)
        assert eff.load_balance == pytest.approx(1.25 / 2.0)
        assert eff.communication_efficiency == pytest.approx(1.0)
        assert eff.parallel_efficiency == pytest.approx(1.25 / 2.0)

    def test_pure_communication(self):
        # Balanced compute but elapsed twice the compute time.
        ms = make_ms([[1.0, 1.0]], p2p_rows=[[1.0, 1.0]])
        eff = efficiency(ms, elapsed=2.0)
        assert eff.load_balance == pytest.approx(1.0)
        assert eff.communication_efficiency == pytest.approx(0.5)

    def test_factorization_identity(self):
        ms = make_ms([[3.0, 1.0, 2.0, 2.0]], p2p_rows=[[0.5] * 4])
        eff = efficiency(ms, elapsed=4.0)
        assert eff.parallel_efficiency == pytest.approx(
            eff.load_balance * eff.communication_efficiency)

    def test_no_computation_rejected(self):
        ms = make_ms([[0.0, 0.0]], p2p_rows=[[1.0, 1.0]])
        with pytest.raises(MeasurementError):
            efficiency(ms)

    def test_paper_dataset_plausible(self, paper_measurements):
        eff = efficiency(paper_measurements)
        assert 0.8 < eff.load_balance <= 1.0
        assert 0.0 < eff.parallel_efficiency < 1.0


class TestScalingAnalysis:
    def runs(self):
        return [
            (make_ms([[4.0] * 2]), 4.5),
            (make_ms([[2.0] * 4]), 2.6),
            (make_ms([[1.0] * 8]), 1.8),
        ]

    def test_speedups(self):
        points = scaling_analysis(self.runs())
        assert [point.n_processors for point in points] == [2, 4, 8]
        assert points[0].speedup == pytest.approx(1.0)
        assert points[2].speedup == pytest.approx(4.5 / 1.8)

    def test_cfd_strong_scaling(self):
        """A fixed CFD grid on 4..32 ranks, injectors off: efficiency
        falls because communication grows, not because balance does,
        and the speed-up still rises."""
        from repro.apps import CFDConfig, run_cfd
        runs = []
        for n_ranks in (4, 8, 16, 32):
            result, _, measurements = run_cfd(
                CFDConfig(grid=(128, 128), steps=2, loop_imbalance={},
                          jitter=0.0), n_ranks=n_ranks)
            runs.append((measurements, result.elapsed))
        points = scaling_analysis(runs)
        first, last = points[0], points[-1]
        assert first.efficiency.parallel_efficiency > \
            last.efficiency.parallel_efficiency
        assert first.efficiency.communication_efficiency > \
            last.efficiency.communication_efficiency
        assert min(point.efficiency.load_balance for point in points) > 0.85
        assert last.speedup > first.speedup

    def test_efficiency_declines_with_overhead(self):
        points = scaling_analysis(self.runs())
        pe = [point.efficiency.parallel_efficiency for point in points]
        assert pe[0] > pe[2]

    def test_ordering_enforced(self):
        runs = self.runs()
        with pytest.raises(MeasurementError):
            scaling_analysis([runs[1], runs[0]])

    def test_empty_rejected(self):
        with pytest.raises(MeasurementError):
            scaling_analysis([])

    def test_render(self):
        text = render_efficiency_table(scaling_analysis(self.runs()))
        assert "load balance" in text and "speedup" in text


class TestWhatIf:
    def test_balanced_region_saves_nothing(self):
        ms = make_ms([[1.0, 1.0, 1.0]])
        prediction = balance_predictions(ms)[0]
        assert prediction.saving == pytest.approx(0.0)
        assert prediction.speedup == pytest.approx(1.0)

    def test_saving_is_max_minus_mean(self):
        ms = make_ms([[3.0, 1.0, 2.0]])
        prediction = balance_predictions(ms)[0]
        assert prediction.saving == pytest.approx(3.0 - 2.0)
        assert prediction.predicted_total == pytest.approx(
            ms.total_time - 1.0)

    def test_order_by_saving(self):
        ms = make_ms([[1.0, 1.0], [5.0, 1.0]])
        predictions = balance_predictions(ms)
        assert predictions[0].region == "loop 2"
        assert predictions[0].saving > predictions[1].saving

    def test_balance_everything_combines(self):
        ms = make_ms([[3.0, 1.0], [4.0, 2.0]])
        combined = balance_everything(ms)
        individual = sum(prediction.saving
                         for prediction in balance_predictions(ms))
        assert combined.saving == pytest.approx(individual)
        assert combined.speedup > 1.0

    def test_unperformed_activities_ignored(self):
        ms = make_ms([[2.0, 1.0]], p2p_rows=[[0.0, 0.0]])
        prediction = balance_predictions(ms)[0]
        assert prediction.saving == pytest.approx(0.5)

    def test_paper_ranking_agrees_with_sid(self, paper_measurements):
        """The absolute payoff ranking puts loop 1 first — the same
        conclusion the scaled index reaches."""
        predictions = balance_predictions(paper_measurements)
        assert predictions[0].region == "loop 1"
        assert predictions[0].speedup > 1.05
        combined = balance_everything(paper_measurements)
        assert combined.speedup > max(prediction.speedup
                                      for prediction in predictions)

    def test_render(self, paper_measurements):
        text = render_predictions(balance_predictions(paper_measurements))
        assert "What-if" in text and "loop 1" in text


class TestExcessAttribution:
    def test_excess_sums_to_zero(self):
        from repro.core import excess_by_processor
        ms = make_ms([[3.0, 1.0, 2.0]])
        attribution = excess_by_processor(ms, "loop 1")
        assert sum(attribution.excess) == pytest.approx(0.0)

    def test_worst_processor(self):
        from repro.core import excess_by_processor
        ms = make_ms([[3.0, 1.0, 2.0]])
        assert excess_by_processor(ms, "loop 1").worst_processor == 0

    def test_offenders_threshold(self):
        from repro.core import excess_by_processor
        ms = make_ms([[5.0, 4.9, 1.0, 1.0]])
        attribution = excess_by_processor(ms, "loop 1")
        # Both hot processors share the excess roughly equally.
        assert set(attribution.offenders(minimum_share=0.25)) == {0, 1}
        assert attribution.offenders(minimum_share=0.9) == ()

    def test_balanced_region_has_no_offenders(self):
        from repro.core import excess_by_processor
        ms = make_ms([[2.0, 2.0, 2.0]])
        assert excess_by_processor(ms, "loop 1").offenders() == ()

    def test_empty_region_rejected(self):
        from repro.core import excess_by_processor
        ms = make_ms([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(MeasurementError):
            excess_by_processor(ms, "loop 2")

    def test_paper_loop1_offender_is_processor_2(self, paper_measurements):
        """Processor 2 (index 1) carries the bulk of loop 1's excess —
        consistent with the paper's processor view."""
        from repro.core import excess_by_processor
        attribution = excess_by_processor(paper_measurements, "loop 1")
        assert attribution.worst_processor == 1
