"""Tests for the 2-d stencil workload and the bootstrap intervals."""

import numpy as np
import pytest

from repro.apps import StencilConfig, STENCIL_REGIONS, run_stencil
from repro.core import (available_indices, bootstrap_interval,
                        dispersion_matrix, region_intervals)
from repro.errors import DispersionError, WorkloadError
from repro.instrument import lint_trace
from tests.oracles import SCALAR_INDICES


class TestStencil:
    @pytest.fixture(scope="class")
    def run(self):
        return run_stencil(StencilConfig(iterations=3), n_ranks=16)

    def test_regions(self, run):
        assert run[2].regions == STENCIL_REGIONS

    def test_lint_clean(self, run):
        assert lint_trace(run[1]) == ()

    def test_sweep_balanced_on_square_counts(self, run):
        """512x512 over a 4x4 grid: identical tiles, flat computation."""
        _, _, measurements = run
        matrix = dispersion_matrix(measurements)
        sweep = measurements.region_index("sweep")
        comp = measurements.activity_index("computation")
        assert matrix[sweep, comp] < 1e-9

    def test_geometric_p2p_imbalance(self, run):
        """Corner ranks (2 neighbours) send less halo than interior
        ranks (4 neighbours): p2p bytes vary with position even though
        computation is flat."""
        from repro.instrument import count_profile
        _, tracer, _ = run
        counters = count_profile(tracer, "bytes", regions=("halo",))
        j = counters.activity_index("point-to-point")
        bytes_sent = counters.times[0, j, :]
        corner, interior = bytes_sent[0], bytes_sent[5]   # (0,0) vs (1,1)
        assert corner < interior

    def test_uneven_tiles_for_non_square_counts(self):
        _, _, measurements = run_stencil(
            StencilConfig(grid=(130, 130), iterations=1), n_ranks=6)
        matrix = dispersion_matrix(measurements)
        sweep = measurements.region_index("sweep")
        comp = measurements.activity_index("computation")
        # 130 rows over a 2x3 grid: tile sizes differ.
        assert matrix[sweep, comp] > 0.0

    def test_validation(self):
        with pytest.raises(WorkloadError):
            StencilConfig(iterations=0)
        with pytest.raises(WorkloadError):
            StencilConfig(halo_depth=0)

    def test_deterministic(self):
        first = run_stencil(StencilConfig(iterations=1), n_ranks=4)
        second = run_stencil(StencilConfig(iterations=1), n_ranks=4)
        np.testing.assert_array_equal(first[2].times, second[2].times)


class TestBootstrap:
    def test_interval_contains_observed(self):
        interval = bootstrap_interval([1.0, 2.0, 3.0, 10.0], seed=1)
        assert interval.low <= interval.observed <= interval.high
        assert interval.width > 0.0

    def test_balanced_data_interval_near_zero(self):
        interval = bootstrap_interval([2.0] * 8, seed=1)
        assert interval.observed == pytest.approx(0.0)
        assert interval.high == pytest.approx(0.0, abs=1e-12)
        assert not interval.excludes_balance(margin=0.01)

    def test_distributed_imbalance_excludes_balance(self):
        # A gradient survives resampling (no single make-or-break
        # outlier), so the interval stays away from 0.
        values = [1.0 + 0.25 * k for k in range(12)]
        interval = bootstrap_interval(values, seed=1)
        assert interval.excludes_balance(margin=0.01)

    def test_single_outlier_interval_reaches_zero(self):
        # Documented percentile-bootstrap caveat: a resample omits the
        # lone outlier ~37% of the time, collapsing the index to 0.
        interval = bootstrap_interval([1.0, 1.0, 1.0, 20.0], seed=1)
        assert interval.low == pytest.approx(0.0)
        assert interval.high >= interval.observed

    def test_deterministic_given_seed(self):
        values = [1.0, 3.0, 2.0, 5.0]
        first = bootstrap_interval(values, seed=9)
        second = bootstrap_interval(values, seed=9)
        assert first == second

    def test_narrower_with_more_processors(self):
        rng = np.random.default_rng(0)
        small = bootstrap_interval(rng.uniform(1, 2, 4), seed=2)
        large = bootstrap_interval(rng.uniform(1, 2, 64), seed=2)
        assert large.width < small.width

    @pytest.mark.parametrize("index", available_indices())
    @pytest.mark.parametrize("values", [
        [0.0, 0.0, 0.0, 5.0],     # about a third of resamples all zero
        np.random.default_rng(3).uniform(0.5, 1.5, 64)])
    def test_matches_a_loop_over_the_scalar_oracle(self, index, values):
        """One index call over every replicate gives the interval of
        the historical per-replicate loop."""
        interval = bootstrap_interval(values, index=index, seed=4)
        data = np.asarray(values, dtype=float)
        function = SCALAR_INDICES[index]
        observed = function(data / data.sum())
        resampled = data[np.random.default_rng(4).integers(
            0, data.size, size=(2000, data.size))]
        estimates = [function(row / row.sum()) if row.sum() > 0.0
                     else observed for row in resampled]
        low, high = np.quantile(estimates, [0.025, 0.975])
        for actual, expected in ((interval.observed, observed),
                                 (interval.low, low),
                                 (interval.high, high)):
            assert actual == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_validation(self):
        with pytest.raises(DispersionError):
            bootstrap_interval([1.0])
        with pytest.raises(DispersionError):
            bootstrap_interval([0.0, 0.0])
        with pytest.raises(DispersionError):
            bootstrap_interval([1.0, 2.0], confidence=1.0)
        with pytest.raises(DispersionError):
            bootstrap_interval([1.0, 2.0], replicates=10)

    def test_region_intervals_on_paper_data(self, paper_measurements):
        intervals = region_intervals(paper_measurements,
                                     "synchronization",
                                     replicates=500)
        # Only the three synchronizing loops appear.
        assert set(intervals) == {"loop 1", "loop 5", "loop 6"}
        # The reconstruction concentrates each loop's deviation on one
        # processor (a spotlight), so the lower bounds reach 0 — the
        # documented single-outlier caveat — while the upper bounds
        # bracket the observed values.
        for interval in intervals.values():
            assert interval.low <= interval.observed <= interval.high
        assert intervals["loop 5"].observed == pytest.approx(0.30571,
                                                             abs=1e-5)
