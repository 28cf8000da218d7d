"""Unit tests for decomposition, injectors and the synthetic workload."""

import numpy as np
import pytest

from repro.apps import (BALANCED, Block, Explicit, LinearGradient,
                        ProcessGrid, RandomJitter, RegionSpec, Straggler,
                        SyntheticWorkload, block_bounds, block_partition,
                        imbalance_of, imbalance_sweep_workload, square_grid,
                        weighted_partition)
from repro.errors import WorkloadError


class TestBlockPartition:
    def test_even_split(self):
        assert block_partition(12, 4) == [3, 3, 3, 3]

    def test_remainder_spread(self):
        assert block_partition(10, 4) == [3, 3, 2, 2]

    def test_more_parts_than_items(self):
        assert block_partition(2, 4) == [1, 1, 0, 0]

    def test_bounds(self):
        assert block_bounds([3, 2]) == [(0, 3), (3, 5)]

    def test_rejects_zero_parts(self):
        with pytest.raises(WorkloadError):
            block_partition(4, 0)


class TestWeightedPartition:
    def test_sums_to_n(self):
        counts = weighted_partition(100, [1.0, 2.0, 3.0])
        assert sum(counts) == 100

    def test_proportions(self):
        counts = weighted_partition(60, [1.0, 2.0, 3.0])
        assert counts == [10, 20, 30]

    def test_largest_remainder(self):
        counts = weighted_partition(10, [1.0, 1.0, 1.0])
        assert sum(counts) == 10
        assert max(counts) - min(counts) <= 1

    def test_rejects_all_zero_weights(self):
        with pytest.raises(WorkloadError):
            weighted_partition(10, [0.0, 0.0])

    def test_rejects_negative_weight(self):
        with pytest.raises(WorkloadError):
            weighted_partition(10, [1.0, -1.0])


class TestProcessGrid:
    def test_coordinates_roundtrip(self):
        grid = ProcessGrid(rows=3, cols=4)
        for rank in range(grid.size):
            row, col = grid.coordinates(rank)
            assert grid.rank_of(row, col) == rank

    def test_neighbours_interior(self):
        grid = ProcessGrid(rows=3, cols=3)
        assert sorted(grid.neighbours(4)) == [1, 3, 5, 7]

    def test_neighbours_corner(self):
        grid = ProcessGrid(rows=3, cols=3)
        assert sorted(grid.neighbours(0)) == [1, 3]

    def test_square_grid(self):
        grid = square_grid(16)
        assert (grid.rows, grid.cols) == (4, 4)
        assert square_grid(6).size == 6

    def test_out_of_range(self):
        with pytest.raises(WorkloadError):
            ProcessGrid(2, 2).coordinates(4)


class TestInjectors:
    def test_balanced(self):
        np.testing.assert_allclose(BALANCED.factors(4), 1.0)

    def test_straggler(self):
        factors = Straggler(rank=2, factor_value=2.0).factors(4)
        assert factors.tolist() == [1.0, 1.0, 2.0, 1.0]

    def test_block(self):
        factors = Block(ranks=(0, 1), factor_value=1.5).factors(4)
        assert factors.tolist() == [1.5, 1.5, 1.0, 1.0]

    def test_linear_gradient_endpoints(self):
        factors = LinearGradient(amplitude=0.2).factors(5)
        assert factors[0] == pytest.approx(0.8)
        assert factors[-1] == pytest.approx(1.2)
        assert factors[2] == pytest.approx(1.0)

    def test_linear_gradient_single_rank(self):
        assert LinearGradient(amplitude=0.5).factor(0, 1) == 1.0

    def test_random_jitter_deterministic_and_bounded(self):
        injector = RandomJitter(amplitude=0.1, seed=3)
        first = injector.factors(8)
        second = injector.factors(8)
        np.testing.assert_array_equal(first, second)
        assert np.all(np.abs(first - 1.0) <= 0.1)

    def test_explicit(self):
        injector = Explicit(values=(1.0, 2.0))
        assert injector.factor(1, 2) == 2.0
        with pytest.raises(WorkloadError):
            injector.factor(0, 3)       # wrong size

    def test_composition(self):
        combined = Straggler(rank=0, factor_value=2.0) * \
            LinearGradient(amplitude=0.2)
        assert combined.factor(0, 5) == pytest.approx(2.0 * 0.8)

    def test_imbalance_of(self):
        assert imbalance_of(BALANCED, 8) == pytest.approx(0.0)
        value = imbalance_of(Straggler(rank=0, factor_value=2.0), 4)
        assert value == pytest.approx(2.0 / 1.25 - 1.0)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            Straggler(factor_value=0.0)
        with pytest.raises(WorkloadError):
            LinearGradient(amplitude=1.0)
        with pytest.raises(WorkloadError):
            RandomJitter(amplitude=-0.1)


class TestSyntheticWorkload:
    def test_runs_and_profiles(self):
        workload = imbalance_sweep_workload(Straggler(rank=0,
                                                      factor_value=1.5))
        result, tracer, measurements = workload.run(4)
        assert measurements.regions == ("setup", "kernel", "teardown")
        assert measurements.n_processors == 4
        assert result.elapsed > 0.0

    def test_straggler_visible_in_kernel(self):
        workload = imbalance_sweep_workload(Straggler(rank=2,
                                                      factor_value=2.0))
        _, _, ms = workload.run(4)
        kernel = ms.region_index("kernel")
        comp = ms.activity_index("computation")
        times = ms.times[kernel, comp, :]
        assert np.argmax(times) == 2

    def test_sync_region_only_where_requested(self):
        workload = imbalance_sweep_workload(BALANCED)
        _, _, ms = workload.run(4)
        j = ms.activity_index("synchronization")
        performed = ms.performed[:, j]
        assert performed.tolist() == [False, True, False]

    def test_all_patterns_run(self):
        from repro.apps import PATTERNS
        regions = tuple(
            RegionSpec(name=f"r-{pattern}", compute=1e-4, pattern=pattern,
                       nbytes=512)
            for pattern in PATTERNS)
        workload = SyntheticWorkload(regions=regions)
        _, _, ms = workload.run(5)
        assert ms.n_regions == len(PATTERNS)

    def test_repetitions(self):
        single = SyntheticWorkload(regions=(
            RegionSpec(name="r", compute=1e-3),))
        repeated = SyntheticWorkload(regions=(
            RegionSpec(name="r", compute=1e-3, repetitions=3),))
        _, _, ms_one = single.run(2)
        _, _, ms_three = repeated.run(2)
        assert ms_three.region_times[0] == pytest.approx(
            3 * ms_one.region_times[0])

    @pytest.mark.parametrize("n_ranks", [8, 32, 64])
    def test_allreduce_region_moves_messages(self, n_ranks):
        workload = SyntheticWorkload(regions=(
            RegionSpec(name="kernel", compute=1e-4,
                       injector=LinearGradient(amplitude=0.2),
                       pattern="allreduce", nbytes=4096, sync=True,
                       repetitions=10),))
        assert workload.run(n_ranks)[0].messages > 0

    def test_jitter_deterministic(self):
        workload = SyntheticWorkload(
            regions=(RegionSpec(name="r", compute=1e-3),),
            jitter=0.1, seed=5)
        first = workload.run(4)[2]
        second = workload.run(4)[2]
        np.testing.assert_array_equal(first.times, second.times)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            SyntheticWorkload(regions=())
        with pytest.raises(WorkloadError):
            SyntheticWorkload(regions=(RegionSpec(name="a"),
                                       RegionSpec(name="a")))
        with pytest.raises(WorkloadError):
            RegionSpec(name="r", pattern="smoke-signals")
