"""Tests for the master-worker scheduling workload."""

import numpy as np
import pytest

from repro.apps import (TaskFarm, run_master_worker, worker_imbalance)
from repro.errors import WorkloadError


class TestTaskFarm:
    def test_costs_are_a_ramp(self):
        costs = TaskFarm(tasks=100, base_cost=1e-3,
                         irregularity=3.0).costs()
        assert costs[0] == pytest.approx(1e-3)
        assert costs[-1] == pytest.approx(4e-3)
        assert np.all(np.diff(costs) >= 0.0)

    def test_single_task(self):
        assert TaskFarm(tasks=1).costs().shape == (1,)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            TaskFarm(tasks=0)
        with pytest.raises(WorkloadError):
            TaskFarm(chunk=0)
        with pytest.raises(WorkloadError):
            TaskFarm(base_cost=0.0)


class TestPolicies:
    @pytest.fixture(scope="class")
    def farm(self):
        return TaskFarm(tasks=192, chunk=4)

    @pytest.fixture(scope="class")
    def static_run(self, farm):
        return run_master_worker(farm, 8, "static")

    @pytest.fixture(scope="class")
    def dynamic_run(self, farm):
        return run_master_worker(farm, 8, "dynamic")

    def test_total_work_identical(self, farm, static_run, dynamic_run):
        """Both policies execute exactly the same task costs."""
        comp = static_run[2].activity_index("computation")
        work = static_run[2].region_index("work")
        static_total = static_run[2].times[work, comp, :].sum()
        dynamic_total = dynamic_run[2].times[work, comp, :].sum()
        assert static_total == pytest.approx(dynamic_total, rel=1e-9)
        assert static_total == pytest.approx(farm.costs().sum(), rel=1e-9)

    def test_dynamic_balances_the_workers(self, static_run, dynamic_run):
        static_id = worker_imbalance(static_run[2])
        dynamic_id = worker_imbalance(dynamic_run[2])
        assert dynamic_id < static_id / 2

    def test_dynamic_is_faster_despite_messages(self, static_run,
                                                dynamic_run):
        assert dynamic_run[0].elapsed < static_run[0].elapsed
        assert dynamic_run[0].messages > static_run[0].messages

    def test_master_computes_nothing(self, dynamic_run):
        measurements = dynamic_run[2]
        comp = measurements.activity_index("computation")
        work = measurements.region_index("work")
        assert measurements.times[work, comp, 0] == 0.0

    def test_static_barrier_absorbs_imbalance(self, static_run):
        """The finalize barrier waits reflect the uneven work."""
        measurements = static_run[2]
        sync = measurements.activity_index("synchronization")
        finalize = measurements.region_index("finalize")
        waits = measurements.times[finalize, sync, :]
        assert waits.max() > waits.min()

    def test_smaller_chunks_balance_better(self, farm):
        fine = run_master_worker(TaskFarm(tasks=192, chunk=1), 8,
                                 "dynamic")
        coarse = run_master_worker(TaskFarm(tasks=192, chunk=48), 8,
                                   "dynamic")
        assert worker_imbalance(fine[2]) < worker_imbalance(coarse[2])
        assert fine[0].messages > coarse[0].messages

    def test_deterministic(self, farm):
        first = run_master_worker(farm, 6, "dynamic")
        second = run_master_worker(farm, 6, "dynamic")
        np.testing.assert_array_equal(first[2].times, second[2].times)

    def test_policy_validation(self, farm):
        with pytest.raises(WorkloadError):
            run_master_worker(farm, 8, "round-robin")

    def test_needs_two_ranks(self, farm):
        from repro.errors import SimulationError
        with pytest.raises((WorkloadError, SimulationError)):
            run_master_worker(farm, 1, "dynamic")

    def test_methodology_sees_the_difference(self, static_run,
                                             dynamic_run):
        """End to end: the work region's computation dispersion drops
        under dynamic scheduling.  (The region's *overall* index stays
        high in the dynamic run — the methodology honestly reports the
        master's request/assign waiting as point-to-point imbalance.)"""
        from repro.core import dispersion_matrix
        static_matrix = dispersion_matrix(static_run[2])
        dynamic_matrix = dispersion_matrix(dynamic_run[2])
        comp = static_run[2].activity_index("computation")
        work_static = static_run[2].region_index("work")
        work_dynamic = dynamic_run[2].region_index("work")
        assert dynamic_matrix[work_dynamic, comp] < \
            static_matrix[work_static, comp]
