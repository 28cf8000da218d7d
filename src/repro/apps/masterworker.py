"""Master–worker self-scheduling: the classic load-imbalance repair.

Static block partitions of *spatially correlated* irregular work produce
exactly the uneven distributions the paper's methodology detects.  The
textbook fix is dynamic self-scheduling: a master hands out small chunks
on demand, so whoever finishes early automatically takes more.  This
module implements both policies over the same task list:

* ``static``  — tasks are block-partitioned over the worker ranks up
  front; the run ends with a reduction and a barrier whose waits absorb
  the imbalance;
* ``dynamic`` — rank 0 is the master: workers request a chunk
  (zero-byte message), receive the chunk's task range (the start index
  travels in the message tag, the length in its size), process those
  exact tasks, and repeat until a termination message arrives.

Rank 0 coordinates in **both** policies (it computes no tasks), so the
two runs use the same worker pool and their dissimilarity indices are
directly comparable.  The default cost profile is a quadratic ramp —
task ``k`` costs ``base * (1 + irregularity * (k / (T-1))^2)`` — the
shape of triangular-solve or ray-tracing workloads, which block
partitioning splits maximally unevenly.

The scheduling ablation benchmark runs both under the methodology:
static shows a large work-region index of dispersion, dynamic a small
one — at the price of extra messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import WorkloadError
from ..simmpi import ANY_SOURCE, ANY_TAG, NetworkModel
from .simulate import traced_run

#: Region names of the master-worker workload.
MASTER_WORKER_REGIONS = ("work", "finalize")

_REQUEST_TAG = 21
_DONE_TAG = 22
#: Assignment tags encode the chunk's first task: _ASSIGN_BASE + start.
_ASSIGN_BASE = 64


@dataclass(frozen=True)
class TaskFarm:
    """A bag of independent tasks with a correlated cost profile."""

    tasks: int = 256
    base_cost: float = 5e-4
    irregularity: float = 3.0
    chunk: int = 4
    result_bytes: int = 2048

    def __post_init__(self) -> None:
        if self.tasks < 1:
            raise WorkloadError("need at least one task")
        if self.base_cost <= 0.0:
            raise WorkloadError("base_cost must be positive")
        if self.irregularity < 0.0:
            raise WorkloadError("irregularity must be non-negative")
        if self.chunk < 1:
            raise WorkloadError("chunk must be at least 1")
        if self.result_bytes < 0:
            raise WorkloadError("result_bytes must be non-negative")

    def costs(self) -> np.ndarray:
        """Per-task costs in seconds: a quadratic ramp along the list."""
        if self.tasks == 1:
            return np.array([self.base_cost])
        positions = np.arange(self.tasks) / (self.tasks - 1)
        return self.base_cost * (1.0 + self.irregularity * positions ** 2)


def _finalize(comm, farm: TaskFarm):
    with comm.region("finalize"):
        yield from comm.reduce(0, farm.result_bytes)
        yield from comm.barrier()


def static_program(comm, farm: TaskFarm):
    """Static block partition of the task list over ranks 1..P-1."""
    if comm.size < 2:
        raise WorkloadError("the task farm needs at least 2 ranks")
    costs = farm.costs()
    workers = comm.size - 1
    per_worker = int(np.ceil(farm.tasks / workers))
    with comm.region("work"):
        if comm.rank > 0:
            begin = (comm.rank - 1) * per_worker
            end = min(begin + per_worker, farm.tasks)
            for task in range(begin, end):
                yield from comm.compute(float(costs[task]))
    yield from _finalize(comm, farm)


def dynamic_program(comm, farm: TaskFarm):
    """Demand-driven chunks handed out by the master (rank 0)."""
    if comm.size < 2:
        raise WorkloadError("the task farm needs at least 2 ranks")
    costs = farm.costs()
    with comm.region("work"):
        if comm.rank == 0:
            yield from _master(comm, farm)
        else:
            yield from _worker(comm, costs)
    yield from _finalize(comm, farm)


def _master(comm, farm: TaskFarm):
    next_task = 0
    active_workers = comm.size - 1
    while active_workers > 0:
        message = yield from comm.recv(ANY_SOURCE, _REQUEST_TAG)
        if next_task < farm.tasks:
            count = min(farm.chunk, farm.tasks - next_task)
            yield from comm.send(message.source, 8 * count,
                                 _ASSIGN_BASE + next_task)
            next_task += count
        else:
            yield from comm.send(message.source, 0, _DONE_TAG)
            active_workers -= 1


def _worker(comm, costs: np.ndarray):
    while True:
        yield from comm.send(0, 0, _REQUEST_TAG)
        assignment = yield from comm.recv(0, ANY_TAG)
        if assignment.tag == _DONE_TAG:
            return
        start = assignment.tag - _ASSIGN_BASE
        count = assignment.nbytes // 8
        for task in range(start, start + count):
            yield from comm.compute(float(costs[task]))


def run_master_worker(farm: Optional[TaskFarm] = None, n_ranks: int = 16,
                      policy: str = "dynamic",
                      network: Optional[NetworkModel] = None):
    """Run the task farm under one scheduling policy.

    Returns ``(result, tracer, measurements)``.
    """
    if policy not in ("static", "dynamic"):
        raise WorkloadError(f"policy must be 'static' or 'dynamic', "
                            f"got {policy!r}")
    configuration = farm if farm is not None else TaskFarm()
    program = static_program if policy == "static" else dynamic_program
    return traced_run(program, configuration, n_ranks=n_ranks,
                      regions=MASTER_WORKER_REGIONS, network=network)


def worker_imbalance(measurements) -> float:
    """Index of dispersion of the *workers'* computation times in the
    work region (rank 0, the coordinator, is excluded in both
    policies)."""
    from ..core.dispersion import euclidean_distance
    work = measurements.region_index("work")
    comp = measurements.activity_index("computation")
    worker_times = measurements.times[work, comp, 1:]
    total = worker_times.sum()
    if total <= 0.0:
        raise WorkloadError("workers recorded no computation")
    return euclidean_distance(worker_times / total)
