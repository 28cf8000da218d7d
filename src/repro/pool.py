"""The one process-pool fan-out: the sharded fold of one trace
(:mod:`repro.shards`) and the sweep over many (:mod:`repro.sweep`)."""

from __future__ import annotations

import os
from typing import Callable, List, Optional, Sequence

from .errors import ReproError
from .obs import spans as obspans


def worker_count(jobs: Optional[int]) -> int:
    """``jobs``, defaulting to one per CPU; fewer than one is an error."""
    if jobs is None:
        return os.cpu_count() or 1
    if jobs < 1:
        raise ReproError(f"--jobs must be at least 1, got {jobs}")
    return jobs


def map_tasks(worker: Callable, tasks: Sequence, jobs: Optional[int],
              stage: str) -> List:
    """``worker`` over ``tasks``, in order, on at most ``jobs`` processes
    (:func:`worker_count`; never more than there are tasks, one runs
    inline) — recorded as one ``stage`` span.  A worker wraps itself in
    :func:`repro.obs.spans.worker_scope` so its spans reach the parent.
    """
    jobs = max(1, min(worker_count(jobs), len(tasks)))
    with obspans.span(stage, activity="coordination", jobs=jobs,
                      tasks=len(tasks)):
        if jobs == 1:
            return [worker(task) for task in tasks]
        # Imported here: most runs are one job, and the import costs
        # every command ~10 ms of start-up.
        from multiprocessing import get_context
        with get_context().Pool(jobs) as pool:
            return pool.map(worker, tasks)
