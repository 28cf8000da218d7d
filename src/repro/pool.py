"""The one process-pool fan-out: the sharded fold of one trace
(:mod:`repro.shards`) and the sweep over many (:mod:`repro.sweep`)."""

from __future__ import annotations

import os
from functools import partial
from typing import Callable, List, Optional, Sequence

from .obs import spans as obspans
from .reports import check_param


def worker_count(jobs: Optional[int]) -> int:
    """``jobs``, defaulting to one per CPU; checked as declared."""
    if jobs is None:
        return os.cpu_count() or 1
    return check_param("jobs", jobs)


def _traced(worker: Callable, record: bool, task):
    """Run one task in a pool process: ``(result, spans)``, the spans
    recorded by this task alone, and only if the parent is recording
    (a forked child's inherited spans are dropped first)."""
    obspans.disable()
    if record:
        obspans.enable()
    return worker(task), obspans.drain()


def map_tasks(worker: Callable, tasks: Sequence, jobs: Optional[int],
              stage: str) -> List:
    """``worker`` over ``tasks``, in order, on at most ``jobs`` processes
    (:func:`worker_count`; never more than there are tasks, one runs
    inline) — recorded as one ``stage`` span.  A pool task's spans come
    back with its result and join this process's recording."""
    jobs = max(1, min(worker_count(jobs), len(tasks)))
    with obspans.span(stage, activity="coordination", jobs=jobs,
                      tasks=len(tasks)):
        if jobs == 1:
            return [worker(task) for task in tasks]
        # Imported here: most runs are one job, and the import costs
        # every command ~10 ms of start-up.
        from multiprocessing import get_context
        with get_context().Pool(jobs) as pool:
            traced = pool.map(partial(_traced, worker,
                                      obspans.is_enabled()), tasks)
        for _, spans in traced:
            obspans.absorb(spans)
        return [result for result, _ in traced]
