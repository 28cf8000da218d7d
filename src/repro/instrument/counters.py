"""Counting parameters: the methodology on counters instead of timings.

Paper §2: "The performance of a parallel program is characterized by
timings parameters, such as, wall clock times, as well as counting
parameters, such as, number of I/O operations, number of bytes
read/written, number of memory accesses, number of cache misses.  Note
that, not to clutter the presentation, in what follows we focus on
timings parameters."

This module un-clutters that restriction: it aggregates a trace into
*counter* tensors — messages exchanged or bytes moved per (region,
activity, processor) — packaged as a :class:`MeasurementSet` so the
whole dissimilarity machinery (standardization, indices of dispersion,
views, ranking) applies verbatim.  A program that is time-balanced but
communication-skewed shows up here and nowhere else.  The tensor comes
from the same kernel as the timing profile, summing a weight column
instead of the durations.

Counters use the ``sum`` aggregation (the total message count of a
region is the sum over processors, not the maximum).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..core.measurements import MeasurementSet
from ..core.online import OnlineAccumulator
from ..errors import TraceError
from .columns import EventColumns
from .events import EVENT_KINDS

#: Counters that can be extracted from a trace.
COUNTERS = ("messages", "bytes", "events")

#: Event kind that represents an initiated message (receives and waits
#: would double-count the same message).
_SEND = EVENT_KINDS.index("send")


def _weights(chunk: EventColumns, counter: str) -> np.ndarray:
    """What each event of ``chunk`` adds to its cell."""
    if counter == "events":
        return np.ones(len(chunk))
    sent = chunk.kind == _SEND
    if counter == "messages":
        return sent.astype(float)
    return np.where(sent, chunk.nbytes, 0).astype(float)


def count_profile(tracer, counter: str = "messages",
                  regions: Optional[Sequence[str]] = None,
                  activities: Optional[Sequence[str]] = None) -> MeasurementSet:
    """Aggregate a trace (a :class:`~repro.instrument.Tracer` or an
    iterable of column chunks) into a counter tensor.

    ``counter`` selects what is counted per (region, activity, rank):

    * ``"messages"`` — messages *sent* (attributed to the sender);
    * ``"bytes"``    — payload bytes sent;
    * ``"events"``   — all trace events (a proxy for operation counts).

    Returns a :class:`MeasurementSet` whose "times" are counts (the
    dissimilarity analysis is unit-agnostic).  Regions with no counted
    events yield all-zero rows.
    """
    if counter not in COUNTERS:
        raise TraceError(f"counter must be one of {COUNTERS}, "
                         f"got {counter!r}")
    accumulator = OnlineAccumulator(regions, activities, aggregation="sum")
    for chunk in tracer:
        accumulator.update(chunk, weights=_weights(chunk, counter))
    if accumulator.n_events == 0:
        raise TraceError("cannot count an empty trace")
    tensor = accumulator.tensor()
    if tensor.sum() <= 0.0:
        raise TraceError(f"trace contains nothing to count for "
                         f"counter {counter!r}")
    return MeasurementSet(tensor, regions=accumulator.regions(),
                          activities=accumulator.activities(),
                          aggregation="sum")
