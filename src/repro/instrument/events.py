"""Trace event model.

A trace is a sequence of :class:`TraceEvent` records, one per interval
during which a rank's clock advanced: a computation burst, a send, a
receive, or a wait.  Events carry the instrumentation context captured
when the operation was posted — the code region and the activity class —
which is all the profile aggregation needs to build the paper's
``t_ijp`` tensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..errors import TraceError

#: Region recorded for time spent outside any annotated region.
OUTSIDE_REGION = "(outside regions)"

#: Event kinds emitted by the simulator engine.
EVENT_KINDS = ("compute", "send", "recv", "wait")


def check_event(rank: int, activity: str, begin: float, end: float,
                kind: str, ranks: Optional[int] = None) -> None:
    """Raise :class:`TraceError` when the fields make no valid event.

    The one validation every event passes, whether it is built as a
    :class:`TraceEvent` or decoded straight into columns.  A reader
    passes the rank count its trace header declares as ``ranks``.
    """
    if rank < 0:
        raise TraceError("rank must be non-negative")
    if ranks is not None and rank >= ranks:
        raise TraceError(f"rank {rank} is not below the header's "
                         f"{ranks} ranks")
    if rank >= 1 << 63:
        raise TraceError(f"rank {rank} does not fit in 64 bits")
    if not (math.isfinite(begin) and math.isfinite(end)):
        raise TraceError(f"event times must be finite ({begin}, {end})")
    if end < begin:
        raise TraceError(f"event ends before it begins ({begin} > {end})")
    if kind not in EVENT_KINDS:
        raise TraceError(f"unknown event kind {kind!r}")
    if not activity:
        raise TraceError("activity must be non-empty")


@dataclass(frozen=True)
class TraceEvent:
    """One interval of one rank's execution."""

    rank: int
    region: str
    activity: str
    begin: float
    end: float
    kind: str = "compute"
    nbytes: int = 0
    partner: int = -1

    def __post_init__(self) -> None:
        check_event(self.rank, self.activity, self.begin, self.end,
                    self.kind)

    @property
    def duration(self) -> float:
        """Length of the interval in seconds."""
        return self.end - self.begin

    def with_region(self, region: str) -> "TraceEvent":
        """Copy of this event relabelled with another region."""
        return TraceEvent(self.rank, region, self.activity, self.begin,
                          self.end, self.kind, self.nbytes, self.partner)
