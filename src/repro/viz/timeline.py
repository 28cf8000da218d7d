"""ASCII timelines — a Gantt view of a trace.

Renders each rank's execution as a row of characters over time, one
character per time bucket, colored by the dominant activity in that
bucket:

* ``#`` computation
* ``~`` point-to-point
* ``=`` collective
* ``|`` synchronization
* ``.`` idle / untraced
* ``+`` mixed (no activity holds the majority)

The picture the paper's Figures hint at — who waits where — becomes
directly visible: a late rank shows a long ``#`` run while everyone
else shows ``|`` or ``=``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..errors import TraceError

#: Character for each activity (majority per bucket).
ACTIVITY_CHARS: Dict[str, str] = {
    "computation": "#",
    "point-to-point": "~",
    "collective": "=",
    "synchronization": "|",
}

IDLE_CHAR = "."
MIXED_CHAR = "+"

TIMELINE_LEGEND = ("legend: # computation   ~ point-to-point   "
                   "= collective   | synchronization   . idle   + mixed")


def _glyph(bucket: Dict[str, float], step: float) -> str:
    """The character of one bucket's activity mix."""
    total = sum(bucket.values())
    if total <= 0.0:
        return IDLE_CHAR
    activity, amount = max(bucket.items(), key=lambda item: item[1])
    if amount < 0.5 * step:
        return IDLE_CHAR if total < 0.1 * step else MIXED_CHAR
    return ACTIVITY_CHARS.get(activity, MIXED_CHAR)


def render_timeline(tracer, width: int = 72,
                    ranks: Optional[Sequence[int]] = None) -> str:
    """Render the whole trace as one row per rank.

    ``tracer`` is a :class:`~repro.instrument.Tracer` or a chunk source
    with the trace's extent (``len()``, ``n_ranks``, ``elapsed``) such
    as :class:`~repro.instrument.stream.FoldedTrace`.  ``width`` is the
    number of time buckets; ``ranks`` restricts to a subset (default:
    every rank seen).
    """
    if len(tracer) == 0:
        raise TraceError("cannot render an empty trace")
    if width < 10:
        raise TraceError("timeline must be at least 10 buckets wide")
    span = tracer.elapsed
    if span <= 0.0:
        raise TraceError("trace spans no time")
    rank_list = list(ranks) if ranks is not None else \
        list(range(tracer.n_ranks))
    if any(rank < 0 for rank in rank_list):
        raise TraceError("rank must be non-negative")
    rows: Dict[int, List[Dict[str, float]]] = {
        rank: [dict() for _ in range(width)] for rank in rank_list}
    step = span / width
    for chunk in tracer:
        for rank, code, begin, end in zip(
                chunk.rank.tolist(), chunk.activity.tolist(),
                chunk.begin.tolist(), chunk.end.tolist()):
            if rank not in rows:
                continue
            activity = chunk.names[code]
            first = min(int(begin / step), width - 1)
            last = min(int(end / step - 1e-12), width - 1)
            for index in range(first, last + 1):
                overlap = min(end, index * step + step) \
                    - max(begin, index * step)
                if overlap > 0.0:
                    bucket = rows[rank][index]
                    bucket[activity] = bucket.get(activity, 0.0) + overlap
    label_width = max(len(f"rank {rank}") for rank in rank_list)
    lines = [f"timeline: 0 .. {span:.4g} s ({width} buckets)"]
    for rank in rank_list:
        row = "".join(_glyph(bucket, step) for bucket in rows[rank])
        lines.append(f"{('rank ' + str(rank)).ljust(label_width)} {row}")
    lines.append(TIMELINE_LEGEND)
    return "\n".join(lines)
