"""Chrome-trace export: open simulator traces in Perfetto / chrome://tracing.

The Trace Event Format (the "catapult" JSON Google's tools consume) is
the lingua franca of timeline viewers.  :func:`export_chrome_trace`
converts a trace into that format, walking its events once:

* one *process* per rank (``pid`` = rank, named ``rank N``);
* each event becomes a complete event (``"ph": "X"``) with microsecond
  timestamps, named ``region: activity``, categorized by activity, and
  carrying ``kind``/``nbytes``/``partner`` as arguments.

The output is a plain ``.json`` (Perfetto also accepts it gzipped); it
is an *export* format only — analysis still reads the native formats.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path
from typing import Union

from ..errors import TraceError

PathLike = Union[str, Path]

#: Seconds -> microseconds (the trace event format's unit).
_US = 1e6


def _records(tracer):
    """A process name per rank, then one complete event per event."""
    for rank in range(tracer.n_ranks):
        yield {"name": "process_name", "ph": "M", "pid": rank, "tid": 0,
               "args": {"name": f"rank {rank}"}}
    for chunk in tracer:
        for rank, region, activity, begin, end, kind, nbytes, partner in \
                chunk.rows():
            yield {"name": f"{region}: {activity}", "cat": activity,
                   "ph": "X", "pid": rank, "tid": 0, "ts": begin * _US,
                   "dur": (end - begin) * _US, "args": {
                       "kind": kind, "nbytes": nbytes, "partner": partner}}


def export_chrome_trace(path: PathLike, tracer) -> int:
    """Write the trace in Chrome Trace Event Format, one record at a
    time; returns the number of events exported.  ``tracer`` is a
    :class:`~repro.instrument.Tracer` or a chunk source with the trace's
    extent (``len()``, ``n_ranks``) such as
    :class:`~repro.instrument.stream.FoldedTrace`."""
    if len(tracer) == 0:
        raise TraceError("refusing to export an empty trace")
    target = Path(path)
    with (gzip.open if target.suffix == ".gz" else open)(
            target, "wt", encoding="utf-8") as stream:
        stream.write('{"traceEvents": [')
        for position, record in enumerate(_records(tracer)):
            stream.write((", " if position else "") + json.dumps(record))
        stream.write('], "displayTimeUnit": "ms"}')
    return len(tracer)
