"""Instrumentation substrate: tracing, trace files and profiling.

The paper's methodology is post-mortem: a program is instrumented, its
execution is monitored, and the collected measurements are analyzed.
This package provides that pipeline for the simulated machine:

* :class:`Tracer` — collects :class:`TraceEvent` records (plugs into the
  simulator as its trace sink);
* :func:`write_trace` / :func:`read_trace` — the on-disk trace format;
* :func:`iter_any` and friends — readers yielding :class:`EventColumns`
  chunks;
* :func:`profile` — aggregates a trace into the ``t_ijp``
  :class:`~repro.core.measurements.MeasurementSet` the methodology
  consumes.
"""

from .binary import (read_any, read_any_tracer, read_binary_trace,
                     sniff_format, write_binary_trace)
from .columns import EventColumns
from .events import EVENT_KINDS, OUTSIDE_REGION, TraceEvent
from .chrome import export_chrome_trace
from .counters import COUNTERS, count_profile
from .profile import profile
from .tracefile import (FORMAT_NAME, FORMAT_VERSION, read_trace, read_tracer,
                        write_trace, write_tracer)
from .tracer import Tracer
from .lint import LintIssue, lint_trace
from .summary import RankUtilization, render_utilization, utilization
from .filters import (filter_activities, filter_events, filter_ranks,
                      filter_regions, filter_time, merge,
                      relabel_region, shift_time)
from .stream import (iter_any, iter_binary_span, iter_binary_trace,
                     iter_trace, iter_trace_span)
from .windows import (Window, equal_edges, window_profiles,
                      window_profiles_at)

__all__ = [
    "read_any",
    "read_any_tracer",
    "read_binary_trace",
    "sniff_format",
    "write_binary_trace",
    "EventColumns",
    "EVENT_KINDS",
    "OUTSIDE_REGION",
    "TraceEvent",
    "profile",
    "export_chrome_trace",
    "COUNTERS",
    "count_profile",
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "read_trace",
    "read_tracer",
    "write_trace",
    "write_tracer",
    "Tracer",
    "LintIssue",
    "RankUtilization",
    "render_utilization",
    "utilization",
    "lint_trace",
    "filter_activities", "filter_events", "filter_ranks",
    "filter_regions", "filter_time", "merge", "relabel_region",
    "shift_time",
    "iter_any", "iter_binary_span", "iter_binary_trace",
    "iter_trace", "iter_trace_span",
    "Window",
    "equal_edges",
    "window_profiles",
    "window_profiles_at",
]
