"""Instrumentation substrate: tracing, trace files and profiling.

The paper's methodology is post-mortem: a program is instrumented, its
execution is monitored, and the collected measurements are analyzed.
This package provides that pipeline for the simulated machine:

* :class:`Tracer` — records events as :class:`EventColumns` chunks
  (plugs into the simulator as its trace sink);
* :func:`write_trace` / :func:`read_trace` — the on-disk trace format;
* :func:`iter_any` and friends — readers yielding :class:`EventColumns`
  chunks;
* :func:`profile` — aggregates a trace into the ``t_ijp``
  :class:`~repro.core.measurements.MeasurementSet` the methodology
  consumes.

Every name loads its submodule on first access (PEP 562, see
:mod:`repro._lazy`).
"""

from .._lazy import exported_names, lazy_namespace

# Named like its own module: bound before anything can import the
# module and rebind the package attribute to it.
from .profile import profile

_EXPORTS = {
    "binary": ("read_any", "read_any_tracer", "read_binary_trace",
               "sniff_format", "write_binary_trace"),
    "columns": ("EventColumns",),
    "events": ("EVENT_KINDS", "OUTSIDE_REGION", "TraceEvent"),
    "profile": ("profile",),
    "chrome": ("export_chrome_trace",),
    "counters": ("COUNTERS", "count_profile"),
    "tracefile": ("FORMAT_NAME", "FORMAT_VERSION", "read_trace",
                  "read_tracer", "write_trace", "write_tracer"),
    "tracer": ("Tracer",),
    "lint": ("LintIssue", "lint_trace"),
    "summary": ("RankUtilization", "render_utilization", "utilization"),
    "filters": ("filter_activities", "filter_events", "filter_ranks",
                "filter_regions", "filter_time", "merge", "relabel_region",
                "shift_time"),
    "stream": ("iter_any", "iter_binary_span", "iter_binary_trace",
               "iter_trace", "iter_trace_span"),
    "windows": ("Window", "equal_edges", "window_profiles",
                "window_profiles_at"),
}

__getattr__, __dir__ = lazy_namespace(__name__, _EXPORTS)

__all__ = exported_names(_EXPORTS)
