"""One report pipeline: from a trace file to the text every verb prints.

:func:`build_report` reads, folds, analyses and renders a trace into
the exact text ``repro analyze`` and ``repro temporal`` print (with
its renderers :func:`render_analyze_report` and
:func:`render_temporal_report`) and into the daemon's JSON document.
The CLI, the daemon's jobs, ``repro self``, ``repro testbed show`` and
the workers of ``repro temporal --sweep`` (which cache the temporal
document) all go through it, so a served report is byte-identical to
the command's output and a sweep row reads the very numbers ``repro
temporal`` prints, by construction.

:data:`PARAMS` declares each report parameter once, for every entry
point, :data:`SETTINGS` each setting of the service verbs and of the
daemon's parts, and :func:`check_param` is the one check of a value.

Everything imports the analysis stack when it runs, so importing this
module costs nothing: ``repro --help`` stays free of numpy.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple, Optional, Tuple

from .errors import ReproError

#: Report kinds: the daemon's job kinds.  ``diagnose`` and ``whatif``
#: are ``analyze`` with that section added.
REPORT_KINDS = ("analyze", "diagnose", "whatif", "temporal")

_ANALYZE, _TEMPORAL = ("analyze",), ("temporal",)


class Param(NamedTuple):
    """One report parameter or service setting.  A parameter's ``role``:
    ``result`` shapes the numbers or the outcome, ``read`` only how the
    trace is read, ``section`` only a section of text, ``observe`` only
    the run's own spans; a setting's: ``limit`` if ``None`` lifts it (in
    the library), else ``setting``.  Values lie in ``[low, high]``, or
    ``(low, high)`` if ``open``; daemon jobs take it if ``served``, up
    to ``served_high``."""

    type: type
    default: object
    help: str
    verbs: Tuple[str, ...] = _ANALYZE + _TEMPORAL
    role: str = "section"
    metavar: Optional[str] = None
    low: Optional[float] = None
    high: Optional[float] = None
    open: bool = False
    served: bool = False
    served_high: Optional[float] = None


#: Most windows a served temporal job may ask for: memory does not grow
#: with the count, but the per-window loop does, and one request must
#: not hold a daemon worker for long.  A local run holds only its own.
MAX_WINDOWS = 4096

#: The report parameters; the CLI flag is ``--`` and the dashed name.
PARAMS = {
    "index": Param(str, "euclidean", "index of dispersion", role="result",
                   served=True),
    "windows": Param(int, 16, "number of equal time windows", _TEMPORAL,
                     "result", low=1, served=True, served_high=MAX_WINDOWS),
    "patterns": Param(bool, False, "also print the per-activity pattern "
                      "figures", _ANALYZE),
    "lorenz": Param(str, None, "also print the Lorenz curve of one region",
                    _ANALYZE, metavar="REGION"),
    "diagnose": Param(bool, False, "also print the automated diagnosis",
                      _ANALYZE),
    "timeline": Param(bool, False, "also print the per-rank ASCII timeline",
                      _ANALYZE),
    "significance": Param(float, None, "also report the noise-calibrated "
                          "threshold for relative jitter EPS", _ANALYZE,
                          metavar="EPS", low=0, high=1, open=True),
    "export_chrome": Param(str, None, "also export the trace in Chrome "
                           "Trace Event Format (Perfetto)", _ANALYZE,
                           metavar="PATH"),
    "heatmap": Param(bool, False, "also print the heatmap of processor "
                     "shares (analyze) or of windows (temporal)"),
    "whatif": Param(bool, False, "also print the balancing what-if table",
                    _ANALYZE),
    "phases": Param(bool, False, "also print the change-point phase "
                    "segmentation", _TEMPORAL),
    "forecast": Param(float, None, "also forecast the window at which each "
                      "region's imbalance reaches LEVEL", _TEMPORAL,
                      metavar="LEVEL"),
    "strict": Param(bool, False, "refuse damaged trace files instead of "
                    "salvaging their valid prefix", role="result"),
    "drop_missing_ranks": Param(bool, False, "exclude ranks with no "
                                "recorded events (e.g. lost from a "
                                "salvaged trace)", _ANALYZE, "result"),
    "chunk_size": Param(int, 8192, "events per streamed chunk", role="read",
                        metavar="N", low=1),
    "jobs": Param(int, None, "fan the file out over J worker processes "
                  "(sharded map-reduce; default: sequential)", _ANALYZE,
                  "read", "J", low=1),
    "stream": Param(bool, False, "accepted for compatibility and changes "
                    "nothing: a trace is always read in bounded-memory "
                    "chunks", role="read"),
    "profile": Param(bool, False, "record pipeline spans and print the "
                     "per-stage timing table after the report",
                     role="observe"),
    "profile_out": Param(str, None, "write the recorded spans as a repro "
                         "trace file (implies --profile; analyze it with "
                         "`repro analyze` or `repro self`)", role="observe",
                         metavar="PATH"),
}

_SERVE, _CLIENT = ("serve",), ("submit", "fetch")
_HOST, _PORT = "127.0.0.1", 8765

#: The service settings: the options of the verbs they list (none for
#: a library-only one) and the keywords of the daemon's parts.
SETTINGS = {
    "host": Param(str, _HOST, "bind address", _SERVE, "setting"),
    "port": Param(int, _PORT, "bind port; 0 picks a free one", _SERVE,
                  "setting", low=0, high=65535),
    "workers": Param(int, 4, "analysis worker threads", _SERVE, "setting",
                     low=1),
    "max_body_bytes": Param(int, 1 << 28, "largest accepted request body; "
                            "bigger uploads get HTTP 413", _SERVE, "setting",
                            "N", low=1),
    "max_queue": Param(int, 64, "jobs in flight before load is shed with "
                       "HTTP 429", _SERVE, "limit", "N", low=1),
    "max_cache_bytes": Param(int, None, "report cache size cap; exceeding "
                             "it evicts least-recently-used reports "
                             "(default: unbounded)", _SERVE, "limit", "N",
                             low=1),
    "max_store_bytes": Param(int, None, "trace store size cap; exceeding "
                             "it evicts least-recently-analyzed traces "
                             "(default: unbounded)", _SERVE, "limit", "N",
                             low=1),
    "request_timeout": Param(float, 60.0, "per-connection socket timeout "
                             "guarding against slow-loris peers", _SERVE,
                             "limit", "SECONDS", low=0, open=True),
    "max_wait_seconds": Param(float, 600.0, "ceiling on any request's "
                              "blocking wait for a report", (), "setting",
                              low=0, open=True),
    "url": Param(str, f"http://{_HOST}:{_PORT}", "daemon base URL", _CLIENT,
                 "setting"),
    "retries": Param(int, 2, "extra attempts after a connection failure, "
                     "429 or 503; 0 disables retrying", _CLIENT, "setting",
                     low=0),
    "retry_max_wait": Param(float, 15.0, "ceiling on one retry backoff "
                            "sleep, also caps an honored Retry-After",
                            _CLIENT, "setting", "SECONDS", low=0),
    "retry_base_wait": Param(float, 0.25, "first retry backoff sleep, "
                             "doubled per attempt", (), "setting", low=0),
    "timeout": Param(float, 300.0, "socket timeout of each request to the "
                     "daemon", (), "limit", low=0, open=True),
}

_NOUNS = {int: "an integer", float: "a number", str: "a string",
          bool: "true or false"}


def param_names(kind: str, *roles: str, served: bool = False
                ) -> Tuple[str, ...]:
    """The parameters of report ``kind`` in declaration order: those of
    ``roles`` (default: all), and with ``served`` only the daemon's."""
    if kind not in REPORT_KINDS:
        raise ReproError(f"unknown report kind {kind!r}; known: "
                         + ", ".join(REPORT_KINDS))
    verb = "temporal" if kind == "temporal" else "analyze"
    return tuple(name for name, param in PARAMS.items()
                 if verb in param.verbs and (not roles or param.role in roles)
                 and (param.served or not served))


def check_param(name: str, value, spelling: Optional[str] = None, *,
                served: bool = False, table: Mapping[str, Param] = PARAMS):
    """``value``, if valid for ``table``'s entry ``name`` (with the
    daemon's bounds if ``served``; ``None`` where it is the default or
    lifts a limit), else a :class:`ReproError` naming it ``spelling``
    (default: ``name``)."""
    param, spelling = table[name], spelling or name
    if value is None and (param.default is None or param.role == "limit"):
        return value
    accepted = (int, float) if param.type is float else param.type
    if not isinstance(value, accepted) or (isinstance(value, bool)
                                           and param.type is not bool):
        raise ReproError(f"{spelling} must be {_NOUNS[param.type]}")
    if param.type is float and not math.isfinite(value):
        raise ReproError(f"{spelling} must be a finite number")
    low, high = param.low, (param.served_high if served and param.served_high
                            else param.high)
    if param.open and high is None:
        if not value > low:
            raise ReproError(f"{spelling} must be greater than {low:g}")
    elif param.open:
        if not low < value < high:
            raise ReproError(f"{spelling} must lie in ({low:g}, {high:g})")
    elif low is not None and value < low:
        raise ReproError(f"{spelling} must be at least {low:g}")
    elif high is not None and value > high:
        raise ReproError(f"{spelling} must be at most {high:g}")
    return value


def check_settings(**values) -> None:
    """Refuse the first of ``values`` (by setting name) that
    :data:`SETTINGS` refuses: a constructor's one check of its
    keywords."""
    for name, value in values.items():
        check_param(name, value, table=SETTINGS)


def resolve_params(kind: str, given: Mapping, *roles: str,
                   served: bool = False, only: bool = False) -> dict:
    """``given``'s values of ``param_names(kind, *roles, served=served)``,
    checked, absent ones at their defaults.  Other keys are ignored, or
    refused with ``only``; an unknown index of dispersion is refused."""
    names = param_names(kind, *roles, served=served)
    unknown = sorted(str(name) for name in given if name not in names)
    if only and unknown:
        raise ReproError(f"unknown parameter(s) for {kind}: "
                         + ", ".join(unknown))
    params = {name: check_param(name, given.get(name, PARAMS[name].default),
                                served=served)
              for name in names}
    if "index" in params:
        from .core.dispersion import get_index
        get_index(params["index"])
    return params


def build_report(kind: str, source, params: Mapping) -> Tuple[str, dict]:
    """Read, fold, analyse and render one trace file's report.

    ``kind`` is one of :data:`REPORT_KINDS`.  ``params`` holds its
    parameters (:func:`resolve_params`; ``vars()`` of a parsed command
    line, or the daemon's job parameters).  Returns the text the command
    prints, without its final newline, and the JSON document the daemon
    serves.
    """
    params = resolve_params(kind, params)
    from .instrument.stream import (FoldedTrace, accumulate_trace,
                                    trace_windows)
    read = {"chunk_size": params["chunk_size"],
            "on_error": "raise" if params["strict"] else "salvage"}
    # Each stage imports its analysis after the read, so the modules do
    # not add to the read's memory peak.
    if kind == "temporal":
        from .obs import spans as obspans
        with obspans.span("temporal_fold", activity="window",
                          trace=str(source)):
            windows, scout = trace_windows(str(source), params["windows"],
                                           **read)
            n_events, elapsed = scout.n_events, scout.elapsed
            del scout    # the fold's tensor must not outlive the read
        from .core.temporal import temporal_analysis
        # Each window is built as the analysis asks for it, then dropped,
        # each in its own `window_bin` span.
        with obspans.span("temporal_trends", activity="computation",
                          trace=str(source)):
            analysis = temporal_analysis(windows, index=params["index"])
        text = render_temporal_report(windows, n_events, analysis=analysis,
                                      **params)
        return text, _temporal_document(analysis, n_events, elapsed)
    fold = accumulate_trace(source, jobs=params["jobs"], **read)
    trace = (FoldedTrace(source, fold, **read)
             if params["timeline"] or params["export_chrome"] else None)
    measurements = fold.finalize()
    del fold         # finalize copied the tensor; keep one alive
    from .core import AnalysisSession
    from .core.report import report_to_dict
    sections = []
    if params["drop_missing_ranks"]:
        missing = measurements.missing_processors()
        if missing:
            sections.append("dropping rank(s) with no recorded events: "
                            + ", ".join(str(p) for p in missing))
            measurements = measurements.without_missing_processors()
    session = AnalysisSession(measurements)
    if kind != "analyze":
        params[kind] = True
    sections.append(render_analyze_report(measurements, trace=trace,
                                          session=session, **params))
    return ("\n\n".join(sections),
            report_to_dict(session.analyze(index=params["index"])))


def _temporal_document(analysis, n_events: int, elapsed: float) -> dict:
    """The daemon's structured temporal report, as the sweep caches it;
    ``elapsed`` is the latest event end, the traced wall clock."""
    trends = {trend.region: {
        "slope": trend.slope, "mean": trend.mean, "final": trend.final,
        "amplification": (None if trend.amplification == float("inf")
                          else trend.amplification),
        "series": [float(value) for value in trend.series]}
        for trend in analysis.trends}
    return {"schema": "repro-temporal/1", "n_windows": analysis.n_windows,
            "n_events": n_events, "elapsed": float(elapsed),
            "drifting": list(analysis.drifting_regions()), "trends": trends}


def render_analyze_report(measurements, *, trace=None, session=None,
                          **params) -> str:
    """The exact text ``repro analyze`` prints for these ``analyze``
    parameters (:func:`resolve_params`: absent ones at their defaults).

    ``trace`` holds the events behind ``timeline`` and
    ``export_chrome`` (a :class:`~repro.instrument.Tracer` or a
    :class:`~repro.instrument.stream.FoldedTrace`).  Passing an
    existing :class:`~repro.core.AnalysisSession` reuses its cached
    matrices; by default a fresh one backs every section.
    """
    from .core import AnalysisSession
    params = resolve_params("analyze", params, only=True)
    index, significance = params["index"], params["significance"]
    if session is None:
        session = AnalysisSession(measurements)
    analysis = session.analyze(index=index)
    sections = [session.report(index=index)]
    if params["patterns"]:
        from .viz import render_pattern_grid
        sections.extend(render_pattern_grid(grid)
                        for grid in analysis.patterns)
    if params["lorenz"]:
        from .viz.lorenz import render_region_lorenz
        sections.append(render_region_lorenz(measurements, params["lorenz"]))
    if params["diagnose"]:
        from .core import render_diagnosis
        sections.append(render_diagnosis(session.diagnosis(index=index)))
    if params["timeline"]:
        from .viz import render_timeline
        sections.append(render_timeline(trace))
    if params["export_chrome"]:
        from .instrument import export_chrome_trace
        count = export_chrome_trace(params["export_chrome"], trace)
        sections.append(f"exported {count} events to {params['export_chrome']}")
    if params["heatmap"]:
        from .viz import render_heatmap
        sections.append(render_heatmap(measurements))
    if params["whatif"]:
        from .core import balance_predictions, render_predictions
        sections.append(render_predictions(
            balance_predictions(measurements)))
    if significance is not None:
        from .core import noise_quantile
        threshold = noise_quantile(measurements.n_processors,
                                   epsilon=significance)
        import numpy as np
        significant = int((np.nan_to_num(analysis.activity_view.dispersion)
                           > threshold).sum())
        sections.append(
            f"noise-calibrated threshold (eps="
            f"{significance:g}, q=0.95): {threshold:.5f}; "
            f"{significant} (region, activity) pairs exceed it")
    return "\n\n".join(sections)


def _format_level(value: float) -> str:
    if value == float("inf"):
        return "never"
    return f"{value:.4g}"


def render_temporal_report(windows, n_events: int, /, *, analysis=None,
                           **params) -> str:
    """The exact text ``repro temporal`` prints for these ``temporal``
    parameters (:func:`resolve_params`: absent ones at their defaults).

    ``windows`` is the per-window profiles, ``n_events`` the event
    count the header reports; a given ``analysis`` (their
    ``TemporalAnalysis`` under ``index``) is reused and ``windows`` is
    not read.  The header's span is the analysis's: from the first
    window's start to the last one's end.
    """
    from .core.temporal import temporal_analysis
    from .viz import format_table, render_sparkline, render_temporal_heatmap
    params = resolve_params("temporal", params, only=True)
    index, forecast = params["index"], params["forecast"]
    if analysis is None:
        analysis = temporal_analysis(windows, index=index)
    drifting = set(analysis.drifting_regions())

    span = analysis.end - analysis.begin
    sections = [f"time-resolved analysis: {analysis.n_windows} windows "
                f"over {span:.4g} s ({n_events} events, index {index})"]
    rows = []
    for trend in analysis.trends:
        rows.append([
            trend.region,
            render_sparkline(trend.series),
            f"{trend.slope:+.4g}",
            f"{trend.mean:.4g}",
            f"{trend.final:.4g}",
            f"{trend.amplification:.4g}",
            "DRIFTING" if trend.region in drifting else "",
        ])
    sections.append(format_table(
        ["region", "per-window ID", "slope/win", "mean", "final",
         "amplif.", "verdict"],
        rows, title="Region imbalance over time"))
    if analysis.activity_trends:
        sections.append(format_table(
            ["activity", "per-window ID", "slope/win", "mean", "final"],
            [[trend.activity, render_sparkline(trend.series),
              f"{trend.slope:+.4g}", f"{trend.mean:.4g}",
              f"{trend.final:.4g}"]
             for trend in analysis.activity_trends],
            title="Activity imbalance over time"))
    if params["phases"]:
        segments = analysis.phases()
        sections.append("\n".join(
            [f"phases (overall imbalance level, "
             f"{len(segments)} segment(s)):"]
            + [f"  windows {phase.begin:>3d}..{phase.end - 1:<3d} "
               f"level {phase.mean:.4g}" for phase in segments]))
    if forecast is not None:
        sections.append("\n".join(
            [f"forecast: window at which each region reaches "
             f"ID {forecast:g}"]
            + [f"  {region}: {_format_level(crossing)}"
               for region, crossing
               in analysis.forecast(forecast).items()]))
    if params["heatmap"]:
        sections.append(render_temporal_heatmap(
            {trend.region: trend.series for trend in analysis.trends}))
    return "\n\n".join(sections)
