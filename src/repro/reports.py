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

Everything imports the analysis stack when it runs, so importing this
module costs nothing: ``repro --help`` stays free of numpy.
"""

from __future__ import annotations

from typing import Mapping, Optional, Tuple

from .errors import ReproError

#: Report kinds: the daemon's job kinds.  ``diagnose`` and ``whatif``
#: are ``analyze`` with that section added.
REPORT_KINDS = ("analyze", "diagnose", "whatif", "temporal")

#: Each renderer's flags, under their command-line names.
_FLAGS = {"analyze": ("index", "patterns", "lorenz", "diagnose", "heatmap",
                      "whatif", "significance", "timeline", "export_chrome"),
          "temporal": ("index", "phases", "forecast", "heatmap")}


def build_report(kind: str, source, params: Mapping) -> Tuple[str, dict]:
    """Read, fold, analyse and render one trace file's report.

    ``kind`` is one of :data:`REPORT_KINDS`.  ``params`` holds the
    options under their ``repro analyze``/``temporal`` flag names
    (``vars()`` of a parsed command line, or the daemon's job
    parameters); an absent flag is off.  Returns the text the command
    prints, without its final newline, and the JSON document the daemon
    serves.
    """
    if kind not in REPORT_KINDS:
        raise ReproError(f"unknown report kind {kind!r}")
    from .core.dispersion import get_index
    from .instrument.stream import (DEFAULT_CHUNK_SIZE, FoldedTrace,
                                    accumulate_trace, trace_windows)
    verb = "temporal" if kind == "temporal" else "analyze"
    flags = {name: params[name] for name in _FLAGS[verb] if name in params}
    index = flags.setdefault("index", "euclidean")
    get_index(index)     # an unknown index fails before the read
    read = {"chunk_size": params.get("chunk_size", DEFAULT_CHUNK_SIZE),
            "on_error": "raise" if params.get("strict") else "salvage"}
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
            analysis = temporal_analysis(windows, index=index)
        text = render_temporal_report(windows, n_events, analysis=analysis,
                                      **flags)
        return text, _temporal_document(analysis, n_events, elapsed)
    fold = accumulate_trace(source, jobs=params.get("jobs"), **read)
    if flags.get("timeline") or flags.get("export_chrome"):
        flags["trace"] = FoldedTrace(source, fold, **read)
    measurements = fold.finalize()
    del fold         # finalize copied the tensor; keep one alive
    from .core import AnalysisSession
    from .core.report import report_to_dict
    sections = []
    if params.get("drop_missing_ranks"):
        missing = measurements.missing_processors()
        if missing:
            sections.append("dropping rank(s) with no recorded events: "
                            + ", ".join(str(p) for p in missing))
            measurements = measurements.without_missing_processors()
    session = AnalysisSession(measurements)
    if kind != "analyze":
        flags[kind] = True
    sections.append(render_analyze_report(measurements, session=session,
                                          **flags))
    return ("\n\n".join(sections),
            report_to_dict(session.analyze(index=index)))


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


def render_analyze_report(measurements, *, index: str = "euclidean",
                          patterns: bool = False,
                          lorenz: Optional[str] = None,
                          diagnose: bool = False,
                          heatmap: bool = False, whatif: bool = False,
                          significance: Optional[float] = None,
                          timeline: bool = False,
                          export_chrome: Optional[str] = None,
                          trace=None, session=None) -> str:
    """The exact text ``repro analyze`` prints for this flag set.

    ``trace`` holds the events behind ``timeline`` and
    ``export_chrome`` (a :class:`~repro.instrument.Tracer` or a
    :class:`~repro.instrument.stream.FoldedTrace`).  Passing an
    existing :class:`~repro.core.AnalysisSession` reuses its cached
    matrices; by default a fresh one backs every section.
    """
    from .core import AnalysisSession
    if session is None:
        session = AnalysisSession(measurements)
    analysis = session.analyze(index=index)
    sections = [session.report(index=index)]
    if patterns:
        from .viz import render_pattern_grid
        sections.extend(render_pattern_grid(grid)
                        for grid in analysis.patterns)
    if lorenz:
        from .viz.lorenz import render_region_lorenz
        sections.append(render_region_lorenz(measurements, lorenz))
    if diagnose:
        from .core import render_diagnosis
        sections.append(render_diagnosis(session.diagnosis(index=index)))
    if timeline:
        from .viz import render_timeline
        sections.append(render_timeline(trace))
    if export_chrome:
        from .instrument import export_chrome_trace
        count = export_chrome_trace(export_chrome, trace)
        sections.append(f"exported {count} events to {export_chrome}")
    if heatmap:
        from .viz import render_heatmap
        sections.append(render_heatmap(measurements))
    if whatif:
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


def render_temporal_report(windows, n_events: int, *,
                           index: str = "euclidean",
                           phases: bool = False,
                           forecast: Optional[float] = None,
                           heatmap: bool = False, analysis=None) -> str:
    """The exact text ``repro temporal`` prints for this flag set.

    ``windows`` is the per-window profiles, ``n_events`` the event
    count the header reports; a given ``analysis`` (their
    ``TemporalAnalysis`` under ``index``) is reused and ``windows`` is
    not read.  The header's span is the analysis's: from the first
    window's start to the last one's end.
    """
    from .core.temporal import temporal_analysis
    from .viz import format_table, render_sparkline, render_temporal_heatmap
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
    if phases:
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
    if heatmap:
        sections.append(render_temporal_heatmap(
            {trend.region: trend.series for trend in analysis.trends}))
    return "\n\n".join(sections)
