"""The report renderers shared by the CLI and the analysis daemon.

:func:`render_analyze_report` and :func:`render_temporal_report` build
the exact text ``repro analyze`` and ``repro temporal`` print.  The
daemon's jobs (:mod:`repro.serve.jobs`) and ``repro self``
(:mod:`repro.obs.selftrace`) call the same functions, so a served
report is byte-identical to the command's output by construction.

The renderers import the analysis stack when they run, so importing
this module costs nothing: ``repro --help`` stays free of numpy.
"""

from __future__ import annotations

from typing import Optional


def render_analyze_report(measurements, *, index: str = "euclidean",
                          patterns: bool = False,
                          lorenz: Optional[str] = None,
                          diagnose: bool = False,
                          heatmap: bool = False, whatif: bool = False,
                          significance: Optional[float] = None,
                          tracer=None, timeline: bool = False,
                          export_chrome: Optional[str] = None,
                          session=None) -> str:
    """The exact text ``repro analyze`` prints for this flag set.

    Shared between the CLI command and the analysis service daemon
    (:mod:`repro.serve`), so a report fetched over HTTP is
    byte-identical to the corresponding command's output by
    construction.  ``tracer`` is only needed for the flags that require
    the full event list (``timeline``, ``export_chrome``).  Passing an
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
        sections.append(render_timeline(tracer))
    if export_chrome:
        from .instrument import export_chrome_trace
        count = export_chrome_trace(export_chrome, tracer)
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

    Shared between the CLI command and the analysis service daemon
    (:mod:`repro.serve`): ``windows`` is the per-window profile list
    (from :func:`~repro.instrument.window_profiles` or the streaming
    binner), ``n_events`` the event count the header reports; a given
    ``analysis`` (their ``TemporalAnalysis`` under ``index``) is reused.
    """
    from .core.temporal import temporal_analysis
    from .viz import format_table, render_sparkline, render_temporal_heatmap
    if analysis is None:
        analysis = temporal_analysis(windows, index=index)
    drifting = set(analysis.drifting_regions())

    span = windows[-1].end - windows[0].begin
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
