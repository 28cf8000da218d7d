"""One report pipeline: from a trace file to a document and its text.

:func:`build_report` reads, folds and analyses a trace into one
document per report kind and parameters, and :func:`render` turns a
document, and nothing else, into the exact text ``repro analyze`` or
``repro temporal`` prints.  The CLI, the daemon's jobs, ``repro self``,
``repro testbed show`` and the workers of ``repro temporal --sweep``
(which cache the temporal document) all go through it, so a served
report is byte-identical to the command's output and a sweep row reads
the very numbers ``repro temporal`` prints, by construction.

:data:`PARAMS` declares each report parameter once, for every entry
point, :data:`SETTINGS` each setting of the service verbs and of the
daemon's parts, and :func:`check_param` is the one check of a value.

A document is strict JSON (:func:`strict_json`): a number JSON has no
literal for is the string :data:`NON_FINITE` names (``"NaN"``,
``"Infinity"``, ``"-Infinity"``), which ``float()`` reads back, so nan,
+inf and -inf stay distinct.

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

#: The schema of a temporal document; an analyze document's is
#: ``repro-report/2`` (:func:`repro.core.report.report_to_dict`).
TEMPORAL_SCHEMA = "repro-temporal/2"


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


#: The string a document holds for each non-finite number, by ``str()``.
NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def strict_json(value):
    """``value`` as ``json.dumps(..., allow_nan=False)`` accepts it: each
    non-finite number its :data:`NON_FINITE` string (a walk; a round trip
    through JSON text left the daemon's peak 1.5 MB higher)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else NON_FINITE[str(value)]
    if isinstance(value, dict):
        return {key: strict_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [strict_json(item) for item in value]
    return value


def build_report(kind: str, source, params: Mapping,
                 appendix: Optional[list] = None) -> dict:
    """Read, fold and analyse one trace file into the document the
    daemon serves for report ``kind`` (:data:`REPORT_KINDS`) and
    ``params`` (:func:`resolve_params`; ``vars()`` of a parsed command
    line, or a job's parameters).  A given ``appendix`` receives the
    sections that read the trace, not the result (``timeline``,
    ``export_chrome``), which the CLI prints after :func:`render`'s
    text."""
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
            windows, layout = trace_windows(str(source), params["windows"],
                                            **read)
        from .core.temporal import temporal_analysis
        # Each window is built as the analysis asks for it, then dropped,
        # each in its own `window_bin` span.
        with obspans.span("temporal_trends", activity="computation",
                          trace=str(source)):
            analysis = temporal_analysis(windows, index=params["index"])
        return temporal_document(analysis, layout.n_events, layout.elapsed,
                                 **params)
    fold = accumulate_trace(source, jobs=params["jobs"], **read)
    trace = FoldedTrace(source, fold, **read)
    measurements = fold.finalize()
    del fold         # finalize copied the tensor; keep one alive
    if kind != "analyze":
        params[kind] = True
    document = analyze_document(measurements, **params)
    if appendix is not None and params["timeline"]:
        from .viz import render_timeline
        appendix.append(render_timeline(trace))
    if appendix is not None and params["export_chrome"]:
        from .instrument import export_chrome_trace
        count = export_chrome_trace(params["export_chrome"], trace)
        appendix.append(f"exported {count} events to "
                        f"{params['export_chrome']}")
    return document


def render(document: Mapping) -> str:
    """The text of a report document (:func:`build_report`), without its
    final newline: a function of the document alone."""
    from .obs import spans as obspans
    with obspans.span("render_report", activity="render"):
        if document["schema"] == TEMPORAL_SCHEMA:
            return render_temporal_report(document)
        return render_analyze_report(document)


def _floats(values) -> list:
    return [float(value) for value in values]


def _ordered(names, section: Mapping) -> dict:
    """``section`` in the order of ``names`` (JSON may sort its keys)."""
    return {name: section[name] for name in names if name in section}


def analyze_document(measurements, *, session=None, **params) -> dict:
    """The document of ``repro analyze`` over a measurement set with
    these parameters (:func:`resolve_params`): ``report_to_dict`` of
    its analysis plus the sections they add.  A given
    :class:`~repro.core.AnalysisSession` of ``measurements`` lends its
    cached matrices."""
    from dataclasses import asdict

    from .core import AnalysisSession
    from .core.report import report_to_dict
    params = resolve_params("analyze", params, only=True)
    index, significance = params["index"], params["significance"]
    dropped = (measurements.missing_processors()
               if params["drop_missing_ranks"] else ())
    if dropped:
        measurements, session = measurements.without_missing_processors(), None
    if session is None:
        session = AnalysisSession(measurements)
    analysis = session.analyze(index=index)
    document, sections = report_to_dict(analysis), {}
    if dropped:
        sections["dropped_ranks"] = [int(rank) for rank in dropped]
    if params["patterns"]:
        from .viz.ascii_patterns import pattern_rows
        sections["patterns"] = {grid.activity: pattern_rows(grid)
                                for grid in analysis.patterns}
    if params["lorenz"]:
        times = measurements.processor_region_times()[
            measurements.region_index(params["lorenz"])]
        sections["lorenz"] = {"region": params["lorenz"],
                              "processor_times": times.tolist()}
    if params["diagnose"]:
        sections["diagnosis"] = [asdict(finding) for finding
                                 in session.diagnosis(index=index)]
    if params["heatmap"]:
        from .viz.heatmap import share_rows
        sections["heatmap"] = share_rows(measurements)
    if params["whatif"]:
        from .core import balance_predictions
        sections["whatif"] = [asdict(prediction) for prediction
                              in balance_predictions(measurements)]
    if significance is not None:
        from .core import noise_quantile
        threshold = noise_quantile(measurements.n_processors,
                                   epsilon=significance)
        sections["significance"] = {
            "epsilon": significance, "quantile": 0.95,
            "threshold": threshold, "count": sum(  # a nan cell exceeds none
                float(cell) > threshold for row in document["dispersion"]
                .values() for cell in row.values())}
    document.update(strict_json(sections))
    return document


def render_analyze_report(document, /, *, session=None, **params) -> str:
    """The exact text ``repro analyze`` prints: each section of an
    :func:`analyze_document`.  A measurement set in its place (the
    benchmark suite's call) is built into one first."""
    if not isinstance(document, Mapping):
        document = analyze_document(document, session=session, **params)
    from .core import report
    program = document["program"]
    dropped = document.get("dropped_ranks")
    sections = ["dropping rank(s) with no recorded events: "
                + ", ".join(map(str, dropped))] if dropped else []
    sections += [part(document) for part in (
        report.render_breakdown_table, report.render_dispersion_table,
        report.render_activity_view_table, report.render_region_view_table,
        report.render_summary)]
    if "patterns" in document:
        from .viz.ascii_patterns import render_pattern_rows
        sections += [render_pattern_rows(activity, _ordered(
            program["regions"], rows)) for activity, rows
            in _ordered(program["activities"], document["patterns"]).items()]
    if "lorenz" in document:
        from .viz.lorenz import render_lorenz
        times = _floats(document["lorenz"]["processor_times"])
        sections.append(render_lorenz(times, label=(
            f"Lorenz curve — {document['lorenz']['region']} "
            f"(P = {len(times)})")))
    if "diagnosis" in document:
        from .core.diagnosis import Finding, render_diagnosis
        sections.append(render_diagnosis(
            [Finding(**finding) for finding in document["diagnosis"]]))
    if "heatmap" in document:
        from .viz.heatmap import render_shares
        sections.append(render_shares(_ordered(
            program["regions"], document["heatmap"]), program["n_processors"]))
    if "whatif" in document:
        from .core.whatif import BalancePrediction, render_predictions
        sections.append(render_predictions(
            [BalancePrediction(**entry) for entry in document["whatif"]]))
    if "significance" in document:
        test = document["significance"]
        sections.append(
            f"noise-calibrated threshold (eps={test['epsilon']:g}, "
            f"q={test['quantile']:g}): {test['threshold']:.5f}; "
            f"{test['count']} (region, activity) pairs exceed it")
    return "\n\n".join(sections)


def temporal_document(analysis, n_events: int, elapsed: float,
                      **params) -> dict:
    """The document of ``repro temporal`` over a ``TemporalAnalysis``
    with these parameters (:func:`resolve_params`); ``elapsed`` is the
    latest event end, the traced wall clock."""
    params = resolve_params("temporal", params, only=True)
    regions = [trend.region for trend in analysis.trends]
    activities = [trend.activity for trend in analysis.activity_trends]

    def trends(names, items) -> dict:
        return {name: {field: getattr(trend, field) for field in (
            "series", "slope", "intercept", "mean", "final", "amplification")}
            for name, trend in zip(names, items)}

    document = {
        "schema": TEMPORAL_SCHEMA, "index": params["index"],
        "n_windows": analysis.n_windows, "n_events": n_events,
        "elapsed": float(elapsed), "begin": analysis.begin,
        "end": analysis.end, "regions": regions, "activities": activities,
        "drifting": analysis.drifting_regions(), "heatmap": params["heatmap"],
        "trends": trends(regions, analysis.trends),
        "activity_trends": trends(activities, analysis.activity_trends)}
    if params["phases"]:
        from dataclasses import asdict
        document["phases"] = [asdict(phase) for phase in analysis.phases()]
    if params["forecast"] is not None:
        document["forecast"] = {
            "level": params["forecast"],
            "crossings": analysis.forecast(params["forecast"])}
    return strict_json(document)


def render_temporal_report(document, n_events: Optional[int] = None, /,
                           **params) -> str:
    """The exact text ``repro temporal`` prints: each section of a
    :func:`temporal_document`.  Per-window profiles and their event
    count in its place (the benchmark suite's call) are analysed into
    one first, ``elapsed`` taken as the last window's end."""
    from .viz import format_table, render_sparkline, render_temporal_heatmap
    if not isinstance(document, Mapping):
        from .core.temporal import temporal_analysis
        analysis = temporal_analysis(document, index=params.get(
            "index", PARAMS["index"].default))
        document = temporal_document(analysis, n_events, analysis.end,
                                     **params)
    regions, drifting = document["regions"], set(document["drifting"])
    series = {region: _floats(document["trends"][region]["series"])
              for region in regions}
    span = float(document["end"]) - float(document["begin"])
    sections = [f"time-resolved analysis: {document['n_windows']} windows "
                f"over {span:.4g} s ({document['n_events']} events, "
                f"index {document['index']})"]

    def rows(key: str, names, *fields: str) -> list:
        trends = document[key]
        return [[name, render_sparkline(_floats(trends[name]["series"]))]
                + [format(float(trends[name][field]),
                          "+.4g" if field == "slope" else ".4g")
                   for field in fields] for name in names]

    sections.append(format_table(
        ["region", "per-window ID", "slope/win", "mean", "final",
         "amplif.", "verdict"],
        [row + ["DRIFTING" if row[0] in drifting else ""] for row in rows(
            "trends", regions, "slope", "mean", "final", "amplification")],
        title="Region imbalance over time"))
    if document["activities"]:
        sections.append(format_table(
            ["activity", "per-window ID", "slope/win", "mean", "final"],
            rows("activity_trends", document["activities"], "slope", "mean",
                 "final"), title="Activity imbalance over time"))
    if "phases" in document:
        sections.append("\n".join(
            [f"phases (overall imbalance level, "
             f"{len(document['phases'])} segment(s)):"]
            + [f"  windows {phase['begin']:>3d}..{phase['end'] - 1:<3d} "
               f"level {float(phase['mean']):.4g}"
               for phase in document["phases"]]))
    if "forecast" in document:
        crossings = _floats(_ordered(
            regions, document["forecast"]["crossings"]).values())
        sections.append("\n".join(
            [f"forecast: window at which each region reaches "
             f"ID {document['forecast']['level']:g}"]
            + [f"  {region}: " + ("never" if crossing == float("inf")
                                  else f"{crossing:.4g}")
               for region, crossing in zip(regions, crossings)]))
    if document["heatmap"]:
        sections.append(render_temporal_heatmap(series))
    return "\n\n".join(sections)
