"""Parallel time-resolved sweeps over fleets of traces.

The ROADMAP's north star is fast analysis over many traces at once;
this module fans the time-resolved analysis (:mod:`repro.core.temporal`)
out over every trace in a directory:

* :func:`sweep_traces` — multiprocessing fan-out, one worker per trace,
  each producing a compact :class:`TraceSummary` (trends, drifting
  regions, phase boundaries, threshold forecasts);
* an **on-disk, content-keyed result cache** — the key hashes the trace
  file's bytes together with the analysis parameters and the cache
  format version, so re-running a sweep after adding one trace
  recomputes exactly that trace, and a file edited in place never
  serves a stale summary;
* a failure is data, not an abort: a trace that cannot be analyzed
  (unreadable, spans no time, no annotated regions) yields a summary
  with its ``error`` set and the sweep continues.

Drives ``repro temporal --sweep DIR``.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from .cache import ReportCache, content_key
from .errors import ReproError
from .obs import spans as obspans
from .pool import map_tasks

#: Bump when the summary schema or analysis semantics change; part of
#: the cache key, so stale entries are never served.
CACHE_FORMAT = 1

#: Trace file suffixes a directory sweep picks up.
TRACE_SUFFIXES = (".jsonl", ".jsonl.gz", ".rptb")


@dataclass(frozen=True)
class SweepConfig:
    """Parameters of a time-resolved sweep (part of the cache key)."""

    n_windows: int = 16
    index: str = "euclidean"
    slope_threshold: float = 0.0
    amplification_threshold: float = 1.5
    #: Threshold whose crossing window is forecast per region (None
    #: disables forecasting).
    forecast_threshold: Optional[float] = None


@dataclass(frozen=True)
class RegionSummary:
    """One region's trend, flattened for JSON round-tripping."""

    region: str
    slope: float
    mean: float
    final: float
    amplification: float
    #: Forecast crossing window (None when forecasting is disabled;
    #: inf serializes as the string "inf").
    forecast_window: Optional[float] = None


@dataclass(frozen=True)
class TraceSummary:
    """Compact result of one trace's time-resolved analysis."""

    path: str
    key: str
    error: Optional[str] = None
    n_windows: int = 0
    n_events: int = 0
    elapsed: float = 0.0
    regions: Tuple[RegionSummary, ...] = ()
    drifting: Tuple[str, ...] = ()
    #: Window indices at which the overall imbalance level changes.
    phase_boundaries: Tuple[int, ...] = ()
    #: True when the summary came from the on-disk cache.
    cached: bool = field(default=False, compare=False)

    @property
    def ok(self) -> bool:
        return self.error is None


def _encode(value):
    if isinstance(value, float) and value == float("inf"):
        return "inf"
    return value


def summary_to_json(summary: TraceSummary) -> str:
    payload = asdict(summary)
    payload.pop("cached")
    for region in payload["regions"]:
        region["amplification"] = _encode(region["amplification"])
        region["forecast_window"] = _encode(region["forecast_window"])
    return json.dumps(payload, sort_keys=True)


def summary_from_json(text: str) -> TraceSummary:
    payload = json.loads(text)
    regions = tuple(
        RegionSummary(
            region=entry["region"], slope=entry["slope"],
            mean=entry["mean"], final=entry["final"],
            amplification=float(entry["amplification"]),
            forecast_window=(None if entry["forecast_window"] is None
                             else float(entry["forecast_window"])))
        for entry in payload["regions"])
    return TraceSummary(
        path=payload["path"], key=payload["key"], error=payload["error"],
        n_windows=payload["n_windows"], n_events=payload["n_events"],
        elapsed=payload["elapsed"], regions=regions,
        drifting=tuple(payload["drifting"]),
        phase_boundaries=tuple(payload["phase_boundaries"]))


def trace_key(path: Union[str, Path], config: SweepConfig) -> str:
    """Content key of one (trace file, analysis parameters) pair."""
    return content_key("repro-temporal-sweep", CACHE_FORMAT,
                       asdict(config), path=path)


def discover_traces(directory: Union[str, Path]) -> List[Path]:
    """Trace files under ``directory`` (sorted, non-recursive)."""
    root = Path(directory)
    if not root.is_dir():
        raise ReproError(f"sweep directory {root} does not exist")
    found = sorted(
        entry for entry in root.iterdir()
        if entry.is_file() and entry.name.endswith(TRACE_SUFFIXES))
    if not found:
        raise ReproError(
            f"no trace files ({', '.join(TRACE_SUFFIXES)}) in {root}")
    return found


def analyze_trace(path: Union[str, Path], config: SweepConfig,
                  key: Optional[str] = None) -> TraceSummary:
    """Time-resolved analysis of one trace, as a flat summary.

    Never raises for per-trace analysis problems: any
    :class:`ReproError` is recorded on the summary's ``error`` field so
    a sweep over a fleet survives individual damaged traces.
    """
    from .core.temporal import detect_phases, temporal_analysis
    from .instrument.stream import trace_windows
    if key is None:
        key = trace_key(path, config)
    try:
        with obspans.span("sweep_window", activity="window",
                          trace=str(path)):
            windows, scout = trace_windows(str(path), config.n_windows)
            n_events, elapsed = scout.n_events, scout.elapsed
            del scout
        # Each window is binned in its own `window_bin` span as the
        # analysis asks for it.
        with obspans.span("sweep_trends", activity="computation",
                          trace=str(path)):
            analysis = temporal_analysis(windows, index=config.index)
    except ReproError as error:
        return TraceSummary(path=str(path), key=key, error=str(error))
    regions = tuple(
        RegionSummary(
            region=trend.region, slope=trend.slope, mean=trend.mean,
            final=trend.final, amplification=trend.amplification,
            forecast_window=(
                trend.forecast_window(config.forecast_threshold)
                if config.forecast_threshold is not None else None))
        for trend in analysis.trends)
    phases = detect_phases(analysis.overall_series())
    return TraceSummary(
        path=str(path), key=key, error=None,
        n_windows=analysis.n_windows, n_events=n_events,
        elapsed=elapsed, regions=regions,
        drifting=analysis.drifting_regions(
            config.slope_threshold, config.amplification_threshold),
        phase_boundaries=tuple(phase.begin for phase in phases[1:]))


def _worker(task) -> TraceSummary:
    path, config, key = task
    # Sweep workers are process slots: labelling by pid makes each pool
    # process one rank of the self-trace, so `--profile` on a sweep
    # shows whether the fleet's traces were spread evenly.
    with obspans.worker_scope(f"pid-{os.getpid()}"):
        return analyze_trace(path, config, key=key)


def _load_cached(cache: ReportCache, key: str) -> Optional[TraceSummary]:
    text = cache.get(key)
    if text is None:
        return None
    try:
        summary = summary_from_json(text)
    except (ValueError, KeyError):
        return None    # corrupt entry: recompute
    return replace(summary, cached=True)


def _store_cached(cache: ReportCache, summary: TraceSummary) -> None:
    cache.put(summary.key, summary_to_json(summary))


def sweep_traces(traces: Union[str, Path, Sequence[Union[str, Path]]],
                 config: Optional[SweepConfig] = None,
                 jobs: Optional[int] = None,
                 cache_dir: Optional[Union[str, Path]] = None,
                 use_cache: bool = True) -> List[TraceSummary]:
    """Analyze a fleet of traces concurrently.

    ``traces`` is a directory (every trace file in it) or an explicit
    sequence of paths.  Results come back in input order.  ``jobs``
    caps the worker processes (default: one per CPU, never more than
    the number of uncached traces; 1 runs inline).  ``cache_dir``
    defaults to ``<directory>/.repro-temporal-cache`` for directory
    sweeps and to ``.repro-temporal-cache`` next to the first trace
    otherwise; ``use_cache=False`` neither reads nor writes it.  An
    unknown index of dispersion raises before any trace is read.
    """
    from .core.dispersion import get_index
    config = config or SweepConfig()
    get_index(config.index)
    if isinstance(traces, (str, Path)) :
        paths = discover_traces(traces)
        default_cache = Path(traces) / ".repro-temporal-cache"
    else:
        paths = [Path(p) for p in traces]
        if not paths:
            raise ReproError("no traces to sweep")
        default_cache = paths[0].parent / ".repro-temporal-cache"
    for path in paths:
        if not path.is_file():
            raise ReproError(f"trace file {path} does not exist")
    cache = ReportCache(cache_dir if cache_dir is not None
                        else default_cache)

    with obspans.span("sweep_cache_probe", activity="cache",
                      traces=len(paths)):
        keys = [trace_key(path, config) for path in paths]
        results: List[Optional[TraceSummary]] = [None] * len(paths)
        pending = []
        for position, (path, key) in enumerate(zip(paths, keys)):
            cached = _load_cached(cache, key) if use_cache else None
            if cached is not None:
                results[position] = cached
            else:
                pending.append((position, (str(path), config, key)))

    fresh = map_tasks(_worker, [task for _, task in pending], jobs,
                      "sweep_fanout")
    for (position, _), summary in zip(pending, fresh):
        results[position] = summary
        if use_cache:
            _store_cached(cache, summary)
    return [summary for summary in results if summary is not None]


def render_sweep_table(summaries: Sequence[TraceSummary]) -> str:
    """One row per trace: windows, drift verdict, phases."""
    from .viz import format_table
    rows = []
    for summary in summaries:
        name = Path(summary.path).name
        if not summary.ok:
            rows.append([name, "-", "-", "-",
                         f"error: {summary.error}", ""])
            continue
        worst = max(summary.regions, key=lambda r: r.slope, default=None)
        rows.append([
            name,
            str(summary.n_windows),
            f"{summary.elapsed:.4g}",
            ", ".join(summary.drifting) or "-",
            f"{worst.region} ({worst.slope:+.4g}/win)" if worst else "-",
            ("@" + ",".join(str(b) for b in summary.phase_boundaries)
             if summary.phase_boundaries else "-")
            + (" [cached]" if summary.cached else ""),
        ])
    return format_table(
        ["trace", "windows", "elapsed", "drifting regions",
         "steepest trend", "phase breaks"],
        rows,
        title=f"Time-resolved sweep over {len(summaries)} trace(s)")
