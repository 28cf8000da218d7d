"""Time-resolved analysis of every trace in a fleet, in parallel.

``repro temporal --sweep DIR`` runs the single-trace temporal report
(:func:`repro.reports.build_report`, kind ``temporal``) over every
trace in a directory and prints one table row per trace:

* :func:`sweep_traces` — multiprocessing fan-out, one worker per trace,
  each keeping the ``repro-temporal/2`` document the daemon serves for
  the same trace and parameters, or the error text when the trace
  cannot be analysed (unreadable, spans no time, no annotated regions;
  any damage under ``strict``).  A failure is data, not an abort: the
  sweep continues;
* an **on-disk, content-keyed result cache** — the key hashes the trace
  file's bytes together with the parameters that shape the document
  (``windows``, ``index``, ``strict``) and the cache format version, so
  re-running a sweep after adding one trace recomputes exactly that
  trace, and a file edited in place never serves a stale document;
* :func:`render_sweep_table` — the row of each document: its windows,
  elapsed time, drifting regions, steepest trend and phase breaks.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import List, Mapping, NamedTuple, Optional, Sequence, Union

from .cache import ReportCache, content_key
from .errors import ReproError
from .obs import spans as obspans
from .pool import map_tasks, worker_count
from .reports import PARAMS, build_report, param_names, resolve_params

#: Bump when the cached payload or the analysis semantics change; part
#: of the cache key, so stale entries are never served.
CACHE_FORMAT = 3

#: Trace file suffixes a directory sweep picks up.
TRACE_SUFFIXES = (".jsonl", ".jsonl.gz", ".rptb")


class SweepResult(NamedTuple):
    """One trace's outcome: its temporal document, or why it has none."""

    path: str
    document: Optional[dict]
    error: Optional[str]
    #: True when the outcome came from the on-disk cache.
    cached: bool = False


def trace_key(path: Union[str, Path], params: Mapping) -> str:
    """Content key of one (trace file, document parameters) pair: the
    trace's bytes and ``params``' ``result`` parameters (``windows``,
    ``index``, ``strict``; absent ones at their defaults)."""
    return content_key("repro-temporal-sweep", CACHE_FORMAT,
                       {name: params.get(name, PARAMS[name].default)
                        for name in param_names("temporal", "result")},
                       path=path)


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


def _worker(task) -> SweepResult:
    path, params = task
    # Sweep workers are process slots: labelling by pid makes each pool
    # process one rank of the self-trace, so `--profile` on a sweep
    # shows whether the fleet's traces were spread evenly.
    with obspans.worker_scope(f"pid-{os.getpid()}"):
        try:
            return SweepResult(path, build_report("temporal", path, params),
                               None)
        except ReproError as error:
            return SweepResult(path, None, str(error))


def sweep_traces(traces: Union[str, Path, Sequence[Union[str, Path]]],
                 params: Optional[Mapping] = None,
                 jobs: Optional[int] = None,
                 cache_dir: Optional[Union[str, Path]] = None,
                 use_cache: bool = True) -> List[SweepResult]:
    """Analyze a fleet of traces concurrently.

    ``traces`` is a directory (every trace file in it) or an explicit
    sequence of paths.  ``params`` holds ``repro temporal``'s ``result``
    and ``read`` parameters (``index``, ``windows``, ``strict``,
    ``chunk_size``; :func:`repro.reports.resolve_params`), and each
    trace's document is ``build_report("temporal", path, params)``'s.
    Results come back in input order.  ``jobs`` caps the worker
    processes (default: one per CPU, never more than the number of
    uncached traces; 1 runs inline).  ``cache_dir`` defaults to
    ``<directory>/.repro-temporal-cache`` for directory sweeps and to
    ``.repro-temporal-cache`` next to the first trace otherwise;
    ``use_cache=False`` neither reads nor writes it.  A refused
    parameter value or an unknown index of dispersion raises before any
    trace is read.
    """
    params = resolve_params("temporal", params or {}, "result", "read")
    if isinstance(traces, (str, Path)):
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

    results: List[Optional[SweepResult]] = [None] * len(paths)
    keys = {}
    if use_cache:
        with obspans.span("sweep_cache_probe", activity="cache",
                          traces=len(paths)):
            for position, path in enumerate(paths):
                keys[position] = trace_key(path, params)
                text = cache.get(keys[position])
                if text is None:
                    continue
                try:
                    entry = json.loads(text)
                    results[position] = SweepResult(
                        str(path), entry["document"], entry["error"],
                        cached=True)
                except (ValueError, KeyError, TypeError):
                    pass    # corrupt entry: recompute
    pending = [position for position, result in enumerate(results)
               if result is None]
    if len(pending) > 1 and worker_count(jobs) > 1:
        # Forked workers share these imports instead of each importing.
        from . import viz  # noqa: F401
        from .core import batch, temporal  # noqa: F401
        from .instrument import stream  # noqa: F401
    fresh = map_tasks(_worker, [(str(paths[position]), params)
                                for position in pending],
                      jobs, "sweep_fanout")
    for position, result in zip(pending, fresh):
        results[position] = result
        if use_cache:
            cache.put(keys[position], json.dumps(
                {"document": result.document, "error": result.error},
                allow_nan=False))
    return results


def render_sweep_table(results: Sequence[SweepResult]) -> str:
    """One row per trace: windows, drift verdict, phases."""
    from .core.temporal import detect_phases, overall_series
    from .viz import format_table
    rows = []
    for result in results:
        name = Path(result.path).name
        document = result.document
        if document is None:
            rows.append([name, "-", "-", "-", f"error: {result.error}", ""])
            continue
        trends, regions = document["trends"], document["regions"]
        steepest = max(regions, key=lambda region: trends[region]["slope"],
                       default=None)
        phases = detect_phases(overall_series(
            [[float(value) for value in trends[region]["series"]]
             for region in regions]))
        rows.append([
            name,
            str(document["n_windows"]),
            f"{document['elapsed']:.4g}",
            ", ".join(document["drifting"]) or "-",
            (f"{steepest} ({trends[steepest]['slope']:+.4g}/win)"
             if steepest is not None else "-"),
            ("@" + ",".join(str(phase.begin) for phase in phases[1:])
             if len(phases) > 1 else "-")
            + (" [cached]" if result.cached else ""),
        ])
    return format_table(
        ["trace", "windows", "elapsed", "drifting regions",
         "steepest trend", "phase breaks"],
        rows,
        title=f"Time-resolved sweep over {len(results)} trace(s)")
