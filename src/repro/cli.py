"""Command-line interface — the methodology as a performance tool.

The paper's conclusion plans to "integrate our methodology into a
performance tool"; this module is that integration for the reproduced
stack.  Subcommands:

* ``repro analyze TRACEFILE``   — post-mortem analysis of a trace file
  (as written by :func:`repro.instrument.write_trace`): full report,
  optional pattern figures and Lorenz curves.  The trace is always
  folded out-of-core in bounded-memory chunks (``--chunk-size``;
  ``--stream`` is accepted and changes nothing), and ``--jobs J`` fans
  the file out over J shard workers with a deterministic merge — same
  report, any trace size; ``--timeline``/``--export-chrome`` re-read it.
* ``repro paper``               — reproduce the paper's §4 example from
  the calibrated reconstruction (tables, figures, narrative).
* ``repro cfd``                 — run the CFD workload on the simulator,
  analyze it, optionally keep the trace.
* ``repro counters TRACEFILE``  — the dissimilarity analysis on counting
  parameters (messages or bytes) instead of timings.
* ``repro faults``              — fault injection as validation: run the
  blame-localization campaign and score precision/recall.
* ``repro temporal TRACEFILE``  — time-resolved analysis: per-window
  imbalance trends, drifting regions, phase detection and threshold
  forecasts; ``--sweep DIR`` fans the analysis out over every trace in
  a directory (multiprocessing, on-disk content-keyed cache);
  ``--stream`` re-reads the trace for the binning pass instead of
  holding the first pass's chunks.
* ``repro self``                — dogfooding: profile the tool's own
  sharded analysis pipeline, print its per-stage timing table and
  imbalance indices, optionally export the spans as a repro trace.
  ``analyze`` and ``temporal`` accept ``--profile``/``--profile-out``
  to do the same for any run.
* ``repro serve``               — run the analysis service daemon: HTTP
  trace ingestion into a content-addressed store, a bounded worker
  pool over the shared report cache, ``/metrics`` + ``/healthz``
  observability, graceful job-draining shutdown.
* ``repro submit TRACEFILE``    — upload a trace to a running daemon.
* ``repro fetch TRACE``         — fetch a report from a running daemon
  (byte-identical to the corresponding local command's output).

The trace verbs go from file to report through
:func:`repro.reports.build_report`, as the daemon's jobs do; the
handlers here only check arguments and map outcomes to exit codes.
Trace files may be JSONL (optionally gzipped) or the compact binary
format (``.rptb``); the readers sniff the format.  Damaged trace files
are salvaged with a one-line ``warning: ...`` on stderr by default;
``--strict`` makes any damage fatal.

Exit codes: ``0`` success, ``1`` a check failed (``repro paper``
verification, ``repro faults --require-perfect``), ``2`` an expected
error (bad arguments, unreadable input, any :class:`ReproError`, a
closed output pipe), ``3`` an internal error (set ``REPRO_DEBUG=1``
for the traceback).

Invoke as ``python -m repro <subcommand> ...``.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from pathlib import Path
from typing import List, Optional

from . import __version__
from .errors import ReproError, TraceWarning
from .reports import (build_report, render_analyze_report,  # noqa: F401
                      render_temporal_report)

#: Default daemon address shared by the submit/fetch verbs (kept in
#: sync with :data:`repro.serve.client.DEFAULT_URL`, which the CLI must
#: not import at parse time — subcommand parsing stays lightweight).
_DEFAULT_SERVE_URL = "http://127.0.0.1:8765"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Load-imbalance analysis of message-passing programs "
                    "(reproduction of Calzarossa/Massari/Tessera, "
                    "PACT 2003).")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    analyze_cmd = commands.add_parser(
        "analyze", help="analyze a trace file post mortem")
    analyze_cmd.add_argument("tracefile", help="trace written by repro "
                                               "(.jsonl or .jsonl.gz)")
    analyze_cmd.add_argument("--patterns", action="store_true",
                             help="also print the per-activity pattern "
                                  "figures")
    analyze_cmd.add_argument("--lorenz", metavar="REGION",
                             help="also print the Lorenz curve of one "
                                  "region")
    analyze_cmd.add_argument("--index", default="euclidean",
                             help="index of dispersion (default: "
                                  "euclidean)")
    analyze_cmd.add_argument("--diagnose", action="store_true",
                             help="also print the automated diagnosis")
    analyze_cmd.add_argument("--timeline", action="store_true",
                             help="also print the per-rank ASCII "
                                  "timeline")
    analyze_cmd.add_argument("--significance", type=float, metavar="EPS",
                             help="also report the noise-calibrated "
                                  "threshold for relative jitter EPS")
    analyze_cmd.add_argument("--export-chrome", metavar="PATH",
                             help="also export the trace in Chrome "
                                  "Trace Event Format (Perfetto)")
    analyze_cmd.add_argument("--heatmap", action="store_true",
                             help="also print the per-processor share "
                                  "heatmap")
    analyze_cmd.add_argument("--whatif", action="store_true",
                             help="also print the balancing what-if "
                                  "table")
    analyze_cmd.add_argument("--strict", action="store_true",
                             help="refuse damaged trace files instead "
                                  "of salvaging their valid prefix")
    analyze_cmd.add_argument("--drop-missing-ranks", action="store_true",
                             help="exclude ranks with no recorded "
                                  "events (e.g. lost from a salvaged "
                                  "trace) from the analysis")
    analyze_cmd.add_argument("--stream", action="store_true",
                             help="accepted for compatibility; no effect, "
                                  "since analyze always folds the trace "
                                  "in bounded-memory chunks")
    analyze_cmd.add_argument("--chunk-size", type=int, default=8192,
                             metavar="N",
                             help="events per streamed chunk "
                                  "(default: 8192)")
    analyze_cmd.add_argument("--jobs", type=int, default=None,
                             metavar="J",
                             help="fan the file out over J worker "
                                  "processes (sharded map-reduce; "
                                  "default: sequential)")
    _add_profile_arguments(analyze_cmd)

    commands.add_parser(
        "paper", help="reproduce the paper's application example")

    cfd_cmd = commands.add_parser(
        "cfd", help="simulate the CFD workload and analyze it")
    cfd_cmd.add_argument("--ranks", type=int, default=16)
    cfd_cmd.add_argument("--steps", type=int, default=4)
    cfd_cmd.add_argument("--grid", type=int, default=256,
                         help="square grid edge length")
    cfd_cmd.add_argument("--trace", metavar="PATH",
                         help="write the trace to this file")

    testbed_cmd = commands.add_parser(
        "testbed", help="manage a tracefile repository")
    testbed_cmd.add_argument("directory")
    testbed_actions = testbed_cmd.add_subparsers(dest="action",
                                                 required=True)
    testbed_actions.add_parser("list", help="list stored traces")
    add_action = testbed_actions.add_parser("add", help="ingest a trace")
    add_action.add_argument("tracefile")
    add_action.add_argument("--program", required=True)
    add_action.add_argument("--machine", required=True)
    add_action.add_argument("--tag", action="append", default=[])
    show_action = testbed_actions.add_parser(
        "show", help="analyze one stored trace")
    show_action.add_argument("trace_id")

    counters_cmd = commands.add_parser(
        "counters", help="dissimilarity analysis on counting parameters")
    counters_cmd.add_argument("tracefile")
    counters_cmd.add_argument("--counter", default="messages",
                              choices=("messages", "bytes", "events"))
    counters_cmd.add_argument("--strict", action="store_true",
                              help="refuse damaged trace files instead "
                                   "of salvaging their valid prefix")

    faults_cmd = commands.add_parser(
        "faults", help="fault injection as validation of the "
                       "methodology's localization")
    faults_cmd.add_argument("--campaign", action="store_true",
                            help="run the blame-localization campaign "
                                 "and print the precision/recall table")
    faults_cmd.add_argument("--criterion", default="maximum",
                            choices=("maximum", "elbow", "percentile",
                                     "share"),
                            help="ranking criterion used for the blame "
                                 "claims (default: maximum)")
    faults_cmd.add_argument("--require-perfect", action="store_true",
                            help="exit non-zero unless every fault is "
                                 "localized and every claim is correct")

    temporal_cmd = commands.add_parser(
        "temporal", help="time-resolved imbalance analysis: per-window "
                         "trends, phases and drift forecasts")
    temporal_cmd.add_argument("tracefile", nargs="?",
                              help="trace to analyze (omit with --sweep)")
    temporal_cmd.add_argument("--sweep", metavar="DIR",
                              help="analyze every trace in DIR in "
                                   "parallel instead of one file")
    temporal_cmd.add_argument("--windows", type=int, default=16,
                              help="number of equal time windows "
                                   "(default: 16)")
    temporal_cmd.add_argument("--index", default="euclidean",
                              help="index of dispersion (default: "
                                   "euclidean)")
    temporal_cmd.add_argument("--phases", action="store_true",
                              help="also print the change-point phase "
                                   "segmentation")
    temporal_cmd.add_argument("--forecast", type=float, metavar="LEVEL",
                              help="also forecast the window at which "
                                   "each region's imbalance reaches "
                                   "LEVEL")
    temporal_cmd.add_argument("--heatmap", action="store_true",
                              help="also print the region x window "
                                   "imbalance heatmap")
    temporal_cmd.add_argument("--jobs", type=int, default=None,
                              help="worker processes for --sweep "
                                   "(default: one per CPU)")
    temporal_cmd.add_argument("--no-cache", action="store_true",
                              help="ignore and do not update the sweep "
                                   "result cache")
    temporal_cmd.add_argument("--strict", action="store_true",
                              help="refuse damaged trace files instead "
                                   "of salvaging their valid prefix")
    temporal_cmd.add_argument("--stream", action="store_true",
                              help="re-read the trace for the binning "
                                   "pass instead of holding the first "
                                   "pass's chunks (single trace only)")
    temporal_cmd.add_argument("--chunk-size", type=int, default=8192,
                              metavar="N",
                              help="events per streamed chunk "
                                   "(default: 8192)")
    _add_profile_arguments(temporal_cmd)

    self_cmd = commands.add_parser(
        "self", help="profile the tool's own pipeline and turn the "
                     "methodology on itself")
    self_cmd.add_argument("tracefile", nargs="?",
                          help="trace to analyze under profiling "
                               "(default: a synthesized paper trace)")
    self_cmd.add_argument("--jobs", type=int, default=2, metavar="J",
                          help="shard worker processes for the profiled "
                               "run (default: 2)")
    self_cmd.add_argument("--chunk-size", type=int, default=8192,
                          metavar="N",
                          help="events per streamed chunk "
                               "(default: 8192)")
    self_cmd.add_argument("--index", default="euclidean",
                          help="index of dispersion for the "
                               "self-imbalance figures (default: "
                               "euclidean)")
    self_cmd.add_argument("--trace", metavar="PATH", dest="self_trace",
                          help="write the recorded spans as a repro "
                               "trace file (analyzable with "
                               "`repro analyze`)")
    self_cmd.add_argument("--report", action="store_true",
                          help="also print the full imbalance report "
                               "of the self-trace")

    serve_cmd = commands.add_parser(
        "serve", help="run the analysis service daemon: HTTP trace "
                      "ingestion, cached report serving, /metrics")
    serve_cmd.add_argument("--host", default="127.0.0.1",
                           help="bind address (default: 127.0.0.1)")
    serve_cmd.add_argument("--port", type=int, default=8765,
                           help="bind port; 0 picks a free one "
                                "(default: 8765)")
    serve_cmd.add_argument("--store", default=".repro-serve",
                           metavar="DIR",
                           help="trace store + report cache directory "
                                "(default: .repro-serve)")
    serve_cmd.add_argument("--cache-dir", metavar="DIR",
                           help="report cache directory (default: "
                                "report-cache under --store)")
    serve_cmd.add_argument("--workers", type=int, default=4,
                           help="analysis worker threads (default: 4)")
    serve_cmd.add_argument("--max-body-bytes", type=int,
                           default=None, metavar="N",
                           help="largest accepted request body; bigger "
                                "uploads get HTTP 413 (default: 256 MiB)")
    serve_cmd.add_argument("--max-queue", type=int, default=None,
                           metavar="N",
                           help="jobs in flight before load is shed "
                                "with HTTP 429 (default: 64)")
    serve_cmd.add_argument("--max-cache-bytes", type=int, default=None,
                           metavar="N",
                           help="report cache size cap; exceeding it "
                                "evicts least-recently-used reports "
                                "(default: unbounded)")
    serve_cmd.add_argument("--max-store-bytes", type=int, default=None,
                           metavar="N",
                           help="trace store size cap; exceeding it "
                                "evicts least-recently-analyzed traces "
                                "(default: unbounded)")
    serve_cmd.add_argument("--request-timeout", type=float, default=None,
                           metavar="SECONDS",
                           help="per-connection socket timeout guarding "
                                "against slow-loris peers (default: 60)")
    serve_cmd.add_argument("--ready-file", metavar="PATH",
                           help="write 'HOST PORT' here once serving "
                                "(for scripts and CI)")
    serve_cmd.add_argument("--verbose", action="store_true",
                           help="log every request to stderr")

    submit_cmd = commands.add_parser(
        "submit", help="upload a trace to a running analysis daemon")
    submit_cmd.add_argument("tracefile", help="trace to upload "
                                              "(.jsonl, .jsonl.gz or "
                                              ".rptb)")
    submit_cmd.add_argument("--url", default=_DEFAULT_SERVE_URL,
                            help=f"daemon base URL (default: "
                                 f"{_DEFAULT_SERVE_URL})")
    submit_cmd.add_argument("--name", help="display name to store with "
                                           "the trace (default: the "
                                           "file name)")
    _add_retry_arguments(submit_cmd)

    fetch_cmd = commands.add_parser(
        "fetch", help="fetch a report from a running analysis daemon")
    fetch_cmd.add_argument("trace",
                           help="trace file (submitted first if needed) "
                                "or the sha256 digest of a stored trace")
    fetch_cmd.add_argument("--url", default=_DEFAULT_SERVE_URL,
                           help=f"daemon base URL (default: "
                                f"{_DEFAULT_SERVE_URL})")
    fetch_cmd.add_argument("--kind", default="analyze",
                           choices=("analyze", "diagnose", "whatif",
                                    "temporal"),
                           help="report kind (default: analyze)")
    fetch_cmd.add_argument("--index", default="euclidean",
                           help="index of dispersion (default: "
                                "euclidean)")
    fetch_cmd.add_argument("--windows", type=int, default=16,
                           help="window count for --kind temporal "
                                "(default: 16)")
    fetch_cmd.add_argument("--json", action="store_true",
                           help="print the structured JSON report "
                                "instead of the rendered text")
    _add_retry_arguments(fetch_cmd)
    return parser


def _add_profile_arguments(command) -> None:
    """The self-observability flags shared by ``analyze``/``temporal``."""
    command.add_argument("--profile", action="store_true",
                         help="record pipeline spans and print the "
                              "per-stage timing table after the report")
    command.add_argument("--profile-out", metavar="PATH",
                         help="write the recorded spans as a repro "
                              "trace file (implies --profile; analyze "
                              "it with `repro analyze` or `repro self`)")


def _add_retry_arguments(command) -> None:
    """The client-resilience flags shared by ``submit`` and ``fetch``."""
    command.add_argument("--retries", type=int, default=2,
                         help="extra attempts after a connection "
                              "failure, 429 or 503 (default: 2; "
                              "0 disables retrying)")
    command.add_argument("--retry-max-wait", type=float, default=15.0,
                         metavar="SECONDS",
                         help="ceiling on one retry backoff sleep, "
                              "also caps an honored Retry-After "
                              "(default: 15)")


def _make_client(arguments):
    from .serve.client import ServeClient
    if arguments.retries < 0:
        raise ReproError("--retries must not be negative")
    if arguments.retry_max_wait < 0:
        raise ReproError("--retry-max-wait must not be negative")
    return ServeClient(arguments.url, retries=arguments.retries,
                       retry_max_wait=arguments.retry_max_wait)


class _Profiled:
    """Span recording around one command, when ``--profile`` asks.

    On success, prints the per-stage timing table after the command's
    own output and optionally serializes the spans as a repro trace
    (``--profile-out``) — the dogfooding loop: the profile of an
    analysis run is itself an analyzable trace.  On failure the spans
    are dropped; the error message must stay the last thing printed.
    """

    def __init__(self, arguments) -> None:
        self._out = getattr(arguments, "profile_out", None)
        self._active = bool(getattr(arguments, "profile", False)
                            or self._out)

    def __enter__(self) -> "_Profiled":
        if self._active:
            from .obs import spans as obspans
            obspans.enable()
        return self

    def __exit__(self, exc_type, *exc_info) -> bool:
        if not self._active:
            return False
        from .obs import spans as obspans
        spans = obspans.drain()
        obspans.disable()
        if exc_type is not None:
            return False
        if spans:
            print()
            print(obspans.render_span_table(spans))
            if self._out:
                from .obs.selftrace import write_selftrace
                count = write_selftrace(self._out, spans)
                print(f"\nwrote {count} self-trace events to "
                      f"{self._out}")
        else:
            print("\n(no pipeline spans were recorded)")
        return False


def _check_stream_arguments(arguments) -> None:
    if arguments.chunk_size < 1:
        raise ReproError("--chunk-size must be at least 1")
    jobs = getattr(arguments, "jobs", None)
    if jobs is not None and jobs < 1:
        raise ReproError("--jobs must be at least 1")


def _command_analyze(arguments) -> int:
    _check_stream_arguments(arguments)
    with _Profiled(arguments):
        print(build_report("analyze", arguments.tracefile,
                           vars(arguments))[0])
    return 0


def _command_paper(arguments) -> int:
    from .calibrate import reconstruct, verify
    from .core import analyze, render_full_report
    measurements = reconstruct()
    report = verify(measurements)
    print(report.describe())
    print()
    print(render_full_report(analyze(measurements)))
    return 0 if report.passed else 1


def _command_cfd(arguments) -> int:
    from .apps import CFDConfig, run_cfd
    from .core import analyze, render_full_report
    config = CFDConfig(grid=(arguments.grid, arguments.grid),
                       steps=arguments.steps)
    result, tracer, measurements = run_cfd(config, n_ranks=arguments.ranks)
    print(f"simulated {result.elapsed:.3f} s on {arguments.ranks} ranks "
          f"({result.messages} messages, {len(tracer)} events)\n")
    print(render_full_report(analyze(measurements)))
    if arguments.trace:
        if str(arguments.trace).endswith(".rptb"):
            from .instrument import write_binary_trace
            count = write_binary_trace(arguments.trace, tracer.events)
        else:
            from .instrument import write_tracer
            count = write_tracer(arguments.trace, tracer)
        print(f"\nwrote {count} events to {arguments.trace}")
    return 0


def _command_counters(arguments) -> int:
    from .core import analyze, render_full_report
    from .instrument.counters import count_profile
    from .instrument.stream import iter_any
    on_error = "raise" if arguments.strict else "salvage"
    measurements = count_profile(
        iter_any(arguments.tracefile, on_error=on_error),
        counter=arguments.counter)
    analysis = analyze(measurements, cluster_count=None)
    print(f"counting parameter: {arguments.counter}\n")
    print(render_full_report(analysis))
    return 0


def _command_testbed(arguments) -> int:
    from .testbed import Testbed
    testbed = Testbed(arguments.directory)
    if arguments.action == "list":
        if len(testbed) == 0:
            print("(empty testbed)")
        for entry in testbed.entries():
            tags = f" [{', '.join(entry.tags)}]" if entry.tags else ""
            print(f"{entry.trace_id}: {entry.program} on {entry.machine}, "
                  f"P={entry.n_ranks}, {entry.events} events, "
                  f"{entry.elapsed:.4g} s{tags}")
        return 0
    if arguments.action == "add":
        from .instrument import read_any_tracer
        tracer = read_any_tracer(arguments.tracefile)
        entry = testbed.store(tracer, program=arguments.program,
                              machine=arguments.machine,
                              tags=tuple(arguments.tag))
        print(f"stored as {entry.trace_id}")
        return 0
    # show
    print(build_report("analyze", testbed.path(arguments.trace_id), {})[0])
    return 0


def _command_faults(arguments) -> int:
    from .faults import default_campaign, run_campaign
    if not arguments.campaign:
        print("default blame-localization campaign "
              "(run with --campaign to execute):\n")
        for case in default_campaign():
            print(f"  {case.name:22s} {case.plan.describe():44s} "
                  f"-> {case.expected_region} / {case.expected_activity}"
                  f" / ranks {case.expected_ranks}")
        return 0
    report = run_campaign(criterion=arguments.criterion)
    print(report.render())
    if arguments.require_perfect and not report.perfect:
        print("\ncampaign is NOT perfect", file=sys.stderr)
        return 1
    return 0


def _streamed_windows(arguments, on_error: str):
    """``(windows, event count)`` of ``repro temporal``: two passes over
    the trace's chunks, the second re-reading the file under
    ``--stream`` instead of reusing the first pass's chunks."""
    from .instrument.stream import trace_windows
    _check_stream_arguments(arguments)
    windows, scout = trace_windows(
        arguments.tracefile, arguments.windows,
        chunk_size=arguments.chunk_size, on_error=on_error,
        reread=arguments.stream)
    return windows, scout.n_events


def _command_temporal(arguments) -> int:
    if arguments.windows < 1:
        raise ReproError("--windows must be at least 1")
    if arguments.sweep and arguments.stream:
        raise ReproError("--stream applies to a single trace; "
                         "--sweep already streams per worker")
    if arguments.sweep:
        from .sweep import SweepConfig, render_sweep_table, sweep_traces
        config = SweepConfig(n_windows=arguments.windows,
                             index=arguments.index,
                             forecast_threshold=arguments.forecast)
        with _Profiled(arguments):
            summaries = sweep_traces(arguments.sweep, config,
                                     jobs=arguments.jobs,
                                     use_cache=not arguments.no_cache)
            print(render_sweep_table(summaries))
        failed = [s for s in summaries if not s.ok]
        if failed:
            print(f"\n{len(failed)} trace(s) could not be analyzed",
                  file=sys.stderr)
        return 0
    if not arguments.tracefile:
        raise ReproError("temporal needs a trace file (or --sweep DIR)")

    _check_stream_arguments(arguments)
    with _Profiled(arguments):
        print(build_report("temporal", arguments.tracefile,
                           vars(arguments))[0])
    return 0


def _command_self(arguments) -> int:
    """Dogfooding: profile an analysis run, then turn the methodology
    on the profile.

    Runs the sharded ``analyze`` report under span recording (over the
    given trace, or a synthesized paper trace when none is supplied),
    prints the per-stage timing table plus the per-stage imbalance
    indices, and optionally serializes the spans as a repro trace —
    which every other verb accepts like any program's trace.
    """
    import tempfile

    from .obs import spans as obspans
    from .obs.selftrace import (render_self_report, self_imbalance,
                                write_selftrace)
    _check_stream_arguments(arguments)

    with tempfile.TemporaryDirectory(prefix="repro-self-") as workdir:
        if arguments.tracefile:
            tracefile = str(arguments.tracefile)
            source = tracefile
        else:
            from .calibrate.reconstruct import synthesize_paper_trace
            tracefile = str(Path(workdir) / "paper.jsonl")
            synthesize_paper_trace(tracefile)
            source = "synthesized paper trace"
        obspans.enable()
        try:
            build_report("analyze", tracefile, vars(arguments))
            spans = obspans.drain()
        finally:
            obspans.disable()

    print(f"profiled the analysis pipeline over {source} "
          f"({arguments.jobs} shard worker(s))\n")
    print(obspans.render_span_table(spans))
    pairs = self_imbalance(spans, index=arguments.index)
    width = max(len(stage) for stage, _ in pairs)
    print(f"\nper-stage self-imbalance (index {arguments.index}, "
          "scaled by mean duration):")
    for stage, value in pairs:
        print(f"  {stage:<{width}s}  {value:.4g}")
    if arguments.report:
        print()
        print(render_self_report(spans, index=arguments.index))
    if arguments.self_trace:
        count = write_selftrace(arguments.self_trace, spans)
        print(f"\nwrote {count} self-trace events to "
              f"{arguments.self_trace}")
    return 0


def _command_serve(arguments) -> int:
    import signal
    import threading

    from .serve import (DEFAULT_MAX_BODY_BYTES, DEFAULT_MAX_QUEUE,
                        DEFAULT_REQUEST_TIMEOUT, AnalysisServer)
    if arguments.workers < 1:
        raise ReproError("--workers must be at least 1")
    if not 0 <= arguments.port <= 65535:
        raise ReproError("--port must be between 0 and 65535")
    for flag in ("max_body_bytes", "max_queue", "max_cache_bytes",
                 "max_store_bytes"):
        value = getattr(arguments, flag)
        if value is not None and value < 1:
            raise ReproError(
                f"--{flag.replace('_', '-')} must be at least 1")
    if arguments.request_timeout is not None \
            and arguments.request_timeout <= 0:
        raise ReproError("--request-timeout must be positive")
    try:
        daemon = AnalysisServer(
            arguments.store, host=arguments.host, port=arguments.port,
            workers=arguments.workers, cache_dir=arguments.cache_dir,
            verbose=arguments.verbose,
            max_body_bytes=(arguments.max_body_bytes
                            if arguments.max_body_bytes is not None
                            else DEFAULT_MAX_BODY_BYTES),
            max_queue=(arguments.max_queue
                       if arguments.max_queue is not None
                       else DEFAULT_MAX_QUEUE),
            max_cache_bytes=arguments.max_cache_bytes,
            max_store_bytes=arguments.max_store_bytes,
            request_timeout=(arguments.request_timeout
                             if arguments.request_timeout is not None
                             else DEFAULT_REQUEST_TIMEOUT))
    except OSError as error:
        raise ReproError(
            f"cannot bind {arguments.host}:{arguments.port}: {error}")

    stop = threading.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: stop.set())
    daemon.start()
    host, port = daemon.address
    print(f"serving on http://{host}:{port} "
          f"(store: {daemon.store.directory}, "
          f"workers: {daemon.workers})", flush=True)
    if arguments.ready_file:
        Path(arguments.ready_file).write_text(f"{host} {port}\n")
    stop.wait()
    print(f"shutting down: draining {daemon.runner.in_flight()} "
          "in-flight job(s)", flush=True)
    daemon.shutdown()
    return 0


def _command_submit(arguments) -> int:
    meta = _make_client(arguments).submit(arguments.tracefile,
                                          name=arguments.name)
    verb = "stored" if meta["created"] else "already stored"
    note = " [salvaged]" if meta["salvaged"] else ""
    print(f"{verb} {meta['sha256']} ({meta['events']} events, "
          f"{meta['ranks']} ranks, {meta['n_bytes']} bytes){note}")
    return 0


def _command_fetch(arguments) -> int:
    import json as _json

    if arguments.windows < 1:
        raise ReproError("--windows must be at least 1")
    client = _make_client(arguments)
    target = Path(arguments.trace)
    if target.is_file():
        sha = client.submit(target)["sha256"]
    elif len(arguments.trace) == 64 \
            and all(c in "0123456789abcdef" for c in arguments.trace):
        sha = arguments.trace
    else:
        raise ReproError(f"{arguments.trace} is neither a readable "
                         "trace file nor a sha256 digest")
    params = {"index": arguments.index}
    if arguments.kind == "temporal":
        params["windows"] = arguments.windows
    payload = client.report(sha, arguments.kind, **params)
    if arguments.json:
        print(_json.dumps(payload["report"], indent=2, sort_keys=True))
    else:
        # The daemon's text already ends with the newline the local
        # command's final print() would emit — write it verbatim so
        # `repro fetch` is byte-identical to the local command.
        sys.stdout.write(payload["text"])
    return 0


_COMMANDS = {
    "analyze": _command_analyze,
    "paper": _command_paper,
    "cfd": _command_cfd,
    "counters": _command_counters,
    "testbed": _command_testbed,
    "faults": _command_faults,
    "temporal": _command_temporal,
    "self": _command_self,
    "serve": _command_serve,
    "submit": _command_submit,
    "fetch": _command_fetch,
}


#: The arguments each command writes a file to, by ``dest``.
_OUTPUT_PATHS = {
    "analyze": ("export_chrome", "profile_out"),
    "temporal": ("profile_out",),
    "cfd": ("trace",),
    "self": ("self_trace",),
    "serve": ("ready_file",),
}


def _validate_file_arguments(arguments) -> None:
    """Fail fast on unreadable or unwritable file arguments, before any
    heavy work."""
    for dest in _OUTPUT_PATHS.get(arguments.command, ()):
        output = getattr(arguments, dest)
        if output is None:
            continue
        path = Path(output)
        if path.is_dir():
            raise ReproError(f"cannot write {path}: it is a directory")
        if not path.parent.is_dir():
            raise ReproError(f"cannot write {path}: directory "
                             f"{path.parent} does not exist")
    sweep = getattr(arguments, "sweep", None)
    if sweep is not None and not Path(sweep).is_dir():
        raise ReproError(f"sweep directory {sweep} does not exist")
    tracefile = getattr(arguments, "tracefile", None)
    if tracefile is None:
        return
    path = Path(tracefile)
    if not path.exists():
        raise ReproError(f"trace file {path} does not exist")
    if path.is_dir():
        raise ReproError(f"trace file {path} is a directory")


_python_format_warning = warnings.formatwarning


def _format_warning(message, category, *args) -> str:
    """A :class:`TraceWarning` as one ``warning: ...`` line."""
    if issubclass(category, TraceWarning):
        return f"warning: {message}\n"
    return _python_format_warning(message, category, *args)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code.

    Expected failures (any :class:`ReproError`: bad input files, invalid
    parameters, damaged traces in strict mode) print a one-line message
    and exit ``2``; a closed stdout pipe exits ``2`` silently.  Anything
    else is a bug in the tool itself: the exception is summarized
    without a traceback and the exit code is ``3``; set
    ``REPRO_DEBUG=1`` to re-raise for debugging.  Salvage warnings stay
    :mod:`warnings` warnings, each shown as one ``warning: ...`` line.
    """
    parser = _build_parser()
    arguments = parser.parse_args(argv)
    previous, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        _validate_file_arguments(arguments)
        code = _COMMANDS[arguments.command](arguments)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away (``| head``): point stdout at devnull so
        # the flush at exit cannot raise again, as the signal docs do.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 2
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except Exception as error:                # noqa: BLE001 - last resort
        if os.environ.get("REPRO_DEBUG"):
            raise
        print(f"internal error: {type(error).__name__}: {error}\n"
              "(set REPRO_DEBUG=1 for the full traceback)",
              file=sys.stderr)
        return 3
    finally:
        warnings.formatwarning = previous


if __name__ == "__main__":     # pragma: no cover
    sys.exit(main())
