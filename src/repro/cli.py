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
  imbalance trends, drifting regions, phases and forecasts, one window
  built at a time (``--stream`` changes nothing; ``--jobs J`` folds it
  over J shard workers, as ``analyze`` does).  ``--sweep DIR`` runs it
  over every trace in a directory on ``--jobs`` workers, caches each
  document by content and prints one row per trace; it refuses the
  text-only sections and ``--stream``.
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
Each report option is built from its declaration in
:data:`repro.reports.PARAMS`, and :func:`main` checks its value before
any work with the check the daemon's 400 comes from
(``--windows must be at least 1`` / ``windows must be at least 1``).
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
from .reports import (PARAMS, REPORT_KINDS, SETTINGS,  # noqa: F401
                      build_report, check_param, param_names, render,
                      render_analyze_report, render_temporal_report)

#: Every declared option: the report parameters and the service settings.
_DECLARED = {**PARAMS, **SETTINGS}


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
                                               "(.jsonl, .jsonl.gz or "
                                               ".rptb)")
    _add_params(analyze_cmd, *param_names("analyze"))

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
    _add_params(counters_cmd, "strict")

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
    _add_params(temporal_cmd, *param_names("temporal"))
    temporal_cmd.add_argument("--no-cache", action="store_true",
                              help="ignore and do not update the sweep "
                                   "result cache")

    self_cmd = commands.add_parser(
        "self", help="profile the tool's own pipeline and turn the "
                     "methodology on itself")
    self_cmd.add_argument("tracefile", nargs="?",
                          help="trace to analyze under profiling "
                               "(default: a synthesized paper trace)")
    _add_params(self_cmd, "jobs", default=2,
                help="shard worker processes for the profiled run "
                     "(default: %(default)s)")
    _add_params(self_cmd, "chunk_size", "index")
    self_cmd.add_argument("--trace", metavar="PATH", dest="profile_out",
                          help="write the recorded spans as a repro "
                               "trace file (analyzable with "
                               "`repro analyze`)")
    self_cmd.add_argument("--report", action="store_true",
                          help="also print the full imbalance report "
                               "of the self-trace")

    serve_cmd = commands.add_parser(
        "serve", help="run the analysis service daemon: HTTP trace "
                      "ingestion, cached report serving, /metrics")
    serve_cmd.add_argument("--store", default=".repro-serve",
                           metavar="DIR",
                           help="trace store + report cache directory "
                                "(default: .repro-serve)")
    serve_cmd.add_argument("--cache-dir", metavar="DIR",
                           help="report cache directory (default: "
                                "report-cache under --store)")
    _add_params(serve_cmd, *_settings_of("serve"))
    serve_cmd.add_argument("--ready-file", metavar="PATH",
                           help="write 'HOST PORT' here once listening "
                                "(for scripts and CI)")
    serve_cmd.add_argument("--verbose", action="store_true",
                           help="log every request to stderr")

    submit_cmd = commands.add_parser(
        "submit", help="upload a trace to a running analysis daemon")
    submit_cmd.add_argument("tracefile", help="trace to upload "
                                              "(.jsonl, .jsonl.gz or "
                                              ".rptb)")
    submit_cmd.add_argument("--name", help="display name to store with "
                                           "the trace (default: the "
                                           "file name)")
    _add_params(submit_cmd, *_settings_of("submit"))

    fetch_cmd = commands.add_parser(
        "fetch", help="fetch a report from a running analysis daemon")
    fetch_cmd.add_argument("trace",
                           help="trace file (submitted first if needed) "
                                "or the sha256 digest of a stored trace")
    fetch_cmd.add_argument("--kind", default="analyze",
                           choices=REPORT_KINDS,
                           help="report kind (default: analyze)")
    _add_params(fetch_cmd, "index", "windows")
    fetch_cmd.add_argument("--json", action="store_true",
                           help="print the structured JSON report "
                                "instead of the rendered text")
    _add_params(fetch_cmd, *_settings_of("fetch"))
    return parser


def _flag(name: str) -> str:
    """A declared option's command-line spelling."""
    return "--" + name.replace("_", "-")


def _add_params(command, *names: str, **options) -> None:
    """Add the options of report parameters or service settings
    ``names``, as :data:`repro.reports.PARAMS` and
    :data:`repro.reports.SETTINGS` declare them; ``options`` override
    argparse keywords."""
    for name in names:
        param = _DECLARED[name]
        if param.type is bool:
            declared = {"action": "store_true", "help": param.help}
        else:
            shown = "" if param.default is None else " (default: %(default)s)"
            declared = {"type": param.type, "default": param.default,
                        "metavar": param.metavar, "help": param.help + shown}
        command.add_argument(_flag(name), **{**declared, **options})


def _settings_of(verb: str) -> List[str]:
    """The service settings ``verb`` takes as options."""
    return [name for name, setting in SETTINGS.items()
            if verb in setting.verbs]


def _settings(arguments) -> dict:
    """The service settings a parsed command line holds, by name."""
    return {name: getattr(arguments, name)
            for name in _settings_of(arguments.command)}


class _Profiled:
    """The CLI's one span recording around a command: the trace verbs
    record when ``--profile``/``--profile-out`` ask and then print the
    per-stage table; ``repro self`` (``table=False``) always records and
    prints its verdict from :attr:`spans`.  :meth:`write_trace` writes
    ``--profile-out`` (``self --trace``).  On failure the spans are
    dropped; the error message must stay the last thing printed.
    """

    def __init__(self, arguments, table: bool = True) -> None:
        self._out = getattr(arguments, "profile_out", None)
        self._table = table
        self._active = bool(not table or getattr(arguments, "profile", False)
                            or self._out)
        self.spans: list = []

    def __enter__(self) -> "_Profiled":
        if self._active:
            from .obs import spans as obspans
            obspans.enable()
        return self

    def __exit__(self, exc_type, *exc_info) -> bool:
        if not self._active:
            return False
        from .obs import spans as obspans
        self.spans = obspans.drain()
        obspans.disable()
        if exc_type is not None or not self._table:
            return False
        if self.spans:
            print()
            print(obspans.render_span_table(self.spans))
            self.write_trace()
        else:
            print("\n(no pipeline spans were recorded)")
        return False

    def write_trace(self) -> None:
        """Write the recorded spans as a repro trace, if asked to."""
        if self._out:
            from .obs.selftrace import write_selftrace
            count = write_selftrace(self._out, self.spans)
            print(f"\nwrote {count} self-trace events to {self._out}")


def _command_analyze(arguments) -> int:
    with _Profiled(arguments):
        appendix: List[str] = []
        document = build_report("analyze", arguments.tracefile,
                                vars(arguments), appendix)
        print("\n\n".join([render(document), *appendix]))
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
        from .instrument import write_binary_trace, write_tracer
        write = (write_binary_trace if str(arguments.trace).endswith(".rptb")
                 else write_tracer)
        count = write(arguments.trace, tracer)
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
    print(render(build_report("analyze", testbed.path(arguments.trace_id),
                              {})))
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
    """``(every window, event count)`` of ``repro temporal``."""
    from .instrument.stream import trace_windows
    windows, scout = trace_windows(
        arguments.tracefile, arguments.windows,
        chunk_size=arguments.chunk_size, on_error=on_error)
    return list(windows), scout.n_events


def _command_temporal(arguments) -> int:
    if arguments.sweep:
        # One check for the single-trace sections, which the one-row-
        # per-trace table would silently drop.
        ignored = [_flag(name) for name in param_names("temporal", "section")
                   if getattr(arguments, name) != PARAMS[name].default]
        if arguments.stream:
            ignored.append("--stream")
        if ignored:
            raise ReproError("--sweep already streams per worker and "
                             "prints one table row per trace; it takes no "
                             + ", ".join(ignored))
        from .sweep import render_sweep_table, sweep_traces
        with _Profiled(arguments):
            results = sweep_traces(arguments.sweep, vars(arguments),
                                   jobs=arguments.jobs,
                                   use_cache=not arguments.no_cache)
            print(render_sweep_table(results))
        failed = [result for result in results if result.error is not None]
        if failed:
            print(f"\n{len(failed)} trace(s) could not be analyzed",
                  file=sys.stderr)
        return 0
    if not arguments.tracefile:
        raise ReproError("temporal needs a trace file (or --sweep DIR)")
    with _Profiled(arguments):
        print(render(build_report("temporal", arguments.tracefile,
                                  vars(arguments))))
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
    from .obs.selftrace import self_document, self_imbalance

    with tempfile.TemporaryDirectory(prefix="repro-self-") as workdir:
        if arguments.tracefile:
            tracefile = str(arguments.tracefile)
            source = tracefile
        else:
            from .calibrate.reconstruct import synthesize_paper_trace
            tracefile = str(Path(workdir) / "paper.jsonl")
            synthesize_paper_trace(tracefile)
            source = "synthesized paper trace"
        with _Profiled(arguments, table=False) as profiled:
            render(build_report("analyze", tracefile, vars(arguments)))

    spans = profiled.spans
    fanout = next(item for item in spans if item.name == "shard_fanout")
    print(f"profiled the analysis pipeline over {source} "
          f"({fanout.attributes['jobs']} shard worker(s))\n")
    print(obspans.render_span_table(spans))
    document = self_document(spans, index=arguments.index)
    pairs = self_imbalance(document)
    width = max(len(stage) for stage, _ in pairs)
    print(f"\nper-stage self-imbalance (index {arguments.index}, "
          "scaled by mean duration):")
    for stage, value in pairs:
        print(f"  {stage:<{width}s}  {value:.4g}")
    if arguments.report:
        print()
        print(render(document))
    profiled.write_trace()
    return 0


def _command_serve(arguments) -> int:
    import signal
    import socket

    from .serve import AnalysisServer, load_stack
    try:
        daemon = AnalysisServer(arguments.store, cache_dir=arguments.cache_dir,
                                verbose=arguments.verbose,
                                **_settings(arguments))
    except OSError as error:
        raise ReproError(
            f"cannot bind {arguments.host}:{arguments.port}: {error}")

    # The handlers do nothing: a signal only wakes the main thread,
    # through the byte the interpreter's C-level handler writes to the
    # wakeup socket, whichever thread (a BLAS worker included) took
    # it.  No handler touches a lock, so a signal that lands while the
    # main thread holds one (inside an Event.wait, say) cannot
    # deadlock, and a second signal during the drain changes nothing.
    wake, woken = socket.socketpair()
    woken.setblocking(False)
    previous = signal.set_wakeup_fd(woken.fileno())
    try:
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, lambda *_: None)
        daemon.start()
        host, port = daemon.address
        print(f"serving on http://{host}:{port} "
              f"(store: {daemon.store.directory}, "
              f"workers: {daemon.workers})", flush=True)
        if arguments.ready_file:
            Path(arguments.ready_file).write_text(f"{host} {port}\n")
        load_stack()
        wake.recv(1)
        print(f"shutting down: draining {daemon.runner.in_flight()} "
              "in-flight job(s)", flush=True)
        daemon.shutdown()
    finally:
        signal.set_wakeup_fd(previous)
        wake.close()
        woken.close()
    return 0


def _command_submit(arguments) -> int:
    from .serve.client import ServeClient
    meta = ServeClient(**_settings(arguments)).submit(arguments.tracefile,
                                                      name=arguments.name)
    verb = "stored" if meta["created"] else "already stored"
    note = " [salvaged]" if meta["salvaged"] else ""
    print(f"{verb} {meta['sha256']} ({meta['events']} events, "
          f"{meta['ranks']} ranks, {meta['n_bytes']} bytes){note}")
    return 0


def _command_fetch(arguments) -> int:
    import json as _json

    from .serve.client import ServeClient
    client = ServeClient(**_settings(arguments))
    target = Path(arguments.trace)
    if target.is_file():
        sha = client.submit(target)["sha256"]
    elif len(arguments.trace) == 64 \
            and all(c in "0123456789abcdef" for c in arguments.trace):
        sha = arguments.trace
    else:
        raise ReproError(f"{arguments.trace} is neither a readable "
                         "trace file nor a sha256 digest")
    params = {name: getattr(arguments, name)
              for name in param_names(arguments.kind, served=True)}
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
    "self": ("profile_out",),
    "serve": ("ready_file",),
}


def _check_arguments(arguments) -> None:
    """Fail fast on unreadable or unwritable file arguments and on
    refused report parameter or service setting values, before any
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
    for name in _DECLARED:
        if hasattr(arguments, name):
            check_param(name, getattr(arguments, name), _flag(name),
                        table=_DECLARED)
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
        _check_arguments(arguments)
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
