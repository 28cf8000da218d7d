"""The in-process side of a workload, run as its own process.

The load generator (``run.py``) never imports ``repro``: a child
process inherits its parent's peak RSS when it execs, so a large
generator would put a floor under every command's measured peak.
Everything that calls the package in-process happens here instead,
once per run and untimed by the end-to-end metrics:

* every generated trace is read once with ``repro.instrument.read_any``
  and must hold the promised event count;
* the local reference reports are rendered — what ``repro analyze``
  and ``repro temporal --windows 64`` print for each trace;
* with ``--trace-seconds``, the traced pass calls each layer's public
  entry point on the first trace, in pipeline order, and wraps every
  call in a span.  Spans are recorded here, around calls made from the
  benchmark — nothing inside ``src/`` is instrumented — and kept in
  memory until the pass ends.  A span has a name, start, end, parent
  and operation id (the repetition), so a layer's self time is its
  span's duration minus the time its child spans cover.  The tracing
  overhead is what one recorded span costs, timed over many empty
  spans, times the spans of one repetition.

Usage (``run.py`` does this)::

    python benchmarks/suite/inprocess.py --inputs DIR --names A B ... \
        --cold N --events M --out FILE [--trace-seconds S --spans FILE]
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List

from common import INDEX, SRC, WINDOWS

#: Shard workers, as in ``analyze --jobs 2``.
JOBS = 2
#: Cache reads, cache writes and cache-hit fetches timed per
#: repetition; each is too short to time alone.
SMALL_CALLS = 50
#: Traced repetitions made at the least, even past the deadline.  One
#: takes 15-25 s at the workloads' sizes, so a traced run stays well
#: inside its time limit.
MIN_REPETITIONS = 1
#: Empty spans timed to price one span.
PROBE_SPANS = 10000


class Spans:
    """In-memory span recorder."""

    def __init__(self) -> None:
        self.records: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, op: int) -> Iterator[None]:
        span_id = len(self.records)
        parent = self._stack[-1] if self._stack else None
        record = {"id": span_id, "name": name, "op": op, "parent": parent,
                  "start": 0.0, "end": 0.0}
        self.records.append(record)
        self._stack.append(span_id)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> Dict[str, List[float]]:
        """Self time of every span, grouped by name in recording order."""
        covered = [0.0] * len(self.records)
        for record in self.records:
            if record["parent"] is not None:
                covered[record["parent"]] += record["end"] - record["start"]
        grouped: Dict[str, List[float]] = {}
        for record, children in zip(self.records, covered):
            grouped.setdefault(record["name"], []).append(
                record["end"] - record["start"] - children)
        return grouped

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as stream:
            for record in self.records:
                stream.write(json.dumps(record, sort_keys=True) + "\n")


def references(paths: List[Path], cold: int, events: int) -> List[dict]:
    """Check each trace with ``read_any`` and render its reference
    reports (the temporal one only for the first ``cold`` traces)."""
    from repro.cli import render_analyze_report, render_temporal_report
    from repro.instrument import Tracer, profile, read_any, window_profiles

    rendered = []
    for index, path in enumerate(paths):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            decoded = read_any(path)
        tracer = Tracer()
        tracer.extend(decoded)
        entry = {"path": path.name, "events_read": len(decoded),
                 "events_ok": len(decoded) == events,
                 "analyze_text": render_analyze_report(profile(tracer))
                 + "\n", "temporal_text": None}
        if index < cold:
            entry["temporal_text"] = render_temporal_report(
                window_profiles(tracer, WINDOWS), len(tracer),
                index=INDEX) + "\n"
        rendered.append(entry)
    return rendered


def repetition(spans: Spans, op: int, trace: Path, scratch: Path) -> dict:
    """One pass over every layer; returns the counts it observed and
    the texts it rendered."""
    from repro import cli
    from repro.cache import ReportCache
    from repro.cli import render_analyze_report, render_temporal_report
    from repro.core import AnalysisSession
    from repro.core.online import OnlineAccumulator
    from repro.core.temporal import temporal_analysis
    from repro.instrument import (iter_any, profile, read_any_tracer,
                                  window_profiles)
    from repro.serve.jobs import JobRunner, build_report, normalize_params
    from repro.serve.store import TraceStore
    from repro.shards import accumulate_shard, plan_shards, shard_accumulate

    span = spans.span
    counts: dict = {}
    with span("pipeline", op):
        with span("decode.eager", op):
            tracer = read_any_tracer(trace)
        with span("decode.stream", op):
            chunks = list(iter_any(trace))
        counts["decode.events"] = len(tracer)
        counts["decode.chunks"] = len(chunks)
        counts["decode.bytes"] = trace.stat().st_size

        with span("accumulate.profile", op):
            measurements = profile(tracer)
        with span("accumulate.online", op):
            OnlineAccumulator().consume(chunks).finalize()
        # Later layers run with only what their CLI command holds alive.
        del chunks
        counts["accumulate.cells"] = measurements.times.size

        with span("shards.plan", op):
            shards = plan_shards(trace, JOBS)
        parts = []
        for shard in shards:
            with span("shards.map", op):
                parts.append(accumulate_shard(shard))
        with span("shards.merge", op):
            merged = parts[0]
            for part in parts[1:]:
                merged = merged.merge(part)
        with span("shards.pool", op):
            shard_accumulate(trace, jobs=JOBS)

        with span("window.eager", op):
            windows = window_profiles(tracer, WINDOWS)
        # The CLI's own two-pass streamed windowing, as `temporal
        # --stream` runs it: both decode passes count here.
        streamed = cli._build_parser().parse_args(
            ["temporal", str(trace), "--windows", str(WINDOWS), "--stream"])
        with span("window.stream", op):
            cli._streamed_windows(streamed, on_error="salvage")
        counts["window.cells"] = WINDOWS * measurements.times.size

        with span("analysis.analyze", op):
            session = AnalysisSession(measurements)
            session.analyze(index=INDEX)
        with span("render.analyze", op):
            analyze_text = render_analyze_report(
                measurements, index=INDEX, session=session) + "\n"
        with span("analysis.temporal", op):
            temporal_analysis(windows, index=INDEX)
        # render_temporal_report runs the temporal analysis itself; the
        # render layer's share is this span minus analysis.temporal.
        with span("render.temporal", op):
            temporal_text = render_temporal_report(
                windows, len(tracer), index=INDEX) + "\n"
        counts["render.bytes"] = len(analyze_text.encode("utf-8")) \
            + len(temporal_text.encode("utf-8"))

        store_dir = scratch / f"store-{op}"
        store = TraceStore(store_dir)
        with span("store.ingest", op):
            with open(trace, "rb") as stream:
                meta, _ = store.add_stream(stream, name=trace.name)
        counts["store.bytes"] = meta.n_bytes

        analyze_params = normalize_params("analyze", {"index": INDEX})
        temporal_params = normalize_params(
            "temporal", {"index": INDEX, "windows": WINDOWS})
        stored = store.path(meta.sha256)
        with span("jobs.build_analyze", op):
            build_report(stored, meta.sha256, "analyze", analyze_params)
        with span("jobs.build_temporal", op):
            build_report(stored, meta.sha256, "temporal", temporal_params)

        cache = ReportCache(store_dir / "cache")
        payload = json.dumps({"text": analyze_text})
        for call in range(SMALL_CALLS):
            with span("cache.put", op):
                cache.put(f"key-{call:03d}", payload)
        for call in range(SMALL_CALLS):
            with span("cache.get", op):
                cache.get(f"key-{call:03d}")

        runner = JobRunner(store, ReportCache(store_dir / "jobs"),
                           workers=1, max_queue=None)
        try:
            runner.fetch(meta.sha256, "analyze", analyze_params)
            for _ in range(SMALL_CALLS):
                with span("jobs.fetch_hit", op):
                    hit = runner.fetch(meta.sha256, "analyze",
                                       analyze_params)
        finally:
            runner.shutdown()
        shutil.rmtree(store_dir, ignore_errors=True)
    counts["texts"] = {"analyze": analyze_text, "temporal": temporal_text,
                       "fetch_hit": hit["text"]}
    return counts


def span_cost() -> float:
    """Seconds one recorded span adds around a call."""
    probe = Spans()
    started = time.perf_counter()
    for _ in range(PROBE_SPANS):
        with probe.span("probe", 0):
            pass
    traced = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(PROBE_SPANS):
        pass
    return (traced - (time.perf_counter() - started)) / PROBE_SPANS


def traced_pass(trace: Path, scratch: Path, seconds: float) -> dict:
    """Traced repetitions for ``seconds`` (at least
    :data:`MIN_REPETITIONS`), and the tracing overhead of one."""
    spans = Spans()
    deadline = time.perf_counter() + seconds
    op = 0
    while op < MIN_REPETITIONS or time.perf_counter() < deadline:
        counts = repetition(spans, op, trace, scratch)
        op += 1
    return {"spans": spans, "counts": counts, "reps": op,
            "overhead_s": span_cost() * len(spans.records) / op}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="in-process input checks, references and traced pass")
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--names", nargs="+", required=True,
                        help="trace file names; the first is traced")
    parser.add_argument("--cold", type=int, required=True,
                        help="traces that need a temporal reference")
    parser.add_argument("--events", type=int, required=True,
                        help="event count every trace promises")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace-seconds", type=float, default=0.0)
    parser.add_argument("--spans", type=Path)
    arguments = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    import repro

    paths = [arguments.inputs / name for name in arguments.names]
    result = {"repro_file": repro.__file__,
              "inputs": references(paths, arguments.cold, arguments.events),
              "traced": None}
    if arguments.trace_seconds > 0:
        scratch = arguments.out.parent / "traced"
        scratch.mkdir(exist_ok=True)
        traced = traced_pass(paths[0], scratch, arguments.trace_seconds)
        traced["spans"].write(arguments.spans)
        result["traced"] = {"self_times": traced["spans"].self_times(),
                            "counts": traced["counts"],
                            "reps": traced["reps"],
                            "overhead_s": traced["overhead_s"]}
    arguments.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
