"""Tests for the self-observability layer (repro.obs).

The load-bearing guarantees:

* spans cost (nearly) nothing while disabled and record begin/end/
  worker/attributes faithfully while enabled — including spans from
  multiprocessing shard and sweep workers, which come home with their
  task results under every start method, and never from a process the
  recording one did not start;
* a fold's span sites stay under 2 % of its wall time with recording
  off and under 10 % with it on;
* the self-trace serialization round-trips through the ordinary trace
  readers, so ``repro analyze`` accepts the tool's own profile;
* structured log records are one JSON object per line and carry the
  thread's request ID; the daemon echoes ``X-Request-Id`` end to end;
* ``/metrics`` speaks Prometheus text exposition under content
  negotiation while the bare-JSON contract stays byte-compatible;
* :class:`~repro.serve.metrics.LatencyWindow` reports the mean of the
  *retained window* — consistent with its quantiles — while keeping
  the lifetime totals for Retry-After and the Prometheus ``_sum``.
"""

import io
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import OnlineAccumulator
from repro.errors import ReproError
from repro.instrument import TraceEvent, iter_trace, write_trace
from repro.instrument.stream import instrument_chunks, iter_any
from repro.obs import (JsonLogger, NullLogger, PROM_CONTENT_TYPE, Span,
                       render_prometheus, render_span_table,
                       spans_to_tracer, summarize_spans, worker_ranks,
                       write_selftrace)
from repro.obs import log as obslog
from repro.obs import spans as obspans
from repro.obs.prom import escape_label_value, format_value, metric_name
from repro.obs.selftrace import self_document, self_imbalance
from repro.serve.metrics import LatencyWindow, ServiceMetrics


SRC = str(Path(__file__).resolve().parent.parent / "src")


def _python(*args, env=None):
    """Run a fresh interpreter with this checkout first on its path."""
    environ = dict(os.environ, **(env or {}))
    environ["PYTHONPATH"] = SRC + os.pathsep + environ.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, *args], env=environ,
                          capture_output=True, text=True, timeout=120)


@pytest.fixture(autouse=True)
def _clean_recorder():
    """Every test starts and ends with recording off."""
    obspans.disable()
    yield
    obspans.disable()


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class TestSpans:
    def test_disabled_span_is_shared_noop(self):
        first = obspans.span("stage")
        second = obspans.span("other", worker="w", detail=1)
        assert first is second          # no allocation on the hot path
        with first as live:
            assert live.set(more=2) is live
        assert obspans.drain() == []

    def test_enabled_span_records_interval_and_attributes(self):
        obspans.enable()
        with obspans.span("stage", activity="read", n=3) as live:
            live.set(m=4)
        (span,) = obspans.drain()
        assert span.name == "stage"
        assert span.activity == "read"
        assert span.attributes == {"n": 3, "m": 4}
        assert span.end >= span.begin
        assert span.worker == obspans.DEFAULT_WORKER

    def test_nested_spans_both_recorded(self):
        obspans.enable()
        with obspans.span("outer"):
            with obspans.span("inner"):
                pass
        spans = obspans.drain()
        names = {span.name for span in spans}
        assert names == {"outer", "inner"}
        outer = next(s for s in spans if s.name == "outer")
        inner = next(s for s in spans if s.name == "inner")
        assert outer.begin <= inner.begin and inner.end <= outer.end

    def test_span_recorded_even_when_body_raises(self):
        obspans.enable()
        with pytest.raises(ValueError):
            with obspans.span("doomed"):
                raise ValueError("boom")
        (span,) = obspans.drain()
        assert span.name == "doomed"

    def test_worker_label_is_thread_local(self):
        import threading
        obspans.enable()
        seen = {}

        def task(label):
            with obspans.worker_scope(label):
                seen[label] = obspans.current_worker()
                with obspans.span("work"):
                    pass

        threads = [threading.Thread(target=task, args=(f"w{i}",))
                   for i in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert seen == {"w0": "w0", "w1": "w1", "w2": "w2"}
        workers = {span.worker for span in obspans.drain()}
        assert workers == {"w0", "w1", "w2"}

    def test_drain_sorts_by_begin_and_clears(self):
        obspans.enable()
        with obspans.span("a"):
            pass
        with obspans.span("b"):
            pass
        spans = obspans.drain()
        assert [span.name for span in spans] == ["a", "b"]
        assert spans[0].begin <= spans[1].begin
        assert obspans.drain() == []

    def test_shard_workers_spans_reach_the_parent(self, tmp_path):
        from repro.calibrate import synthesize_paper_trace
        from repro.shards import shard_accumulate
        trace = tmp_path / "t.jsonl"
        synthesize_paper_trace(trace)
        obspans.enable()
        shard_accumulate(str(trace), jobs=2)
        spans = obspans.drain()
        for stage in ("shard_accumulate", "stream_decode"):
            assert {span.worker for span in spans if span.name == stage} \
                == {"shard-0", "shard-1"}
        # Parent spans exist once: none came back through a forked child.
        names = [span.name for span in spans]
        for stage in ("shard_plan", "shard_fanout", "shard_merge"):
            assert names.count(stage) == 1

    def test_sweep_workers_spans_reach_the_parent(self, tmp_path):
        from repro.calibrate import synthesize_paper_trace
        from repro.sweep import sweep_traces
        traces = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for trace in traces:
            synthesize_paper_trace(trace)
        obspans.enable()
        sweep_traces(traces, jobs=2, use_cache=False)
        spans = obspans.drain()
        for stage in ("temporal_fold", "temporal_trends"):
            workers = [span.worker for span in spans if span.name == stage]
            assert len(workers) == 2
            assert len(set(workers)) == 2
            assert all(worker.startswith("pid-") and
                       worker != f"pid-{os.getpid()}" for worker in workers)

    def test_sweep_bins_each_window_in_a_window_span(self, tmp_path):
        """Windows are built as the trend analysis asks for them, each
        in a ``window_bin`` span (activity ``window``) inside that
        worker's ``temporal_trends``, so the profile shows binning as
        windowing."""
        from repro.calibrate import synthesize_paper_trace
        from repro.sweep import sweep_traces
        traces = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for trace in traces:
            synthesize_paper_trace(trace)
        obspans.enable()
        sweep_traces(traces, {"windows": 5}, jobs=2, use_cache=False)
        spans = obspans.drain()
        bins = [span for span in spans if span.name == "window_bin"]
        assert len(bins) == 2 * 5
        assert {span.activity for span in bins} == {"window"}
        for trends in (span for span in spans
                       if span.name == "temporal_trends"):
            inside = [span for span in bins
                      if span.worker == trends.worker]
            assert len(inside) == 5
            assert all(trends.begin <= span.begin <= span.end
                       <= trends.end for span in inside)

    def test_temporal_report_records_its_two_stages(self, tmp_path):
        """Every temporal report (command, daemon job, sweep worker)
        records one ``temporal_fold`` and one ``temporal_trends``, the
        windows binned inside the second."""
        from repro.calibrate import synthesize_paper_trace
        from repro.reports import build_report
        trace = tmp_path / "t.jsonl"
        synthesize_paper_trace(trace)
        obspans.enable()
        build_report("temporal", trace, {"windows": 3})
        spans = obspans.drain()
        names = [span.name for span in spans]
        assert names.count("temporal_fold") == 1
        [trends] = [span for span in spans
                    if span.name == "temporal_trends"]
        bins = [span for span in spans if span.name == "window_bin"]
        assert len(bins) == 3
        assert all(trends.begin <= span.begin <= span.end <= trends.end
                   for span in bins)

    def test_shard_spans_agree_under_every_start_method(self, tmp_path):
        from repro.calibrate import synthesize_paper_trace
        trace = tmp_path / "t.jsonl"
        synthesize_paper_trace(trace)
        script = (
            "import json, multiprocessing, sys\n"
            "from repro.obs import spans as obspans\n"
            "from repro.shards import shard_accumulate\n"
            "multiprocessing.set_start_method(sys.argv[1])\n"
            "obspans.enable()\n"
            "shard_accumulate(sys.argv[2], jobs=2)\n"
            "print(json.dumps(sorted([span.name, span.worker]\n"
            "                        for span in obspans.drain())))\n")
        pairs = {}
        for method in multiprocessing.get_all_start_methods():
            run = _python("-c", script, method, str(trace))
            assert run.returncode == 0, run.stderr
            pairs[method] = json.loads(run.stdout)
        first = next(iter(pairs.values()))
        assert ["shard_accumulate", "shard-1"] in first
        assert all(found == first for found in pairs.values()), pairs

    def test_unrelated_process_spans_do_not_leak_in(self, tmp_path):
        """A child the recording process starts, which never asked for
        spans, adds none of its workers' spans to this process's."""
        from repro.calibrate import synthesize_paper_trace
        trace = tmp_path / "t.jsonl"
        synthesize_paper_trace(trace)
        obspans.enable()
        with obspans.span("own"):
            run = _python("-m", "repro", "analyze", str(trace),
                          "--jobs", "2")
        assert run.returncode == 0, run.stderr
        assert [span.name for span in obspans.drain()] == ["own"]

    @pytest.mark.parametrize("verb", ["analyze", "sweep"])
    def test_former_spool_variable_is_ignored(self, tmp_path, verb):
        """REPRO_SPAN_SPOOL once named a spool directory; pointing it
        at a missing one changes nothing and creates no file."""
        from repro.calibrate import synthesize_paper_trace
        fleet = tmp_path / "fleet"
        fleet.mkdir()
        for name in ("a.jsonl", "b.jsonl"):
            synthesize_paper_trace(fleet / name)
        argv = (["analyze", str(fleet / "a.jsonl")] if verb == "analyze"
                else ["temporal", "--sweep", str(fleet), "--no-cache"])
        before = sorted(tmp_path.rglob("*"))
        run = _python("-m", "repro", *argv, "--jobs", "2",
                      env={"REPRO_SPAN_SPOOL":
                           str(tmp_path / "missing" / "spool")})
        assert run.returncode == 0, run.stderr
        assert sorted(tmp_path.rglob("*")) == before

    def test_summary_and_table(self):
        spans = [Span("a", 0.0, 1.0, worker="w0"),
                 Span("a", 0.0, 3.0, worker="w1"),
                 Span("b", 1.0, 1.5)]
        by_name = {s.name: s for s in summarize_spans(spans)}
        assert by_name["a"].count == 2
        assert by_name["a"].total == pytest.approx(4.0)
        assert by_name["a"].largest == pytest.approx(3.0)
        assert by_name["a"].workers == 2
        table = render_span_table(spans)
        assert "stage" in table and "a" in table and "b" in table

    def test_empty_table_raises(self):
        with pytest.raises(ReproError):
            render_span_table([])


# ----------------------------------------------------------------------
# Overhead: span sites x cost per site against the fold's wall time
# ----------------------------------------------------------------------
#: Ceilings on the span sites' share of a fold's wall time, with
#: recording off (the default) and on (``--profile``).
DISABLED_OVERHEAD_CEILING = 0.02
ENABLED_OVERHEAD_CEILING = 0.10


def fold_events(count):
    """A deterministic 8-rank trace over three regions."""
    rng = np.random.default_rng(count)
    clock = np.zeros(8)
    for index in range(count):
        rank = index % 8
        duration = float(rng.uniform(1e-4, 1e-3))
        yield TraceEvent(rank, f"loop {index % 3 + 1}",
                         ("computation", "communication")[index % 2],
                         float(clock[rank]), float(clock[rank]) + duration)
        clock[rank] += duration


def fold(chunks):
    return OnlineAccumulator().consume(chunks).finalize()


def span_site_seconds(calls=200_000, batch=10_000):
    """Seconds one decode-shaped span site costs in the recorder's
    current state; recorded spans are drained between batches, outside
    the timing."""
    elapsed = 0.0
    for _ in range(calls // batch):
        start = time.perf_counter()
        for _ in range(batch):
            with obspans.span("site", activity="decode", trace="t") as live:
                live.set(events=1)
        elapsed += time.perf_counter() - start
        obspans.drain()
    return elapsed / calls


class TestOverhead:
    """Timing the same fold with and without spans compares two noisy
    wall times; instead, the span sites one fold runs (counted from an
    enabled run) times the cost of one site (averaged over 200k calls)
    must stay under a ceiling share of the fold's uninstrumented time."""

    def test_span_sites_stay_under_the_ceilings(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        write_trace(trace, fold_events(20_000))
        # Disabled, a decode stage is the reader's own iterator: the
        # fold runs no span site per chunk.
        chunks = iter_any(str(trace))
        assert instrument_chunks(chunks, "stage", trace) is chunks

        baseline, plain = float("inf"), None
        for _ in range(3):
            start = time.perf_counter()
            plain = fold(iter_trace(trace, chunk_size=512))
            baseline = min(baseline, time.perf_counter() - start)
        obspans.enable()
        profiled = fold(iter_any(trace, chunk_size=512))
        sites = len(obspans.drain())
        enabled_cost = span_site_seconds()
        obspans.disable()
        disabled_cost = span_site_seconds()

        np.testing.assert_array_equal(profiled.times, plain.times)
        assert sites > 20_000 // 512
        assert sites * disabled_cost < DISABLED_OVERHEAD_CEILING * baseline
        assert sites * enabled_cost < ENABLED_OVERHEAD_CEILING * baseline


# ----------------------------------------------------------------------
# Self-traces (dogfooding)
# ----------------------------------------------------------------------
class TestSelfTrace:
    SPANS = [Span("plan", 10.0, 10.5, worker="main", activity="plan"),
             Span("work", 10.5, 12.0, worker="shard-0"),
             Span("work", 10.6, 13.0, worker="shard-1"),
             Span("merge", 13.0, 13.2, worker="main", activity="merge")]

    def test_worker_ranks_dense_first_appearance(self):
        assert worker_ranks(self.SPANS) == {"main": 0, "shard-0": 1,
                                            "shard-1": 2}

    def test_tracer_shifts_origin_and_maps_fields(self):
        tracer = spans_to_tracer(self.SPANS)
        assert len(tracer) == 4
        first = min(tracer.events, key=lambda event: event.begin)
        assert first.begin == 0.0
        regions = {event.region for event in tracer.events}
        assert regions == {"plan", "work", "merge"}
        assert all(event.kind == "compute" for event in tracer.events)

    def test_empty_spans_raise(self):
        with pytest.raises(ReproError):
            spans_to_tracer([])

    def test_selftrace_round_trips_through_read_trace(self, tmp_path):
        from repro.instrument import profile, read_trace, read_tracer
        path = tmp_path / "self.jsonl"
        count = write_selftrace(path, self.SPANS)
        assert count == 4
        assert len(read_trace(path)) == 4
        measurements = profile(read_tracer(path))
        assert "work" in measurements.regions
        assert measurements.n_processors == 3

    def test_self_imbalance_is_nan_free(self):
        pairs = self_imbalance(self_document(self.SPANS))
        assert pairs and all(math.isfinite(value) for _, value in pairs)
        by_stage = dict(pairs)
        # Two workers with different durations: some dispersion.
        assert by_stage["work"] > 0.0

    def test_self_imbalance_single_worker_is_zero_not_nan(self):
        spans = [Span("only", 0.0, 1.0, worker="main")]
        assert self_imbalance(self_document(spans)) == [("only", 0.0)]

    def test_cli_self_verb_round_trip(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "self.jsonl"
        assert main(["self", "--jobs", "1",
                     "--trace", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "Pipeline profile" in stdout
        assert "per-stage self-imbalance" in stdout
        assert main(["analyze", str(out)]) == 0

    def test_cli_self_counts_the_workers_that_ran(self, tmp_path,
                                                  capsys):
        """A gzip trace is one shard, folded inline, whatever --jobs
        asks for."""
        from repro.calibrate import synthesize_paper_trace
        from repro.cli import main
        trace = tmp_path / "t.jsonl.gz"
        synthesize_paper_trace(trace)
        assert main(["self", str(trace), "--jobs", "2"]) == 0
        stdout = capsys.readouterr().out
        assert "(1 shard worker(s))" in stdout.splitlines()[0]

    def test_cli_analyze_profile_prints_stage_table(self, tmp_path,
                                                    capsys):
        from repro.calibrate import synthesize_paper_trace
        from repro.cli import main
        trace = tmp_path / "t.jsonl"
        synthesize_paper_trace(trace)
        assert main(["analyze", "--profile", "--jobs", "2",
                     str(trace)]) == 0
        stdout = capsys.readouterr().out
        assert "Pipeline profile" in stdout
        assert "shard_accumulate" in stdout

    def test_cli_temporal_profile_shows_window_binning(self, tmp_path,
                                                       capsys):
        from repro.calibrate import synthesize_paper_trace
        from repro.cli import main
        trace = tmp_path / "t.jsonl"
        synthesize_paper_trace(trace)
        assert main(["temporal", "--profile", "--windows", "6",
                     str(trace)]) == 0
        rows = {line.split()[0]: line.split()[1]
                for line in capsys.readouterr().out.splitlines()
                if line.startswith(("window_bin ", "stream_decode "))}
        assert rows["window_bin"] == "6"
        assert "stream_decode" in rows

    def test_cli_profile_does_not_change_report_bytes(self, tmp_path,
                                                      capsys):
        from repro.calibrate import synthesize_paper_trace
        from repro.cli import main
        trace = tmp_path / "t.jsonl"
        synthesize_paper_trace(trace)
        assert main(["analyze", str(trace)]) == 0
        plain = capsys.readouterr().out
        assert main(["analyze", "--profile", str(trace)]) == 0
        profiled = capsys.readouterr().out
        assert profiled.startswith(plain.rstrip("\n"))
        assert "Pipeline profile" in profiled
        assert "Pipeline profile" not in plain


    def test_cli_self_report_analyzes_the_self_trace_once(
            self, tmp_path, capsys, monkeypatch):
        """``repro self --report`` builds one document of its self-trace;
        the self-imbalance rows and the report text both come from it,
        in the order: header, stage table, rows, report, written trace."""
        import repro.obs.selftrace as selftrace
        from repro.cli import main
        from repro.instrument import read_trace
        from repro.reports import render
        documents = []

        def counted(*args, **kwargs):
            documents.append(real(*args, **kwargs))
            return documents[-1]

        real = selftrace.analyze_document
        monkeypatch.setattr(selftrace, "analyze_document", counted)
        out = tmp_path / "self.jsonl"
        assert main(["self", "--jobs", "1", "--report",
                     "--trace", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert len(documents) == 1
        document, = documents
        rows = self_imbalance(document)
        width = max(len(stage) for stage, _ in rows)
        tail = "".join(
            ["\nper-stage self-imbalance (index euclidean, scaled by mean "
             "duration):\n"]
            + [f"  {stage:<{width}s}  {value:.4g}\n" for stage, value in rows]
            + ["\n", render(document), "\n\n",
               f"wrote {len(read_trace(out))} self-trace events to {out}\n"])
        head = ("profiled the analysis pipeline over synthesized paper "
                "trace (1 shard worker(s))\n\n")
        assert stdout.startswith(head) and stdout.endswith(tail)
        table = stdout[len(head):-len(tail)]
        assert table.startswith("Pipeline profile")
        assert "Wall clock time (s) per region and activity" in tail


# ----------------------------------------------------------------------
# Structured logging and request IDs
# ----------------------------------------------------------------------
class TestJsonLogger:
    def test_one_json_object_per_line(self):
        stream = io.StringIO()
        logger = JsonLogger(stream, name="test", clock=lambda: 12.5)
        logger.info("started", port=80)
        logger.error("failed", reason="boom")
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        first, second = (json.loads(line) for line in lines)
        assert first == {"ts": 12.5, "level": "info", "logger": "test",
                         "event": "started", "port": 80}
        assert second["level"] == "error"
        assert second["reason"] == "boom"

    def test_request_id_picked_up_from_thread_scope(self):
        stream = io.StringIO()
        logger = JsonLogger(stream, clock=lambda: 0.0)
        with obslog.request_scope("abc123"):
            logger.info("inside")
        logger.info("outside")
        inside, outside = (json.loads(line)
                           for line in stream.getvalue().splitlines())
        assert inside["request_id"] == "abc123"
        assert "request_id" not in outside

    def test_request_scope_restores_previous(self):
        obslog.set_request_id("outer")
        with obslog.request_scope("inner"):
            assert obslog.get_request_id() == "inner"
        assert obslog.get_request_id() == "outer"
        obslog.set_request_id(None)

    def test_unserializable_values_are_stringified(self):
        stream = io.StringIO()
        logger = JsonLogger(stream, clock=lambda: 0.0)
        logger.info("odd", value=object())
        record = json.loads(stream.getvalue())
        assert isinstance(record["value"], str)

    def test_broken_stream_is_ignored(self):
        class Broken:
            def write(self, text):
                raise OSError("gone")

            def flush(self):
                raise OSError("gone")

        logger = JsonLogger(Broken(), clock=lambda: 0.0)
        record = logger.info("still_returns")      # must not raise
        assert record["event"] == "still_returns"

    def test_child_shares_stream(self):
        stream = io.StringIO()
        parent = JsonLogger(stream, name="serve", clock=lambda: 0.0)
        parent.child("jobs").info("queued")
        assert json.loads(stream.getvalue())["logger"] == "jobs"

    def test_null_logger_writes_nothing_anywhere(self, capsys):
        logger = NullLogger()
        assert logger.child("x") is logger
        record = logger.info("evt", a=1)
        assert record["a"] == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == ""

    def test_new_request_ids_are_unique(self):
        ids = {obslog.new_request_id() for _ in range(64)}
        assert len(ids) == 64


# ----------------------------------------------------------------------
# Latency window consistency (the satellite fix)
# ----------------------------------------------------------------------
class TestLatencyWindow:
    def test_windowed_mean_matches_retained_samples(self):
        window = LatencyWindow(maxlen=4)
        for value in (1.0, 2.0, 3.0, 4.0, 100.0):
            window.observe(value)
        # The window retains (2, 3, 4, 100): mean must describe those,
        # consistently with the quantiles computed from them.
        snapshot = window.snapshot()
        assert snapshot["mean_seconds"] == pytest.approx(109.0 / 4)
        assert snapshot["count"] == 5
        assert snapshot["total_seconds"] == pytest.approx(110.0)
        assert window.mean() == pytest.approx(109.0 / 4)

    def test_lifetime_mean_still_available(self):
        window = LatencyWindow(maxlen=2)
        for value in (1.0, 1.0, 10.0):
            window.observe(value)
        assert window.total == pytest.approx(12.0)
        assert window.count == 3

    def test_empty_window_snapshot(self):
        snapshot = LatencyWindow().snapshot()
        assert snapshot["count"] == 0
        assert snapshot["mean_seconds"] is None
        assert snapshot["p50_seconds"] is None
        assert snapshot["total_seconds"] == 0.0

    def test_quantiles_and_mean_agree_on_small_windows(self):
        window = LatencyWindow(maxlen=8)
        window.observe(2.0)
        snapshot = window.snapshot()
        assert snapshot["mean_seconds"] == snapshot["p50_seconds"] == 2.0

    def test_service_metrics_retry_after_uses_lifetime_mean(self):
        metrics = ServiceMetrics()
        window = LatencyWindow(maxlen=1)
        metrics._latencies["analyze"] = window
        window.observe(4.0)
        window.observe(2.0)
        # Windowed mean (last sample only) is 2; lifetime mean is 3.
        assert window.mean() == pytest.approx(2.0)
        assert metrics.mean_seconds("analyze") == pytest.approx(3.0)


# ----------------------------------------------------------------------
# Prometheus exposition
# ----------------------------------------------------------------------
class TestPrometheus:
    def test_metric_name_sanitizes(self):
        assert metric_name("repro", "jobs-active") == "repro_jobs_active"
        assert metric_name("repro", "a.b c") == "repro_a_b_c"
        name = metric_name("9repro", "x")
        assert name[0] not in "0123456789"

    def test_escape_label_value(self):
        assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'

    def test_format_value(self):
        assert format_value(True) == "1"
        assert format_value(3.0) == "3"
        assert format_value(2.5) == "2.5"
        assert format_value(float("nan")) == "NaN"
        assert format_value(float("inf")) == "+Inf"

    def test_render_counters_gauges_and_summaries(self):
        metrics = ServiceMetrics()
        metrics.count("requests_total")
        metrics.count("jobs_done")
        metrics.gauge("jobs_active", 2)
        metrics.observe("analyze", 0.5)
        text = render_prometheus(metrics.snapshot())
        assert text.endswith("\n")
        lines = text.splitlines()
        assert "repro_requests_total 1" in lines
        assert "repro_jobs_done_total 1" in lines
        assert "repro_jobs_active 2" in lines
        assert ('repro_latency_seconds{family="analyze",'
                'quantile="0.5"} 0.5') in lines
        assert 'repro_latency_seconds_count{family="analyze"} 1' in lines
        assert 'repro_latency_seconds_sum{family="analyze"} 0.5' in lines
        # One TYPE declaration per family, even with many counters.
        assert sum(1 for line in lines
                   if line.startswith("# TYPE repro_latency_seconds ")) == 1

    def test_extra_sections_flatten_to_gauges(self):
        snapshot = {"uptime_seconds": 1.5, "counters": {}, "gauges": {},
                    "latency": {},
                    "store": {"n_traces": 3, "bytes": 1024,
                              "name": "skipped-not-numeric"}}
        text = render_prometheus(snapshot)
        assert "repro_store_n_traces 3" in text
        assert "repro_store_bytes 1024" in text
        assert "skipped" not in text

    def test_uptime_present(self):
        text = render_prometheus(ServiceMetrics().snapshot())
        assert "repro_uptime_seconds" in text


# ----------------------------------------------------------------------
# Daemon integration: negotiation and request IDs
# ----------------------------------------------------------------------
@pytest.fixture()
def server(tmp_path):
    from repro.serve import AnalysisServer
    with AnalysisServer(tmp_path / "store", port=0, workers=1) as daemon:
        yield daemon


def _raw(server, method, path, headers=None, body=None):
    import http.client
    host, port = server.address
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), \
            response.read()
    finally:
        conn.close()


class TestServeObservability:
    def test_metrics_defaults_to_json(self, server):
        status, headers, body = _raw(server, "GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        payload = json.loads(body)
        assert "counters" in payload and "latency" in payload

    def test_metrics_negotiates_prometheus_text(self, server):
        status, headers, body = _raw(
            server, "GET", "/metrics",
            headers={"Accept": "text/plain"})
        assert status == 200
        assert headers["Content-Type"] == PROM_CONTENT_TYPE
        text = body.decode("utf-8")
        assert "# TYPE repro_uptime_seconds gauge" in text
        assert "repro_requests_total" in text

    def test_openmetrics_accept_also_negotiates_text(self, server):
        status, headers, _ = _raw(
            server, "GET", "/metrics",
            headers={"Accept": "application/openmetrics-text"})
        assert status == 200
        assert headers["Content-Type"] == PROM_CONTENT_TYPE

    def test_explicit_json_accept_stays_json(self, server):
        status, headers, _ = _raw(
            server, "GET", "/metrics",
            headers={"Accept": "application/json"})
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")

    def test_request_id_echoed_when_supplied(self, server):
        _, headers, _ = _raw(server, "GET", "/healthz",
                             headers={"X-Request-Id": "cafe01"})
        assert headers["X-Request-Id"] == "cafe01"

    def test_request_id_generated_when_absent(self, server):
        _, first_headers, _ = _raw(server, "GET", "/healthz")
        _, second_headers, _ = _raw(server, "GET", "/healthz")
        first = first_headers["X-Request-Id"]
        second = second_headers["X-Request-Id"]
        assert first and second and first != second

    def test_error_body_carries_request_id(self, server):
        status, headers, body = _raw(server, "GET", "/nope",
                                     headers={"X-Request-Id": "feed02"})
        assert status == 404
        assert headers["X-Request-Id"] == "feed02"
        assert json.loads(body)["request_id"] == "feed02"

    def test_client_generates_stable_id_across_retries(self):
        from repro.serve.client import ServeClient
        client = ServeClient("http://127.0.0.1:9", retries=0)
        with pytest.raises(ReproError):
            client.health()

    def test_verbose_daemon_writes_json_access_log(self, tmp_path,
                                                   capsys):
        from repro.serve import AnalysisServer
        with AnalysisServer(tmp_path / "store", port=0, workers=1,
                            verbose=True) as daemon:
            _raw(daemon, "GET", "/healthz",
                 headers={"X-Request-Id": "beef03"})
        err = capsys.readouterr().err
        records = [json.loads(line) for line in err.splitlines()
                   if line.startswith("{")]
        access = [r for r in records if r.get("event") == "request"]
        assert access
        assert access[-1]["path"] == "/healthz"
        assert access[-1]["status"] == 200
        assert access[-1]["request_id"] == "beef03"
