"""Tests for the analysis service daemon (repro.serve).

The load-bearing guarantees:

* a report fetched from the daemon is **byte-identical** to the
  corresponding CLI command's stdout for the same trace and parameters
  (golden test on the synthesized paper trace, all four job kinds);
* the trace store is content-addressed and idempotent, validating
  ingests with the salvage-tolerant readers;
* concurrent requests for the same report trigger **one** computation
  (single-flight), and a daemon restarted over the same store serves
  yesterday's reports from the shared cache without recomputing;
* shutdown drains in-flight jobs (their results land in the cache) and
  a SIGTERM'd ``repro serve`` process exits cleanly without dropping a
  submitted trace; an idle daemon stops at once;
* ``repro serve`` is ready before it loads its job stack, and requests
  sent the instant it is ready get the CLI's bytes;
* a cache hit pays a file read and a JSON hop, never the pipeline: a
  daemon under its size caps serves at least :data:`MIN_HIT_RPS`
  cached reports per second.
"""

import gzip
import hashlib
import http.client
import http.server
import io
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

import pytest

from repro.cache import ReportCache
from repro.cli import main
from repro.errors import ReproError, TraceError
from repro.serve import (AnalysisServer, JobRunner, QueueFullError,
                         ServeClient, ServiceDrainingError,
                         ServiceMetrics, TraceStore, normalize_params,
                         trace_sha256)

GOLDEN = Path(__file__).resolve().parent.parent / "docs" / "paper_report.txt"

#: Least cache-hit fetches per second: 120 of them over 4 client threads.
MIN_HIT_RPS = 100.0


@pytest.fixture(scope="module")
def paper_trace(tmp_path_factory):
    """The synthesized paper trace (profile == the paper's dataset)."""
    from repro.calibrate import synthesize_paper_trace
    path = tmp_path_factory.mktemp("paper") / "paper.jsonl"
    synthesize_paper_trace(path)
    return str(path)


@pytest.fixture()
def server(tmp_path):
    with AnalysisServer(tmp_path / "store", port=0, workers=2) as daemon:
        yield daemon


@pytest.fixture()
def client(server):
    return ServeClient(server.url)


def cli_stdout(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        assert main(argv) == 0
    return buffer.getvalue()


def raw_request(server, method, path, body=None, headers=None):
    """One request via http.client, returning (status, headers, payload).

    Unlike :class:`ServeClient` this neither retries nor raises, so
    tests can inspect the exact status line and headers of one
    response (429 Retry-After, 400 on malformed headers, ...).
    """
    host, port = server.address
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.putrequest(method, path)
        for name, value in (headers or {}).items():
            conn.putheader(name, value)
        if body is not None and "Content-Length" not in (headers or {}):
            conn.putheader("Content-Length", str(len(body)))
        conn.endheaders()
        if body:
            conn.send(body)
        response = conn.getresponse()
        payload = json.loads(response.read().decode("utf-8"))
        return response.status, dict(response.getheaders()), payload
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Byte-identity: the acceptance bar
# ----------------------------------------------------------------------
class TestByteIdentity:
    @pytest.mark.parametrize("kind,argv,params", [
        ("analyze", ["analyze", "{t}"], {}),
        ("diagnose", ["analyze", "{t}", "--diagnose"], {}),
        ("whatif", ["analyze", "{t}", "--whatif"], {}),
        ("temporal", ["temporal", "{t}", "--windows", "8"],
         {"windows": 8}),
    ])
    def test_served_report_matches_cli_stdout(self, client, paper_trace,
                                              kind, argv, params):
        sha = client.submit(paper_trace)["sha256"]
        payload = client.report(sha, kind, **params)
        expected = cli_stdout([part.format(t=paper_trace)
                               for part in argv])
        assert payload["text"] == expected
        assert payload["status"] == "ok"
        assert not payload["cached"]
        # Second fetch: served from the on-disk cache, same bytes.
        again = client.report(sha, kind, **params)
        assert again["cached"]
        assert again["text"] == expected

    def test_temporal_build_runs_the_analysis_once(self, paper_trace,
                                                   monkeypatch):
        import repro.core.temporal as temporal
        import repro.serve.jobs as jobs
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        # repro.reports runs the analysis, importing it from its owner,
        # repro.core.temporal, at call time.
        original = temporal.temporal_analysis
        monkeypatch.setattr(temporal, "temporal_analysis", counted)
        payload = jobs.build_report(paper_trace, trace_sha256(paper_trace),
                                    "temporal",
                                    {"index": "euclidean", "windows": 8})
        assert len(calls) == 1
        assert payload["text"] == cli_stdout(
            ["temporal", paper_trace, "--windows", "8"])

    def test_analyze_serves_the_golden_bytes(self, client, paper_trace):
        sha = client.submit(paper_trace)["sha256"]
        assert client.fetch_text(sha) == GOLDEN.read_text()

    def test_fetch_cli_verb_is_byte_identical(self, server, paper_trace,
                                              capsys):
        assert main(["fetch", paper_trace, "--url", server.url]) == 0
        assert capsys.readouterr().out == GOLDEN.read_text()

    def test_structured_report_rides_along(self, client, paper_trace):
        sha = client.submit(paper_trace)["sha256"]
        report = client.report(sha, "analyze")["report"]
        assert report["schema"] == "repro-report/2"
        assert report["program"]["n_processors"] == 16
        assert set(report["dispersion"]) \
            == set(report["program"]["regions"])


# ----------------------------------------------------------------------
# The content-addressed store
# ----------------------------------------------------------------------
class TestTraceStore:
    def test_submit_is_idempotent(self, client, paper_trace):
        first = client.submit(paper_trace)
        again = client.submit(paper_trace)
        assert first["created"] and not again["created"]
        assert first["sha256"] == again["sha256"] \
            == trace_sha256(paper_trace)
        assert len(client.traces()) == 1

    def test_metadata_round_trip(self, client, paper_trace):
        sha = client.submit(paper_trace)["sha256"]
        meta = client.trace(sha)
        assert meta["events"] == 289
        assert meta["ranks"] == 16
        assert meta["format"] == "jsonl"
        assert meta["name"] == "paper.jsonl"

    def test_unreadable_payload_is_rejected(self, client):
        with pytest.raises(ReproError, match="400"):
            client.submit(b"this is not a trace\n")
        with pytest.raises(ReproError, match="400"):
            client.submit(b"")
        assert client.traces() == []

    def test_salvageable_damage_is_accepted_and_flagged(self, client,
                                                        paper_trace):
        damaged = Path(paper_trace).read_bytes()[:-40]
        meta = client.submit(damaged, name="torn.jsonl")
        assert meta["salvaged"]
        assert meta["events"] < 289

    def test_binary_format_sniffed_from_bytes(self, tmp_path, client,
                                              paper_trace):
        from repro.instrument import read_any, write_binary_trace
        binary = tmp_path / "paper.rptb"
        write_binary_trace(binary, read_any(paper_trace))
        meta = client.submit(binary)
        assert meta["format"] == "rptb"
        assert meta["events"] == 289

    def test_store_api_direct(self, tmp_path, paper_trace):
        store = TraceStore(tmp_path / "direct")
        meta, created = store.add_file(paper_trace)
        assert created
        assert meta.sha256 in store
        assert store.path(meta.sha256).read_bytes() \
            == Path(paper_trace).read_bytes()
        with pytest.raises(TraceError):
            store.path("0" * 64)
        with pytest.raises(TraceError):
            store.get("0" * 64)


# ----------------------------------------------------------------------
# Jobs: validation, single-flight, cache persistence
# ----------------------------------------------------------------------
class TestJobValidation:
    def test_normalize_fills_defaults(self):
        assert normalize_params("analyze", None) == {"index": "euclidean"}
        assert normalize_params("temporal", {"windows": 4}) \
            == {"index": "euclidean", "windows": 4}

    @pytest.mark.parametrize("kind,params", [
        ("nonsense", {}),
        ("analyze", {"windows": 4}),
        ("analyze", {"index": ""}),
        ("temporal", {"windows": 0}),
        ("temporal", {"windows": 1 << 20}),
        ("temporal", {"windows": True}),
        ("analyze", {"frobnicate": 1}),
    ])
    def test_bad_parameters_rejected(self, kind, params):
        with pytest.raises(ReproError):
            normalize_params(kind, params)

    def test_http_rejects_bad_requests(self, client, paper_trace):
        sha = client.submit(paper_trace)["sha256"]
        with pytest.raises(ReproError, match="400"):
            client.report(sha, "nonsense")
        with pytest.raises(ReproError, match="400"):
            client.report(sha, "analyze", windows=4)
        with pytest.raises(ReproError, match="404"):
            client.report("0" * 64, "analyze")

    def test_unknown_index_is_refused_before_any_job(self, client,
                                                     paper_trace):
        sha = client.submit(paper_trace)["sha256"]
        with pytest.raises(ReproError, match="400"):
            client.report(sha, "analyze", index="no-such-index")
        # Refused while validating the parameters: no job ran or failed.
        assert client.metrics()["counters"].get("jobs_failed", 0) == 0
        assert client.fetch_text(sha) == GOLDEN.read_text()


class TestSingleFlight:
    def test_concurrent_identical_requests_compute_once(
            self, tmp_path, paper_trace, monkeypatch):
        """Two threads ask for the same uncached report; the in-flight
        table guarantees exactly one build_report call and identical
        payloads for both."""
        import repro.serve.jobs as jobs_module
        store = TraceStore(tmp_path / "store")
        meta, _ = store.add_file(paper_trace)
        calls = []
        release = threading.Event()
        real_build = jobs_module.build_report

        def slow_build(path, sha, kind, params):
            calls.append(kind)
            release.wait(timeout=10)
            return real_build(path, sha, kind, params)

        monkeypatch.setattr(jobs_module, "build_report", slow_build)
        runner = JobRunner(store, ReportCache(tmp_path / "cache"),
                           metrics=ServiceMetrics(), workers=2)
        results = []

        def fetch():
            results.append(runner.fetch(meta.sha256, "analyze"))

        threads = [threading.Thread(target=fetch) for _ in range(2)]
        for thread in threads:
            thread.start()
        # Both requests are now either merged onto the one in-flight
        # future or one of them finished; let the computation proceed.
        time.sleep(0.2)
        release.set()
        for thread in threads:
            thread.join(timeout=30)
        runner.shutdown()
        assert calls == ["analyze"]
        assert len(results) == 2
        assert results[0]["text"] == results[1]["text"] \
            == GOLDEN.read_text()

    def test_http_concurrent_submissions_compute_once(self, server,
                                                      client,
                                                      paper_trace):
        """The satellite's threaded test at the HTTP layer: the same
        trace submitted twice concurrently triggers one computation and
        both callers get identical payloads."""
        sha = client.submit(paper_trace)["sha256"]
        results = []

        def fetch():
            results.append(ServeClient(server.url).report(sha, "analyze"))

        threads = [threading.Thread(target=fetch) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert len(results) == 4
        texts = {payload["text"] for payload in results}
        assert texts == {GOLDEN.read_text()}
        counters = client.metrics()["counters"]
        assert counters["jobs_computed"] == 1
        assert counters["report_cache_misses"] == 1

    def test_restarted_daemon_serves_from_the_shared_cache(
            self, tmp_path, paper_trace):
        with AnalysisServer(tmp_path / "store", port=0) as first:
            sha = ServeClient(first.url).submit(paper_trace)["sha256"]
            text = ServeClient(first.url).fetch_text(sha)
        with AnalysisServer(tmp_path / "store", port=0) as second:
            revived = ServeClient(second.url)
            payload = revived.report(sha, "analyze")
            assert payload["cached"]
            assert payload["text"] == text
            counters = revived.metrics()["counters"]
            assert counters.get("jobs_computed", 0) == 0


class TestCacheHitThroughput:
    def test_hits_sustain_the_floor_under_the_size_caps(self, tmp_path,
                                                        paper_trace):
        requests, threads, cap = 120, 4, 1 << 20
        store = tmp_path / "store"
        with AnalysisServer(store, port=0, workers=threads,
                            max_cache_bytes=cap,
                            max_store_bytes=cap) as daemon:
            clients = [ServeClient(daemon.url) for _ in range(threads)]
            sha = clients[0].submit(paper_trace)["sha256"]
            cold = clients[0].report(sha, "analyze")
            assert cold["status"] == "ok" and not cold["cached"]
            start = time.perf_counter()
            with ThreadPoolExecutor(max_workers=threads) as pool:
                hits = list(pool.map(
                    lambda i: clients[i % threads].report(sha, "analyze"),
                    range(requests)))
            rate = requests / (time.perf_counter() - start)
            counters = clients[0].metrics()["counters"]
        assert all(hit["cached"] and hit["text"] == cold["text"]
                   for hit in hits)
        assert counters["jobs_computed"] == 1
        for directory in ("objects", "report-cache"):
            size = sum(entry.stat().st_size
                       for entry in (store / directory).rglob("*")
                       if entry.is_file())
            assert size <= cap, f"{directory} grew to {size} B"
        assert rate >= MIN_HIT_RPS, f"{rate:.0f} cache hits/s"


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
class TestObservability:
    def test_healthz(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["uptime_seconds"] >= 0

    def test_metrics_shape(self, client, paper_trace):
        sha = client.submit(paper_trace)["sha256"]
        client.report(sha, "analyze")
        client.report(sha, "analyze")
        snapshot = client.metrics()
        counters = snapshot["counters"]
        assert counters["traces_ingested"] == 1
        assert counters["reports_requested"] == 2
        assert counters["report_cache_hits"] == 1
        assert counters["report_cache_misses"] == 1
        assert snapshot["cache"]["entries"] == 1
        assert snapshot["gauges"]["queue_depth"] == 0
        for family in ("ingest", "report_hit", "report_miss"):
            stats = snapshot["latency"][family]
            assert stats["count"] >= 1
            assert stats["p50_seconds"] is not None
            assert stats["p99_seconds"] >= stats["p50_seconds"]
        assert snapshot["workers"] == 2

    def test_unknown_endpoint_is_404_not_a_crash(self, server, client):
        with pytest.raises(ReproError, match="404"):
            client._request("GET", "/frobnicate")
        assert client.health()["status"] == "ok"


# ----------------------------------------------------------------------
# Graceful shutdown
# ----------------------------------------------------------------------
class TestShutdown:
    def test_shutdown_drains_inflight_jobs(self, tmp_path, paper_trace,
                                           monkeypatch):
        """A job still computing when shutdown starts finishes and its
        result lands in the shared cache."""
        import repro.serve.jobs as jobs_module
        real_build = jobs_module.build_report

        def slow_build(path, sha, kind, params):
            time.sleep(0.4)
            return real_build(path, sha, kind, params)

        monkeypatch.setattr(jobs_module, "build_report", slow_build)
        server = AnalysisServer(tmp_path / "store", port=0, workers=2)
        server.start()
        client = ServeClient(server.url)
        sha = client.submit(paper_trace)["sha256"]
        pending = client.report(sha, "analyze", wait=False)
        assert pending["status"] == "pending"
        server.shutdown()     # must block until the job drained
        cached = ReportCache(tmp_path / "store" / "report-cache")
        payload = json.loads(cached.get(pending["key"]))
        assert payload["status"] == "ok"
        assert payload["text"] == GOLDEN.read_text()

    def test_sigterm_exits_cleanly_without_dropping_traces(
            self, tmp_path, paper_trace):
        """The acceptance criterion, end to end: SIGTERM a real
        ``repro serve`` process after submitting a trace; it drains,
        exits 0, and the trace survives in the store."""
        ready = tmp_path / "ready.txt"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--store", str(tmp_path / "store"),
             "--ready-file", str(ready)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)
        try:
            deadline = time.monotonic() + 30
            while not ready.exists():
                assert time.monotonic() < deadline, "daemon never ready"
                assert process.poll() is None, "daemon died on startup"
                time.sleep(0.05)
            _, port = ready.read_text().split()
            client = ServeClient(f"http://127.0.0.1:{port}")
            sha = client.submit(paper_trace)["sha256"]
            process.send_signal(signal.SIGTERM)
            output, _ = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, output
        assert "draining" in output
        store = TraceStore(tmp_path / "store")
        assert sha in store
        assert store.get(sha).events == 289

    def test_signal_while_the_main_thread_holds_a_wait_lock(self,
                                                            tmp_path):
        """A signal that lands while the main thread holds the lock of
        an ``Event.wait`` must not stop the daemon's shutdown.  A
        handler that set an event would block on that very lock and
        hang the daemon; with the signals taken by ``sigwait`` none
        runs, and SIGTERM drains and exits 0."""
        ready = tmp_path / "ready.txt"
        process = subprocess.Popen(
            [sys.executable, "-c", SIGNAL_IN_WAIT, str(ready), "serve",
             "--port", "0", "--store", str(tmp_path / "store"),
             "--ready-file", str(ready)],
            env=_child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        try:
            deadline = time.monotonic() + 30
            while not (ready.exists() and ready.read_text().strip()):
                assert time.monotonic() < deadline, "daemon never ready"
                assert process.poll() is None, "daemon died on startup"
                time.sleep(0.05)
            process.send_signal(signal.SIGTERM)
            try:
                output, _ = process.communicate(timeout=20)
            except subprocess.TimeoutExpired:
                pytest.fail("the daemon hung on a signal that arrived "
                            "while its main thread held a wait's lock")
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, output
        assert "draining" in output


# ----------------------------------------------------------------------
# Start-up: ready before the job stack loads; a prompt stop
# ----------------------------------------------------------------------
class TestStartAndStop:
    def test_requests_at_ready_get_the_golden_bytes(self, tmp_path,
                                                    paper_trace):
        """``repro serve`` reports ready before its job stack loads.
        Requests sent the instant the ready file appears race the main
        thread's load: an upload to validate, and analyze and temporal
        jobs of a trace already stored.  Each answer is the CLI's."""
        gzipped = tmp_path / "paper.jsonl.gz"
        gzipped.write_bytes(gzip.compress(Path(paper_trace).read_bytes()))
        temporal = cli_stdout(["temporal", paper_trace, "--windows", "8"])
        for start in range(3):
            store = tmp_path / f"store-{start}"
            sha = TraceStore(store).add_file(paper_trace)[0].sha256
            with _serving(store) as client:
                with ThreadPoolExecutor(3) as pool:
                    uploaded = pool.submit(client.submit, gzipped)
                    analyzed = pool.submit(client.report, sha, "analyze")
                    windowed = pool.submit(client.report, sha, "temporal",
                                           windows=8)
                    assert uploaded.result()["created"]
                    assert analyzed.result()["text"] == GOLDEN.read_text()
                    assert windowed.result()["text"] == temporal
                assert client.health()["stack"] == "loaded"

    def test_idle_shutdown_is_prompt(self, tmp_path):
        """An idle daemon stops at once: socketserver's own accept loop
        notices a stop only at its next 0.5 s poll."""
        took = []
        for attempt in range(5):
            server = AnalysisServer(tmp_path / f"store-{attempt}", port=0)
            server.start()
            ServeClient(server.url).health()
            started = time.perf_counter()
            server.shutdown()
            took.append(time.perf_counter() - started)
        assert statistics.median(took) < 0.1, took

    def test_healthz_reports_the_stack(self, server, client, paper_trace):
        assert client.health()["stack"] in ("unloaded", "loading",
                                            "loaded")
        client.submit(paper_trace)
        assert client.health()["stack"] == "loaded"


@contextmanager
def _serving(store: Path):
    """A ``repro serve`` process on ``store``, from the instant its
    ready file appears; SIGTERM at the end must drain and exit 0."""
    ready = store.parent / (store.name + ".ready")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--store", str(store), "--ready-file", str(ready)],
        env=_child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True)
    try:
        deadline = time.monotonic() + 60
        while len(fields := (ready.read_text().split()
                             if ready.exists() else [])) != 2:
            assert time.monotonic() < deadline, "daemon never ready"
            assert process.poll() is None, "daemon died on startup"
            time.sleep(0.002)
        yield ServeClient(f"http://{fields[0]}:{fields[1]}", retries=0)
        process.send_signal(signal.SIGTERM)
        output, _ = process.communicate(timeout=60)
        assert process.returncode == 0, output
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


#: Runs ``repro`` (``argv[2:]``) with one trap: the first
#: ``Event.wait`` the main thread starts once the ready file
#: (``argv[1]``) exists sends the process SIGTERM while it holds the
#: event's lock, and gives a handler bytecode boundaries to run at.
SIGNAL_IN_WAIT = """
import os, signal, sys, threading
from pathlib import Path

ready = Path(sys.argv[1])
real_wait = threading.Event.wait
fired = []

def wait(self, timeout=None):
    if (not fired and threading.current_thread() is threading.main_thread()
            and ready.exists()):
        fired.append(True)
        with self._cond:
            os.kill(os.getpid(), signal.SIGTERM)
            for _ in range(1000):
                pass
    return real_wait(self, timeout)

threading.Event.wait = wait
from repro.cli import main
sys.exit(main(sys.argv[2:]))
"""


# ----------------------------------------------------------------------
# Ingress limits: malformed headers, body caps, bad timeouts, slow-loris
# ----------------------------------------------------------------------
class TestIngressLimits:
    @pytest.mark.parametrize("bad_length", ["banana", "", "1e3", "-7"])
    def test_malformed_content_length_is_400(self, server, client,
                                             bad_length):
        status, _, payload = raw_request(
            server, "POST", "/traces",
            headers={"Content-Length": bad_length})
        assert status == 400
        assert "Content-Length" in payload["error"]
        assert client.health()["status"] == "ok"

    def test_oversized_body_is_413_for_traces_and_reports(self, tmp_path):
        with AnalysisServer(tmp_path / "store", port=0,
                            max_body_bytes=1024) as daemon:
            client = ServeClient(daemon.url, retries=0)
            with pytest.raises(ReproError, match="413"):
                client.submit(b"x" * 2048)
            status, _, payload = raw_request(
                daemon, "POST", "/reports",
                headers={"Content-Length": "99999"})
            assert status == 413
            assert "exceeds" in payload["error"]
            assert client.traces() == []
            counters = client.metrics()["counters"]
            assert counters["responses_4xx"] >= 2
            assert counters.get("responses_5xx", 0) == 0

    @pytest.mark.parametrize("timeout_json", [
        '"soon"', "true", "-5", "NaN", "[1]",
    ])
    def test_bad_report_timeout_is_400(self, server, client, paper_trace,
                                       timeout_json):
        sha = client.submit(paper_trace)["sha256"]
        body = ('{"trace": "%s", "kind": "analyze", '
                '"timeout": %s}' % (sha, timeout_json)).encode()
        status, _, payload = raw_request(server, "POST", "/reports",
                                         body=body)
        assert status == 400
        assert "timeout" in payload["error"]
        assert client.health()["status"] == "ok"

    @pytest.mark.parametrize("wait_json", ['"false"', "0", "1", "null",
                                           "[]"])
    def test_non_boolean_report_wait_is_400(self, server, client,
                                            paper_trace, wait_json):
        """``"wait": "false"`` is truthy: it must be refused, not
        taken as a request to block."""
        sha = client.submit(paper_trace)["sha256"]
        body = ('{"trace": "%s", "kind": "analyze", '
                '"wait": %s}' % (sha, wait_json)).encode()
        status, _, payload = raw_request(server, "POST", "/reports",
                                         body=body)
        assert status == 400
        assert "'wait' must be true or false" in payload["error"]
        assert client.metrics()["counters"].get("report_cache_misses",
                                                0) == 0

    def test_huge_timeout_is_clamped_not_wedged(self, server, client,
                                                paper_trace):
        """1e999 parses to +inf in JSON; the server clamps it to its
        max wait instead of blocking a handler thread forever."""
        sha = client.submit(paper_trace)["sha256"]
        body = ('{"trace": "%s", "kind": "analyze", '
                '"timeout": 1e999}' % sha).encode()
        status, _, payload = raw_request(server, "POST", "/reports",
                                         body=body)
        assert status == 200
        assert payload["status"] == "ok"

    @pytest.mark.parametrize("wait", ["-1", "nan"])
    def test_bad_get_reports_wait_is_400(self, server, client, wait):
        status, _, _ = raw_request(server, "GET",
                                   f"/reports/{'0' * 64}?wait={wait}")
        assert status == 400

    def test_elapsed_wait_returns_pending_not_500(self, tmp_path,
                                                  paper_trace,
                                                  monkeypatch):
        """A blocking wait that times out answers 202 pending — the job
        keeps running and is fetchable by key afterwards."""
        import repro.serve.jobs as jobs_module
        real_build = jobs_module.build_report
        release = threading.Event()

        def slow_build(path, sha, kind, params):
            release.wait(timeout=30)
            return real_build(path, sha, kind, params)

        monkeypatch.setattr(jobs_module, "build_report", slow_build)
        with AnalysisServer(tmp_path / "store", port=0,
                            workers=1) as daemon:
            client = ServeClient(daemon.url, retries=0)
            sha = client.submit(paper_trace)["sha256"]
            payload = client.report(sha, "analyze", timeout=0.2)
            assert payload["status"] == "pending"
            release.set()

    def test_slow_loris_connection_is_cut_with_408(self, tmp_path,
                                                   paper_trace):
        with AnalysisServer(tmp_path / "store", port=0,
                            request_timeout=0.5) as daemon:
            sock = socket.create_connection(daemon.address, timeout=10)
            try:
                sock.sendall(b"POST /traces HTTP/1.1\r\n"
                             b"Host: localhost\r\n"
                             b"Content-Length: 1000\r\n\r\ndribble")
                start = time.monotonic()
                answer = sock.recv(4096)
                elapsed = time.monotonic() - start
            finally:
                sock.close()
            assert answer.split(b"\r\n")[0] == b"HTTP/1.1 408 Request Timeout"
            assert elapsed < 8
            # The stalled connection cost a timeout, not a thread: the
            # daemon still serves.
            client = ServeClient(daemon.url, retries=0)
            assert client.health()["status"] == "ok"
            assert client.metrics()["counters"]["requests_timed_out"] == 1
            assert client.submit(paper_trace)["created"]

    def test_limits_are_published_in_metrics(self, client):
        limits = client.metrics()["limits"]
        assert limits["max_body_bytes"] == 1 << 28
        assert limits["max_queue"] == 64
        assert limits["max_wait_seconds"] == 600.0


# ----------------------------------------------------------------------
# Backpressure: bounded queue, 429 + Retry-After, 503 while draining
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_runner_sheds_when_queue_full(self, tmp_path, paper_trace,
                                          monkeypatch):
        import repro.serve.jobs as jobs_module
        release = threading.Event()
        real_build = jobs_module.build_report

        def slow_build(path, sha, kind, params):
            release.wait(timeout=30)
            return real_build(path, sha, kind, params)

        monkeypatch.setattr(jobs_module, "build_report", slow_build)
        store = TraceStore(tmp_path / "store")
        meta, _ = store.add_file(paper_trace)
        metrics = ServiceMetrics()
        runner = JobRunner(store, ReportCache(tmp_path / "cache"),
                           metrics=metrics, workers=1, max_queue=1)
        try:
            pending = runner.fetch(meta.sha256, "analyze", wait=False)
            assert pending["status"] == "pending"
            with pytest.raises(QueueFullError) as caught:
                runner.fetch(meta.sha256, "temporal", {"windows": 4},
                             wait=False)
            assert caught.value.retry_after >= 1.0
            snapshot = metrics.snapshot()
            assert snapshot["counters"]["jobs_shed"] == 1
            # The shed request queued nothing: one job in flight.
            assert runner.in_flight() == 1
        finally:
            release.set()
            runner.shutdown()

    def test_http_429_carries_retry_after(self, tmp_path, paper_trace,
                                          monkeypatch):
        import repro.serve.jobs as jobs_module
        release = threading.Event()
        real_build = jobs_module.build_report

        def slow_build(path, sha, kind, params):
            release.wait(timeout=30)
            return real_build(path, sha, kind, params)

        monkeypatch.setattr(jobs_module, "build_report", slow_build)
        with AnalysisServer(tmp_path / "store", port=0, workers=1,
                            max_queue=1) as daemon:
            client = ServeClient(daemon.url, retries=0)
            sha = client.submit(paper_trace)["sha256"]
            first = client.report(sha, "analyze", wait=False)
            assert first["status"] == "pending"
            body = json.dumps({"trace": sha, "kind": "temporal",
                               "params": {"windows": 4},
                               "wait": False}).encode()
            status, headers, payload = raw_request(
                daemon, "POST", "/reports", body=body)
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            assert "queue is full" in payload["error"]
            # Shedding applies to new work only: the single-flight
            # merge and the cache hit still answer under pressure.
            merged = client.report(sha, "analyze", wait=False)
            assert merged["status"] == "pending"
            release.set()
            deadline = time.monotonic() + 30
            while daemon.runner.in_flight():
                assert time.monotonic() < deadline
                time.sleep(0.02)
            assert client.report(sha, "analyze")["status"] == "ok"
            counters = client.metrics()["counters"]
            assert counters["requests_shed"] == 1
            assert counters.get("responses_5xx", 0) == 0

    def test_draining_runner_answers_503(self, server, client,
                                         paper_trace):
        sha = client.submit(paper_trace)["sha256"]
        cached = client.report(sha, "analyze")
        assert cached["status"] == "ok"
        server.runner._draining = True
        try:
            probe = ServeClient(server.url, retries=0)
            with pytest.raises(ReproError, match="503"):
                probe.report(sha, "temporal", windows=4)
            # Cache hits keep flowing while the pool drains.
            assert probe.report(sha, "analyze")["cached"]
        finally:
            server.runner._draining = False

    def test_shutdown_runner_refuses_new_jobs(self, tmp_path,
                                              paper_trace):
        store = TraceStore(tmp_path / "store")
        meta, _ = store.add_file(paper_trace)
        runner = JobRunner(store, ReportCache(tmp_path / "cache"),
                           workers=1)
        runner.shutdown()
        assert runner.draining
        with pytest.raises(ServiceDrainingError):
            runner.fetch(meta.sha256, "analyze")


# ----------------------------------------------------------------------
# Bounded storage: the trace store evicts LRU under a byte cap
# ----------------------------------------------------------------------
class TestStoreEviction:
    @staticmethod
    def _age(store, sha, mtime):
        obj, _ = store._find(sha)
        os.utime(obj, (mtime, mtime))

    def test_streamed_ingest_matches_eager(self, tmp_path, paper_trace):
        """Hash-while-reading in tiny chunks lands the same object,
        digest and metadata as the eager in-memory path."""
        data = Path(paper_trace).read_bytes()
        eager = TraceStore(tmp_path / "eager")
        chunked = TraceStore(tmp_path / "chunked")
        meta_eager, _ = eager.add_bytes(data, name="t")
        with open(paper_trace, "rb") as stream:
            meta_chunked, created = chunked.add_stream(
                stream, name="t", chunk_size=7)
        assert created
        assert meta_chunked == meta_eager
        assert chunked.path(meta_chunked.sha256).read_bytes() == data

    @pytest.mark.parametrize("chunk_size", [0, -1, 2.5, True, None])
    def test_chunk_size_is_checked_before_reading(self, tmp_path,
                                                  chunk_size):
        """A chunk size below 1 once refused a trace as empty (0) or
        read the whole stream before failing (-1)."""
        stream = io.BytesIO(b'{"format": "repro-trace", "version": 1}\n')
        with pytest.raises(ReproError,
                           match="^chunk_size must be a positive integer"):
            TraceStore(tmp_path / "store").add_stream(stream,
                                                      chunk_size=chunk_size)
        assert stream.tell() == 0

    def test_add_file_streams_and_dedups(self, tmp_path, paper_trace):
        store = TraceStore(tmp_path / "store")
        meta, created = store.add_file(paper_trace)
        assert created
        again, created_again = store.add_file(paper_trace)
        assert not created_again
        assert again == meta

    def test_lru_trace_evicted_under_cap(self, tmp_path, paper_trace):
        store = TraceStore(tmp_path / "store")
        data = Path(paper_trace).read_bytes()
        shas = []
        for index in range(3):
            meta, _ = store.add_bytes(data + b"\n" * (index + 1),
                                      name=f"v{index}")
            shas.append(meta.sha256)
            self._age(store, meta.sha256, 1_000_000 + index)
        store.max_bytes = store.total_bytes() + 10
        newest, _ = store.add_bytes(data + b"\n" * 16, name="v3")
        assert shas[0] not in store
        assert newest.sha256 in store
        assert shas[2] in store
        assert store.total_bytes() <= store.max_bytes
        assert store.stats()["evictions"] >= 1
        with pytest.raises(TraceError):
            store.get(shas[0])
        # The sidecar went with the bytes: no orphaned metadata.
        leftovers = [p.name for p in (tmp_path / "store" / "objects")
                     .iterdir() if p.name.startswith(shas[0])]
        assert leftovers == []

    def test_analysis_read_refreshes_recency(self, tmp_path, paper_trace):
        store = TraceStore(tmp_path / "store")
        data = Path(paper_trace).read_bytes()
        first, _ = store.add_bytes(data + b"\n")
        second, _ = store.add_bytes(data + b"\n\n")
        self._age(store, first.sha256, 1_000_000)
        self._age(store, second.sha256, 1_000_001)
        store.path(first.sha256)       # "analyzed" now: newest
        store.max_bytes = store.total_bytes() + 10
        third, _ = store.add_bytes(data + b"\n\n\n")
        assert second.sha256 not in store
        assert first.sha256 in store
        assert third.sha256 in store

    def test_just_ingested_trace_never_evicted(self, tmp_path,
                                               paper_trace):
        store = TraceStore(tmp_path / "store", max_bytes=1)
        meta, created = store.add_file(paper_trace)
        assert created
        assert meta.sha256 in store
        assert store.stats()["evictions"] == 0

    def test_evicted_trace_keeps_its_cached_reports(self, tmp_path,
                                                    paper_trace):
        """Eviction reclaims trace bytes, not served results: a report
        cached before its trace was evicted is still a hit."""
        with AnalysisServer(tmp_path / "store", port=0,
                            workers=1) as daemon:
            client = ServeClient(daemon.url, retries=0)
            sha = client.submit(paper_trace)["sha256"]
            text = client.fetch_text(sha)
            daemon.store.max_bytes = 1
            other = Path(paper_trace).read_bytes() + b"\n"
            client.submit(other, name="other")
            assert len(client.traces()) == 1   # first trace evicted
            payload = client.report(sha, "analyze")
            assert payload["cached"]
            assert payload["text"] == text
            # But a *new* analysis of the evicted trace needs resubmission.
            with pytest.raises(ReproError, match="404"):
                client.report(sha, "diagnose")


# ----------------------------------------------------------------------
# Client resilience: retry with backoff on 429/503/connection errors
# ----------------------------------------------------------------------
class _ScriptedHandler(http.server.BaseHTTPRequestHandler):
    """Answers from a canned (status, headers, payload) script.  Each
    body is read in small blocks and kept as its length, digest and
    ``X-Trace-Name`` only."""

    def _respond(self):
        self.server.seen.append(f"{self.command} {self.path}")
        remaining = int(self.headers.get("Content-Length", 0))
        length, digest = remaining, hashlib.sha256()
        while remaining:
            block = self.rfile.read(min(remaining, 1 << 16))
            digest.update(block)
            remaining -= len(block)
        if length:
            self.server.bodies.append((length, digest.hexdigest(),
                                       self.headers.get("X-Trace-Name")))
        status, headers, payload = (
            self.server.script.pop(0) if self.server.script
            else (200, {}, {"status": "ok"}))
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    do_GET = _respond
    do_POST = _respond

    def log_message(self, format, *args):  # noqa: A002
        pass


@contextmanager
def scripted_service(script):
    httpd = http.server.HTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    httpd.script = list(script)
    httpd.seen, httpd.bodies = [], []
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield httpd, f"http://127.0.0.1:{httpd.server_address[1]}"
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=10)


def patient_client(url, sleeps, retries=2, **kwargs):
    """A ServeClient whose sleeps are recorded, not slept, and whose
    jitter roll is pinned to the midpoint (multiplier exactly 1.0)."""
    return ServeClient(url, retries=retries, sleep=sleeps.append,
                       rng=lambda: 0.5, **kwargs)


class TestClientRetry:
    def test_retries_429_and_honors_retry_after(self):
        script = [(429, {"Retry-After": "3"}, {"error": "full"})]
        sleeps = []
        with scripted_service(script) as (httpd, url):
            health = patient_client(url, sleeps).health()
        assert health == {"status": "ok"}
        assert httpd.seen == ["GET /healthz"] * 2
        assert sleeps == [3.0]     # server floor beats the 0.25s backoff

    def test_retries_503_with_exponential_backoff(self):
        script = [(503, {}, {"error": "draining"}),
                  (503, {}, {"error": "draining"})]
        sleeps = []
        with scripted_service(script) as (httpd, url):
            health = patient_client(url, sleeps).health()
        assert health == {"status": "ok"}
        assert len(httpd.seen) == 3
        assert sleeps == [0.25, 0.5]   # base * 2^attempt, jitter pinned

    def test_backoff_is_capped_by_retry_max_wait(self):
        script = [(503, {}, {"error": "x"})] * 3
        sleeps = []
        with scripted_service(script) as (httpd, url):
            patient_client(url, sleeps, retries=3,
                           retry_max_wait=0.4).health()
        assert sleeps == [0.25, 0.4, 0.4]

    def test_unparseable_retry_after_falls_back_to_backoff(self):
        script = [(429, {"Retry-After": "Fri, 31 Dec 1999 23:59:59 GMT"},
                   {"error": "full"})]
        sleeps = []
        with scripted_service(script) as (_, url):
            patient_client(url, sleeps).health()
        assert sleeps == [0.25]

    def test_exhausted_retries_surface_the_last_error(self):
        script = [(429, {"Retry-After": "1"}, {"error": "still full"})] * 3
        sleeps = []
        with scripted_service(script) as (httpd, url):
            with pytest.raises(ReproError, match="429.*still full"):
                patient_client(url, sleeps).health()
        assert len(httpd.seen) == 3
        assert len(sleeps) == 2

    @pytest.mark.parametrize("status", [400, 404, 413, 422])
    def test_definite_4xx_is_never_retried(self, status):
        script = [(status, {}, {"error": "definitely no"})]
        sleeps = []
        with scripted_service(script) as (httpd, url):
            with pytest.raises(ReproError, match=str(status)):
                patient_client(url, sleeps).health()
        assert len(httpd.seen) == 1
        assert sleeps == []

    def test_connection_errors_are_retried(self):
        # Grab a port that nothing listens on.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        sleeps = []
        client = patient_client(f"http://127.0.0.1:{port}", sleeps)
        with pytest.raises(ReproError, match="cannot reach"):
            client.health()
        assert sleeps == [0.25, 0.5]

    def test_zero_retries_means_one_attempt(self):
        script = [(503, {}, {"error": "draining"})]
        sleeps = []
        with scripted_service(script) as (httpd, url):
            with pytest.raises(ReproError, match="503"):
                patient_client(url, sleeps, retries=0).health()
        assert len(httpd.seen) == 1
        assert sleeps == []

    def test_negative_retry_configuration_rejected(self):
        with pytest.raises(ReproError, match="retries"):
            ServeClient("http://localhost:1", retries=-1)
        with pytest.raises(ReproError, match="retry_max_wait"):
            ServeClient("http://localhost:1", retry_max_wait=-1.0)

    def test_submit_survives_a_shed_daemon(self, server, paper_trace,
                                           monkeypatch):
        """End to end against the real daemon: a submission answered
        429 twice by a wrapped handler succeeds on the third try."""
        flaky = {"remaining": 2}
        import repro.serve.server as server_module
        original = server_module._Handler._post_traces

        def shaky(self, rest, query):
            if flaky["remaining"] > 0:
                flaky["remaining"] -= 1
                raise QueueFullError("synthetic overload",
                                     retry_after=1.0)
            return original(self, rest, query)

        monkeypatch.setattr(server_module._Handler, "_post_traces",
                            shaky)
        sleeps = []
        client = patient_client(server.url, sleeps)
        meta = client.submit(paper_trace)
        assert meta["created"]
        assert len(sleeps) == 2
        assert all(wait >= 1.0 for wait in sleeps)


# ----------------------------------------------------------------------
# Bounded buffers: capped JSON bodies, streamed uploads
# ----------------------------------------------------------------------
class TestBoundedBodies:
    #: A scripted ``POST /traces`` answer.
    STORED = (201, {}, {"trace": {"sha256": "0" * 64}, "created": True})

    def test_json_body_above_the_cap_is_413_unread(self, server):
        """A default daemon (256 MiB ``max_body_bytes``) refuses a JSON
        body above ``MAX_JSON_BYTES`` from its Content-Length alone:
        no body byte is sent, and the answer comes at once."""
        from repro.serve.server import MAX_JSON_BYTES
        assert server.max_body_bytes > MAX_JSON_BYTES
        start = time.monotonic()
        status, _, payload = raw_request(
            server, "POST", "/reports",
            headers={"Content-Length": str(MAX_JSON_BYTES + 1)})
        assert status == 413
        assert f"{MAX_JSON_BYTES}-byte limit" in payload["error"]
        assert time.monotonic() - start < server.request_timeout / 2
        # A body at the cap is read, and judged as JSON.
        status, _, payload = raw_request(
            server, "POST", "/reports",
            body=b"{}".ljust(MAX_JSON_BYTES))
        assert status == 400
        assert "trace" in payload["error"]

    def test_refused_upload_reads_its_answer(self, tmp_path):
        """A daemon that refuses an upload before reading it keeps
        reading (and dropping) the body until the client has sent it,
        so the client gets the 413, not a reset connection."""
        trace = tmp_path / "big.rptb"
        trace.write_bytes(os.urandom(4 << 20))
        with AnalysisServer(tmp_path / "store", port=0,
                            max_body_bytes=1024) as daemon:
            client = ServeClient(daemon.url, retries=0)
            for upload in (trace, trace.read_bytes()):
                with pytest.raises(ReproError, match="answered 413"):
                    client.submit(upload)

    def test_submit_streams_the_file(self, tmp_path):
        """The traced peak of submitting a 4 MB trace stays below a
        quarter of its size: the file goes out in blocks."""
        import tracemalloc
        trace = tmp_path / "big.rptb"
        trace.write_bytes(os.urandom(4 << 20))
        with scripted_service([self.STORED]) as (httpd, url):
            client = ServeClient(url, retries=0)
            tracemalloc.start()
            try:
                meta = client.submit(trace)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert meta["created"]
        assert httpd.bodies == [(trace.stat().st_size,
                                 trace_sha256(trace), "big.rptb")]
        assert peak < trace.stat().st_size / 4, peak

    def test_streamed_submit_rewinds_on_retry(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        trace.write_bytes(b"x" * 100_000)
        sleeps = []
        with scripted_service([(503, {}, {"error": "draining"}),
                               self.STORED]) as (httpd, url):
            meta = patient_client(url, sleeps).submit(trace)
        assert meta["created"] and sleeps == [0.25]
        expected = (100_000, trace_sha256(trace), "t.jsonl")
        assert httpd.bodies == [expected, expected]

