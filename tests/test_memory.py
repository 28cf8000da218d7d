"""Process memory: the release helper, the ``/metrics`` gauges, the
daemon's resident size over cold jobs, and slabs filled in place.

* :func:`repro.obs.memory.release_freed` calls glibc's ``malloc_trim``
  where the C library has it and is a no-op where it has not;
* ``/metrics`` carries ``resident_bytes`` and ``peak_resident_bytes``
  as JSON gauges and Prometheus gauges;
* the job runner releases after every computed job, failed ones too,
  and the upload handler after every ingest;
* a ``repro serve`` process on glibc returns close to its resident
  size at ready after several cold jobs on a 262k-event trace (freed
  arrays no longer stay in its worker threads' heaps);
* a window slab's four columns are sized to its first piece of a
  chunk, grow once to full capacity, and are filled in place;
* a temporal report over a 1024-rank trace holds, above the binning
  columns its fold keeps, less than one dense ``N x K x P`` tensor:
  its windows carry packed performed rows;
* an analysis of a ``(32, 4, 16384)`` set holds, above its input, less
  than one tensor: its kernels walk blocks of regions.
"""

import json
import os
import subprocess
import sys
import time
import tracemalloc
import urllib.request
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.errors import ReproError
from repro.instrument import TraceEvent, write_binary_trace
from repro.instrument import windows as windowing
from repro.obs import memory
from repro.serve import AnalysisServer, ServeClient

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: Most a daemon's resident size may stand above its size at ready
#: after the cold jobs of :func:`test_daemon_returns_to_its_size_at_ready`.
#: Measured on a 2-vCPU Linux host: 3.8-4.0 MB with the release after
#: each request (code pages the first jobs touch, thread stacks), and
#: 14.5 MB with the release made a no-op.
RESIDENT_DRIFT_BYTES = 7 << 20


def _unloadable(name):
    raise OSError("no C library")


class TestReleaseHelper:
    @pytest.mark.parametrize("cdll", [lambda name: object(), _unloadable],
                             ids=["no-malloc_trim", "no-c-library"])
    def test_release_is_a_no_op_without_malloc_trim(self, monkeypatch,
                                                    cdll):
        memory._malloc_trim.cache_clear()
        monkeypatch.setattr("ctypes.CDLL", cdll)
        try:
            assert memory._malloc_trim() is None
            assert memory.release_freed() is False
        finally:
            memory._malloc_trim.cache_clear()

    def test_release_hands_pages_back_where_glibc_is(self):
        if memory._malloc_trim() is None:
            pytest.skip("this C library has no malloc_trim")
        # Blocks below the mmap threshold come from the heap; freeing
        # every other one leaves free pages between live blocks, which
        # free() keeps and only malloc_trim returns.
        blocks = [bytearray(65536) for _ in range(256)]
        kept = blocks[1::2]
        del blocks
        assert memory.release_freed() is True
        del kept

    def test_usage_reports_what_the_platform_has(self, monkeypatch):
        readings = memory.usage()
        if sys.platform.startswith("linux"):
            assert readings["resident_bytes"] > 0
            assert readings["peak_resident_bytes"] >= \
                readings["resident_bytes"]

        def missing(*args, **kwargs):
            raise FileNotFoundError("/proc/self/statm")

        monkeypatch.setattr(memory, "open", missing, raising=False)
        assert memory.resident_bytes() is None
        assert "resident_bytes" not in memory.usage()


class TestDaemonReleases:
    def test_metrics_carry_the_memory_gauges(self, tmp_path):
        with AnalysisServer(tmp_path / "store", port=0) as server:
            gauges = ServeClient(server.url).metrics()["gauges"]
            request = urllib.request.Request(
                server.url + "/metrics", headers={"Accept": "text/plain"})
            with urllib.request.urlopen(request, timeout=30) as answer:
                exposition = answer.read().decode("utf-8")
        assert gauges["peak_resident_bytes"] > 0
        assert "# TYPE repro_peak_resident_bytes gauge" in exposition
        if sys.platform.startswith("linux"):
            assert gauges["resident_bytes"] > 0
            assert "# TYPE repro_resident_bytes gauge" in exposition

    def test_every_job_and_upload_releases(self, tmp_path, monkeypatch):
        from repro.calibrate import synthesize_paper_trace
        from repro.serve import jobs
        from repro.serve import server as serving
        paper_trace = tmp_path / "paper.jsonl"
        synthesize_paper_trace(paper_trace)
        released = []
        monkeypatch.setattr(memory, "release_freed",
                            lambda: released.append(True))
        assert jobs.obsmemory is memory and serving.obsmemory is memory
        with AnalysisServer(tmp_path / "store", port=0,
                            workers=2) as daemon:
            client = ServeClient(daemon.url)
            sha = client.submit(paper_trace)["sha256"]
            assert len(released) == 1
            client.report(sha, "analyze")
            client.report(sha, "analyze")       # a cache hit computes none
            assert len(released) == 2
            with mock.patch.object(jobs, "build_report",
                                   side_effect=ReproError("boom")):
                with pytest.raises(ReproError, match="422"):
                    client.report(sha, "whatif")
            assert len(released) == 3
            with pytest.raises(ReproError, match="400"):
                client.submit(b"not a trace at all\n")
        assert len(released) == 4


def _wide_trace(path: Path) -> None:
    """262,144 events: 1024 ranks, 32 regions of four activities, two
    steps (the shape of the benchmark's wide workload)."""
    rng = np.random.default_rng(11)
    events = []
    clock = 0.0
    for _ in range(2):
        for region in range(32):
            for activity in ("computation", "point-to-point",
                             "collective", "synchronization"):
                durations = rng.uniform(0.5, 1.0, 1024).tolist()
                events.extend(
                    TraceEvent(rank, f"region {region}", activity, clock,
                               clock + duration)
                    for rank, duration in enumerate(durations))
                clock += 1.0
    write_binary_trace(path, events)


def _gauge(url: str, name: str) -> int:
    request = urllib.request.Request(url + "/metrics",
                                     headers={"Accept": "application/json"})
    with urllib.request.urlopen(request, timeout=60) as answer:
        return json.load(answer)["gauges"][name]


def _stack_loaded(url: str) -> bool:
    with urllib.request.urlopen(url + "/healthz", timeout=60) as answer:
        return json.load(answer)["stack"] == "loaded"


def _post(url: str, path: str, body: bytes) -> dict:
    request = urllib.request.Request(
        url + path, data=body,
        headers={"Content-Type": "application/octet-stream"})
    with urllib.request.urlopen(request, timeout=300) as answer:
        return json.load(answer)


@pytest.mark.skipif(memory._malloc_trim() is None
                    or not Path("/proc/self/statm").exists(),
                    reason="needs glibc's malloc_trim and /proc")
def test_daemon_returns_to_its_size_at_ready(tmp_path):
    """Cold jobs leave a ``repro serve`` process within
    :data:`RESIDENT_DRIFT_BYTES` of its resident size at ready, read
    once its job stack has loaded: the daemon reports ready before it
    loads the stack, and that import is no leak."""
    trace = tmp_path / "wide.rptb"
    _wide_trace(trace)
    ready = tmp_path / "ready.txt"
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--store", str(tmp_path / "store"), "--ready-file", str(ready)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.STDOUT)
    try:
        deadline = time.monotonic() + 60
        while not (ready.exists() and ready.read_text().strip()):
            assert time.monotonic() < deadline, "daemon never ready"
            assert process.poll() is None, "daemon died on startup"
            time.sleep(0.05)
        host, port = ready.read_text().split()
        url = f"http://{host}:{port}"
        while not _stack_loaded(url):
            assert time.monotonic() < deadline, "stack never loaded"
            time.sleep(0.05)
        at_ready = _gauge(url, "resident_bytes")
        sha = _post(url, "/traces", trace.read_bytes())["trace"]["sha256"]
        for kind, params in (("analyze", {}), ("temporal", {"windows": 64}),
                             ("temporal", {"windows": 256}),
                             ("diagnose", {}), ("whatif", {}),
                             ("temporal", {"windows": 16})):
            payload = _post(url, "/reports", json.dumps(
                {"trace": sha, "kind": kind, "params": params})
                .encode("utf-8"))
            assert payload["status"] == "ok", payload
        after = _gauge(url, "resident_bytes")
    finally:
        process.terminate()
        process.wait(timeout=60)
    assert after - at_ready < RESIDENT_DRIFT_BYTES, (
        f"resident size grew {(after - at_ready) / 2**20:.1f} MB over "
        f"{at_ready / 2**20:.1f} MB at ready")


def _folded_slabs(events, chunk, slab_events):
    """Fold ``events`` in chunks of ``chunk``; returns each slab with
    the capacity and buffers of its four columns after every fill."""
    chunks = [windowing.EventColumns.from_events(events[start:start + chunk])
              for start in range(0, len(events), chunk)]
    fills = {}
    original = windowing._Slab.fill

    def spy(slab, columns, offset):
        reached = original(slab, columns, offset)
        fills.setdefault(slab, []).append(
            (len(slab.code), tuple(column.__array_interface__["data"][0]
                                   for column in slab.columns)))
        return reached

    with mock.patch.object(windowing, "SLAB_EVENTS", slab_events), \
            mock.patch.object(windowing._Slab, "fill", spy):
        windows = list(windowing.fold_windows(chunks, 5)[0])
    assert len(windows) == 5
    return fills


def _events(count):
    return [TraceEvent(index % 3, "alpha", "computation", float(index),
                       index + 0.5) for index in range(count)]


def test_slabs_grow_once_and_fill_in_place():
    """A slab is sized to its first piece of a chunk and grows once, to
    full capacity, at its second; every later chunk fills it in place."""
    fills = _folded_slabs(_events(150), 25, 64)
    assert [slab.size for slab in fills] == [64, 64, 22]
    for slab, history in fills.items():
        capacities = [capacity for capacity, _ in history]
        assert capacities[1:] == [64] * (len(history) - 1), capacities
        assert len({buffers for _, buffers in history[1:]}) <= 1


def test_a_one_chunk_trace_holds_no_spare_capacity():
    fills = _folded_slabs(_events(40), 50, 64)
    (slab, history), = fills.items()
    assert slab.size == 40 and history == [(40, history[0][1])]


def test_temporal_report_holds_less_than_one_dense_tensor(tmp_path):
    """At 64 windows of a 1024-rank trace, each window covers a few
    cells: the report's traced peak above what the fold holds stays
    below one dense ``N x K x P`` tensor of doubles.  Measured: 0.33x;
    3.3x when each window was a dense tensor with its measurement set
    and batch analysis, three of them alive at once."""
    from repro.instrument.stream import trace_windows
    from repro.reports import render_temporal_report
    regions, activities, ranks = 8, 4, 1024
    rng = np.random.default_rng(5)
    events, clock = [], 0.0
    for _ in range(2):
        for region in range(regions):
            for activity in ("computation", "point-to-point",
                             "collective", "synchronization"):
                events.extend(
                    TraceEvent(rank, f"region {region}", activity, clock,
                               clock + duration)
                    for rank, duration
                    in enumerate(rng.uniform(0.5, 1.0, ranks).tolist()))
                clock += 1.0
    path = tmp_path / "wide.rptb"
    write_binary_trace(path, events)
    del events
    warm, layout = trace_windows(path, 2)     # no first-time import
    render_temporal_report(warm, layout.n_events)
    del warm
    tensor_bytes = regions * activities * ranks * 8

    tracemalloc.start()
    try:
        windows, layout = trace_windows(path, 64)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        text = render_temporal_report(windows, layout.n_events)
        above = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert "time-resolved analysis: 64 windows" in text
    assert above < tensor_bytes, (
        f"the report peaked {above / tensor_bytes:.2f}x a dense tensor "
        f"above the fold's {held} bytes")


def test_an_analysis_holds_less_than_one_tensor():
    """``analyze_document``'s traced peak above its input, on a set of
    32 regions, 4 activities and 16,384 processors, stays below the
    tensor's own size.  Measured: 0.77x; 3.3x when the processor view
    standardized the whole tensor and squared its deviations, and the
    index matrix packed every performed row at once."""
    from repro.core import MeasurementSet
    from repro.reports import analyze_document
    rng = np.random.default_rng(9)
    times = rng.uniform(0.5, 1.5, (32, 4, 16384))
    times[1, 2] = 0.0                       # a dash cell
    measurements = MeasurementSet(times)
    analyze_document(MeasurementSet(times[:4, :, :8]))  # no first import

    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        document = analyze_document(measurements)
        above = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert document["program"]["n_processors"] == 16384
    assert above < times.nbytes, (
        f"the analysis peaked {above / times.nbytes:.2f}x its tensor")
