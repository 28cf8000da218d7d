"""Tests for the parallel trace sweep and its on-disk result cache."""

import json
import math
import re

import pytest

from repro import reports
from repro.errors import ReproError
from repro.instrument import Tracer, read_any, write_binary_trace, write_tracer
from repro.simmpi import Simulator
from repro.sweep import (discover_traces, render_sweep_table, sweep_traces,
                         trace_key)
from tests.test_damage_parity import _paper_fixture, corrupt_gzip, run_cli


def drifting_program(comm):
    for step in range(3):
        with comm.region("loop"):
            skew = 1.0 + 0.5 * step * comm.rank
            yield from comm.compute(1e-3 * skew)
            yield from comm.barrier()


def write_demo_trace(path, n_ranks=2):
    tracer = Tracer()
    Simulator(n_ranks, trace_sink=tracer.record).run(drifting_program)
    write_tracer(path, tracer)
    return path


@pytest.fixture()
def trace_dir(tmp_path):
    write_demo_trace(tmp_path / "a.jsonl", n_ranks=2)
    write_demo_trace(tmp_path / "b.jsonl", n_ranks=4)
    return tmp_path


def same(first, second) -> bool:
    """Equal documents, nan included (JSON text compares nan to nan)."""
    return json.dumps(first) == json.dumps(second)


class TestDiscovery:
    def test_finds_trace_files_sorted(self, trace_dir):
        (trace_dir / "notes.txt").write_text("not a trace")
        found = discover_traces(trace_dir)
        assert [p.name for p in found] == ["a.jsonl", "b.jsonl"]

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(ReproError):
            discover_traces(tmp_path / "nope")

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(ReproError):
            discover_traces(tmp_path)


class TestTraceKey:
    def test_key_tracks_content_and_config(self, trace_dir):
        path = trace_dir / "a.jsonl"
        base = trace_key(path, {})
        assert base == trace_key(path, {"windows": 16,
                                        "index": "euclidean",
                                        "strict": False})
        assert base != trace_key(path, {"windows": 8})
        assert base != trace_key(path, {"index": "cv"})
        assert base != trace_key(path, {"strict": True})
        # The chunk size shapes no document, so it keys nothing.
        assert base == trace_key(path, {"chunk_size": 7})
        path.write_text(path.read_text() + "\n")
        assert base != trace_key(path, {})


class TestDocument:
    @pytest.mark.parametrize("params", [
        {"windows": 4}, {"windows": 6, "index": "cv"},
        {"windows": 3, "strict": True, "chunk_size": 5}])
    def test_document_is_the_temporal_report_document(self, trace_dir,
                                                       params):
        results = sweep_traces(trace_dir, params, use_cache=False)
        for result in results:
            assert result.error is None
            assert same(result.document, reports.build_report(
                "temporal", result.path, params))
        document = results[0].document
        assert document["schema"] == "repro-temporal/2"
        assert document["n_windows"] == params["windows"]
        assert document["n_events"] > 0
        assert document["elapsed"] > 0.0
        assert list(document["trends"]) == ["loop"]

    def test_document_is_the_daemon_report(self, trace_dir):
        from repro.serve.jobs import build_report, normalize_params
        params = normalize_params("temporal", {"windows": 4})
        trace = trace_dir / "a.jsonl"
        [result] = sweep_traces([trace], params, use_cache=False)
        served = build_report(trace, "sha", "temporal", params)["report"]
        assert same(result.document, served)

    def test_corrupt_trace_is_an_error_result(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not a trace\n")
        [result] = sweep_traces([bad], use_cache=False)
        assert result.document is None
        assert result.error
        assert f"error: {result.error}" in render_sweep_table([result])

    def test_chunk_size_reaches_the_report(self, trace_dir, monkeypatch):
        seen = []
        original = reports.build_report

        def spy(kind, source, params):
            seen.append(params["chunk_size"])
            return original(kind, source, params)

        monkeypatch.setattr("repro.sweep.build_report", spy)
        sweep_traces(trace_dir, {"chunk_size": 3}, jobs=1, use_cache=False)
        assert seen == [3, 3]


class TestCachedDocument:
    def test_round_trip_preserves_non_finite_values(self, tmp_path):
        """A region idle in some windows has nan in its series, written
        as its string; the cached document reads back equal and renders
        the same row."""
        tracer = Tracer()
        tracer.record(0, "early", "computation", 0.0, 1.0)
        tracer.record(1, "early", "computation", 0.0, 2.0)
        tracer.record(0, "late", "computation", 3.0, 4.0)
        tracer.record(1, "late", "computation", 3.0, 4.0)
        write_tracer(tmp_path / "gaps.jsonl", tracer)
        fresh = sweep_traces(tmp_path, {"windows": 4})
        cached = sweep_traces(tmp_path, {"windows": 4})
        assert cached[0].cached and not fresh[0].cached
        series = cached[0].document["trends"]["late"]["series"]
        assert math.isnan(float(series[0]))
        assert same(fresh[0].document, cached[0].document)
        assert render_sweep_table(fresh) == render_sweep_table(
            [cached[0]._replace(cached=False)])


class TestSweep:
    def test_sweep_directory(self, trace_dir):
        results = sweep_traces(trace_dir, {"windows": 4})
        assert len(results) == 2
        assert all(r.error is None for r in results)
        assert [r.cached for r in results] == [False, False]

    def test_second_run_is_served_from_cache(self, trace_dir):
        first = sweep_traces(trace_dir, {"windows": 4})
        second = sweep_traces(trace_dir, {"windows": 4})
        assert all(r.cached for r in second)
        assert [r.path for r in first] == [r.path for r in second]
        assert all(same(a.document, b.document)
                   for a, b in zip(first, second))
        cache = trace_dir / ".repro-temporal-cache"
        assert sorted(cache.glob("*.json"))

    def test_no_cache_never_touches_disk(self, trace_dir):
        sweep_traces(trace_dir, {"windows": 4}, use_cache=False)
        assert not (trace_dir / ".repro-temporal-cache").exists()

    def test_damaged_trace_does_not_abort_the_sweep(self, trace_dir):
        (trace_dir / "broken.jsonl").write_text("garbage\n")
        results = sweep_traces(trace_dir, {"windows": 4})
        by_name = {r.path.rsplit("/", 1)[-1]: r for r in results}
        assert by_name["broken.jsonl"].error is not None
        assert by_name["a.jsonl"].error is None
        assert by_name["b.jsonl"].error is None

    def test_parallel_matches_serial(self, trace_dir):
        serial = sweep_traces(trace_dir, {"windows": 4}, jobs=1,
                              use_cache=False)
        parallel = sweep_traces(trace_dir, {"windows": 4}, jobs=2,
                                use_cache=False)
        assert same(serial, parallel)

    def test_explicit_path_list(self, trace_dir, tmp_path):
        cache = tmp_path / "cache"
        results = sweep_traces([trace_dir / "b.jsonl"], {"windows": 4},
                               cache_dir=cache)
        assert len(results) == 1
        assert results[0].error is None
        assert sorted(cache.glob("*.json"))

    def test_missing_trace_rejected(self, trace_dir):
        with pytest.raises(ReproError):
            sweep_traces([trace_dir / "ghost.jsonl"])

    def test_empty_path_list_rejected(self):
        with pytest.raises(ReproError):
            sweep_traces([])

    @pytest.mark.parametrize("params,message", [
        ({"windows": 0}, "windows must be at least 1"),
        ({"windows": "4"}, "windows must be an integer"),
        ({"chunk_size": 0}, "chunk_size must be at least 1"),
        ({"index": "nope"}, "unknown index of dispersion 'nope'")])
    def test_bad_parameter_is_refused_before_any_trace(
            self, trace_dir, monkeypatch, params, message):
        """A refused value raises up front, with the message the CLI and
        the daemon give, instead of an error row for every trace."""
        def unread(*args, **kwargs):
            raise AssertionError("a trace was read")

        monkeypatch.setattr("repro.sweep.build_report", unread)
        with pytest.raises(ReproError, match=re.escape(message)):
            sweep_traces(trace_dir, params)
        assert not (trace_dir / ".repro-temporal-cache").exists()

    def test_workers_import_nothing_after_the_fork(self, trace_dir):
        """A parallel sweep imports the temporal stack before its pool
        forks, so no worker task imports a repro module of its own."""
        from tests.test_imports import _python
        script = """
import sys
from repro import sweep

run = sweep._worker


def recording(task):
    before = set(sys.modules)
    result = run(task)
    late = sorted(name for name in set(sys.modules) - before
                  if name.startswith("repro"))
    return result, late


sweep._worker = recording
for result, late in sweep.sweep_traces(sys.argv[1], {"windows": 4},
                                       jobs=2, use_cache=False):
    assert result.error is None, result.error
    print(result.path, *late)
"""
        completed = _python("-c", script, str(trace_dir))
        assert completed.returncode == 0, completed.stderr
        rows = [line.split() for line in completed.stdout.splitlines()]
        assert [len(row) for row in rows] == [1, 1], rows

    def test_corrupt_cache_entry_recomputed(self, trace_dir):
        sweep_traces(trace_dir, {"windows": 4})
        cache = trace_dir / ".repro-temporal-cache"
        entries = sorted(cache.glob("*.json"))
        entries[0].write_text("{broken json")
        entries[1].write_text("[]")
        results = sweep_traces(trace_dir, {"windows": 4})
        assert all(r.error is None and not r.cached for r in results)

    def test_drift_detected_in_drifting_trace(self, trace_dir):
        [result] = sweep_traces([trace_dir / "b.jsonl"], {"windows": 6},
                                use_cache=False)
        # The program skews harder every step, so the sweep should
        # call the loop region drifting.
        assert "loop" in result.document["drifting"]


def truncated_jsonl(directory):
    """The synthesized paper trace cut off in the middle of a line."""
    from repro.calibrate import synthesize_paper_trace
    path = directory / "truncated.jsonl"
    synthesize_paper_trace(path)
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])
    return path


def nul_padded_rptb(directory):
    """The binary paper trace followed by eight NUL bytes."""
    from repro.calibrate import synthesize_paper_trace
    clean = directory / "paper.jsonl"
    synthesize_paper_trace(clean)
    path = directory / "padded.rptb"
    write_binary_trace(path, read_any(clean))
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    clean.unlink()
    return path


def bad_line_jsonl(directory):
    path = _paper_fixture(directory, "jsonl")
    (directory / "paper.jsonl").unlink()
    return path


def broken_gzip(directory):
    path = corrupt_gzip(directory)
    (directory / "paper.jsonl").unlink()
    return path


#: One damaged trace of each kind, by id.
DAMAGED = {"truncated-jsonl": truncated_jsonl, "bad-line": bad_line_jsonl,
           "nul-padded-rptb": nul_padded_rptb, "broken-gzip": broken_gzip}


class TestDamageParity:
    """A sweep row gives a damaged trace the outcome ``repro temporal``
    gives it: the event count its header reports, or the very error
    text the command exits 2 with.  Under ``--strict`` every input but
    the NUL-padded binary trace (whose padding both modes accept) is
    refused; otherwise each is salvaged."""

    @pytest.mark.parametrize("make", DAMAGED.values(), ids=DAMAGED.keys())
    @pytest.mark.parametrize("strict", [False, True],
                             ids=["salvage", "strict"])
    def test_row_matches_the_single_trace_command(self, tmp_path, capsys,
                                                  make, strict):
        path = make(tmp_path)
        flags = ["--windows", "4"] + (["--strict"] if strict else [])
        code, out, err = run_cli(["temporal", str(path), *flags], capsys)
        assert code == (2 if strict and make is not nul_padded_rptb
                        else 0)
        if code == 2:
            expected = ("error", err[len("error: "):].rstrip("\n"))
        else:
            count = re.search(r"\((\d+) events,", out.splitlines()[0])
            expected = ("events", int(count.group(1)))
        [result] = sweep_traces(tmp_path, {"windows": 4, "strict": strict},
                                use_cache=False)
        assert (("error", result.error) if result.document is None
                else ("events", result.document["n_events"])) == expected

    @pytest.mark.parametrize("make", [truncated_jsonl, bad_line_jsonl,
                                      broken_gzip],
                             ids=["truncated-jsonl", "bad-line",
                                  "broken-gzip"])
    def test_strict_row_reads_the_command_error(self, tmp_path, capsys,
                                                make):
        path = make(tmp_path)
        code, _, err = run_cli(["temporal", str(path), "--strict"], capsys)
        assert code == 2 and err.startswith("error: trace ")
        code, out, _ = run_cli(["temporal", "--sweep", str(tmp_path),
                                "--strict", "--no-cache"], capsys)
        assert code == 0
        [row] = [line for line in out.splitlines()
                 if line.startswith(path.name + " ")]
        assert row.rstrip().endswith(err.rstrip("\n"))
