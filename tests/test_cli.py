"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.instrument import Tracer, write_tracer
from repro.simmpi import Simulator


@pytest.fixture()
def tracefile(tmp_path):
    def program(comm):
        with comm.region("work"):
            yield from comm.compute(1e-3 * (comm.rank + 1))
            yield from comm.allreduce(4096)
            yield from comm.barrier()
        with comm.region("exchange"):
            if comm.rank == 0:
                yield from comm.send(1, 64 * 1024)
            elif comm.rank == 1:
                yield from comm.recv(0)

    tracer = Tracer()
    Simulator(4, trace_sink=tracer.record).run(program)
    path = tmp_path / "run.jsonl"
    write_tracer(path, tracer)
    return str(path)


class TestAnalyzeCommand:
    def test_basic(self, tracefile, capsys):
        assert main(["analyze", tracefile]) == 0
        out = capsys.readouterr().out
        assert "Top-down analysis summary" in out
        assert "work" in out

    def test_patterns_flag(self, tracefile, capsys):
        assert main(["analyze", tracefile, "--patterns"]) == 0
        out = capsys.readouterr().out
        assert "legend" in out

    def test_lorenz_flag(self, tracefile, capsys):
        assert main(["analyze", tracefile, "--lorenz", "work"]) == 0
        out = capsys.readouterr().out
        assert "Lorenz curve" in out

    def test_alternative_index(self, tracefile, capsys):
        assert main(["analyze", tracefile, "--index", "cv"]) == 0

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        code = main(["analyze", str(tmp_path / "none.jsonl")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_index_is_an_error(self, tracefile, capsys):
        assert main(["analyze", tracefile, "--index", "nope"]) == 2


class TestPaperCommand:
    def test_reproduces(self, capsys):
        assert main(["paper"]) == 0
        out = capsys.readouterr().out
        assert "[ok]" in out
        assert "ID_P = 0.25754 (paper 0.25754)" in out
        assert "loop 1" in out


class TestCfdCommand:
    def test_small_run(self, capsys):
        assert main(["cfd", "--ranks", "4", "--steps", "1",
                     "--grid", "64"]) == 0
        out = capsys.readouterr().out
        assert "simulated" in out
        assert "loop 7" in out

    def test_trace_output(self, tmp_path, capsys):
        trace = tmp_path / "cfd.jsonl.gz"
        assert main(["cfd", "--ranks", "4", "--steps", "1",
                     "--grid", "64", "--trace", str(trace)]) == 0
        assert trace.exists()
        # The written trace is itself analyzable.
        assert main(["analyze", str(trace)]) == 0


class TestCountersCommand:
    def test_messages(self, tracefile, capsys):
        assert main(["counters", tracefile]) == 0
        out = capsys.readouterr().out
        assert "counting parameter: messages" in out

    def test_bytes(self, tracefile, capsys):
        assert main(["counters", tracefile, "--counter", "bytes"]) == 0


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert "repro" in capsys.readouterr().out


class TestAnalyzeExtensions:
    def test_diagnose_flag(self, tracefile, capsys):
        assert main(["analyze", tracefile, "--diagnose"]) == 0
        assert "Diagnosis" in capsys.readouterr().out

    def test_timeline_flag(self, tracefile, capsys):
        assert main(["analyze", tracefile, "--timeline"]) == 0
        out = capsys.readouterr().out
        assert "timeline:" in out
        assert "rank 0" in out

    def test_significance_flag(self, tracefile, capsys):
        assert main(["analyze", tracefile, "--significance", "0.05"]) == 0
        assert "noise-calibrated threshold" in capsys.readouterr().out


class TestTestbedCommand:
    def test_add_list_show(self, tracefile, tmp_path, capsys):
        directory = str(tmp_path / "tb")
        assert main(["testbed", directory, "add", tracefile,
                     "--program", "demo", "--machine", "sp2",
                     "--tag", "smoke"]) == 0
        trace_id = capsys.readouterr().out.split()[-1]
        assert main(["testbed", directory, "list"]) == 0
        listing = capsys.readouterr().out
        assert "demo on sp2" in listing and "smoke" in listing
        assert main(["testbed", directory, "show", trace_id]) == 0
        assert "Top-down analysis summary" in capsys.readouterr().out

    def test_empty_list(self, tmp_path, capsys):
        assert main(["testbed", str(tmp_path / "tb"), "list"]) == 0
        assert "empty" in capsys.readouterr().out

    def test_show_unknown_id(self, tmp_path, capsys):
        assert main(["testbed", str(tmp_path / "tb"), "show", "nope"]) == 2

    @pytest.mark.parametrize("action", [["list"], ["show", "nope"]])
    def test_reading_a_missing_testbed_creates_nothing(self, tmp_path,
                                                       action):
        main(["testbed", str(tmp_path / "typo" / "tb")] + action)
        assert list(tmp_path.iterdir()) == []

    def test_heatmap_and_whatif_flags(self, tracefile, capsys):
        assert main(["analyze", tracefile, "--heatmap", "--whatif"]) == 0
        out = capsys.readouterr().out
        assert "share heatmap" in out
        assert "What-if" in out


class TestBinaryTraceSupport:
    def test_analyze_binary_trace(self, tracefile, tmp_path, capsys):
        from repro.instrument import read_trace, write_binary_trace
        binary = tmp_path / "t.rptb"
        write_binary_trace(binary, read_trace(tracefile))
        assert main(["analyze", str(binary)]) == 0
        assert "Top-down analysis summary" in capsys.readouterr().out

    def test_cfd_writes_binary_when_asked(self, tmp_path, capsys):
        trace = tmp_path / "cfd.rptb"
        assert main(["cfd", "--ranks", "4", "--steps", "1",
                     "--grid", "64", "--trace", str(trace)]) == 0
        from repro.instrument import sniff_format
        assert sniff_format(trace) == "binary"
        assert main(["analyze", str(trace)]) == 0


class TestGzipBySignature:
    """Gzip is told by its bytes, not by the file's name: a mislabelled
    trace reads alike under ``analyze``, ``analyze --jobs 2`` and the
    daemon's store (same events, same salvage flag, same report)."""

    @staticmethod
    def _read_three_ways(path, tmp_path, capsys):
        """``(events, salvaged, report text)`` from each entry point."""
        import warnings

        from repro.errors import TraceWarning
        from repro.instrument.stream import accumulate_trace
        from repro.serve import TraceStore, build_report, normalize_params
        readings = []
        for jobs in (None, 2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                argv = ["analyze", str(path)]
                assert main(argv + (["--jobs", "2"] if jobs else [])) == 0
                events = accumulate_trace(path, jobs=jobs).n_events
            salvaged = any(issubclass(entry.category, TraceWarning)
                           for entry in caught)
            readings.append((events, salvaged, capsys.readouterr().out))
        meta, _ = TraceStore(tmp_path / "store").add_bytes(path.read_bytes())
        stored = TraceStore(tmp_path / "store").path(meta.sha256)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            text = build_report(stored, meta.sha256, "analyze",
                                normalize_params("analyze", {}))["text"]
        readings.append((meta.events, meta.salvaged, text))
        return readings

    @pytest.mark.parametrize("name, packed", [("hidden.jsonl", True),
                                              ("plain.jsonl.gz", False)])
    def test_mislabelled_trace_reads_as_its_bytes(self, tracefile, tmp_path,
                                                  capsys, name, packed):
        import gzip
        import pathlib
        data = pathlib.Path(tracefile).read_bytes()
        path = tmp_path / name
        path.write_bytes(gzip.compress(data) if packed else data)
        assert main(["analyze", tracefile]) == 0
        expected = (len(data.splitlines()) - 1, False,
                    capsys.readouterr().out)
        assert self._read_three_ways(path, tmp_path, capsys) \
            == [expected] * 3

    def test_damaged_hidden_gzip_salvages_alike(self, tracefile, tmp_path,
                                                capsys):
        import gzip
        import pathlib
        packed = gzip.compress(pathlib.Path(tracefile).read_bytes())
        path = tmp_path / "cut.jsonl"
        path.write_bytes(packed[:-30])
        readings = self._read_three_ways(path, tmp_path, capsys)
        assert readings[0][1]            # salvaged, with a warning
        assert readings == [readings[0]] * 3


class TestChromeExportFlag:
    def test_export(self, tracefile, tmp_path, capsys):
        target = tmp_path / "chrome.json"
        assert main(["analyze", tracefile,
                     "--export-chrome", str(target)]) == 0
        assert target.exists()
        import json
        assert json.loads(target.read_text())["traceEvents"]


class TestExitCodeContract:
    """Expected failures exit 2; internal bugs exit 3 without a bare
    traceback; checks that fail exit 1."""

    def test_repro_error_exits_2(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "none.jsonl")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    def test_directory_as_tracefile_exits_2(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path)]) == 2
        assert "directory" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["analyze", "{trace}", "--export-chrome", "{missing}/x.json"],
        ["analyze", "{trace}", "--export-chrome", "{directory}"],
        ["analyze", "{trace}", "--profile", "--profile-out",
         "{missing}/p.jsonl"],
        ["temporal", "{trace}", "--profile-out", "{missing}/p.jsonl"],
        ["cfd", "--ranks", "4", "--steps", "1", "--grid", "32",
         "--trace", "{missing}/x.jsonl"],
        ["self", "{trace}", "--trace", "{missing}/s.jsonl"],
        ["serve", "--port", "0", "--store", "{missing}/store",
         "--ready-file", "{missing}/ready.txt"],
    ], ids=["chrome-missing-dir", "chrome-is-dir", "profile-out",
            "temporal-profile-out", "cfd-trace", "self-trace",
            "ready-file"])
    def test_unwritable_output_path_exits_2_before_any_work(
            self, tracefile, tmp_path, capsys, argv):
        (tmp_path / "out").mkdir()
        before = sorted(tmp_path.rglob("*"))
        names = {"trace": tracefile, "missing": str(tmp_path / "missing"),
                 "directory": str(tmp_path / "out")}
        assert main([word.format(**names) for word in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write ")
        assert captured.err.count("\n") == 1
        assert sorted(tmp_path.rglob("*")) == before

    def test_internal_error_exits_3(self, tracefile, capsys, monkeypatch):
        import repro.cli as cli
        def boom(arguments):
            raise RuntimeError("synthetic bug")
        monkeypatch.setitem(cli._COMMANDS, "analyze", boom)
        monkeypatch.delenv("REPRO_DEBUG", raising=False)
        assert main(["analyze", tracefile]) == 3
        err = capsys.readouterr().err
        assert "internal error" in err
        assert "REPRO_DEBUG" in err
        assert "Traceback" not in err

    def test_internal_error_reraises_under_debug(self, tracefile, capsys,
                                                 monkeypatch):
        import repro.cli as cli
        def boom(arguments):
            raise RuntimeError("synthetic bug")
        monkeypatch.setitem(cli._COMMANDS, "analyze", boom)
        monkeypatch.setenv("REPRO_DEBUG", "1")
        with pytest.raises(RuntimeError):
            main(["analyze", tracefile])

    def test_closed_stdout_pipe_exits_2_silently(self, tracefile):
        """``repro temporal ... | head -c 100``: the reader closes the
        pipe while the report (far larger than a pipe buffer) is still
        being written.  That is an expected error, not a bug."""
        import os
        import subprocess
        import sys
        from pathlib import Path
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env.pop("REPRO_DEBUG", None)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "temporal", tracefile,
             "--windows", "8192", "--heatmap"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert len(process.stdout.read(100)) == 100
        process.stdout.close()
        stderr = process.stderr.read()
        process.stderr.close()
        assert process.wait(timeout=120) == 2
        assert stderr == b""


class TestSalvageFlags:
    def _truncated(self, tracefile, tmp_path):
        import pathlib
        source = pathlib.Path(tracefile)
        lines = source.read_text().splitlines()
        cut = tmp_path / "cut.jsonl"
        cut.write_text("\n".join(lines[:-1]) + "\n")
        return str(cut)

    def test_analyze_salvages_by_default(self, tracefile, tmp_path,
                                         capsys):
        from repro.errors import TraceWarning
        cut = self._truncated(tracefile, tmp_path)
        with pytest.warns(TraceWarning):
            assert main(["analyze", cut]) == 0
        assert "Top-down analysis summary" in capsys.readouterr().out

    def test_analyze_strict_refuses_damage(self, tracefile, tmp_path,
                                           capsys):
        cut = self._truncated(tracefile, tmp_path)
        assert main(["analyze", cut, "--strict"]) == 2
        assert "truncated" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["analyze", "temporal"])
    def test_unknown_index_is_refused_before_the_read(
            self, verb, tracefile, tmp_path, capsys):
        cut = self._truncated(tracefile, tmp_path)
        assert main([verb, cut, "--strict", "--index", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown index of dispersion 'nope'" in err
        assert "truncated" not in err

    @pytest.mark.parametrize("epsilon", ["2", "0", "1", "-0.5", "nan"])
    def test_significance_is_refused_before_the_read(
            self, epsilon, tracefile, tmp_path, capsys):
        """An epsilon outside (0, 1) exits 2 before the truncated trace
        is read: its salvage warning never prints."""
        from tests.test_damage_parity import run_cli
        cut = self._truncated(tracefile, tmp_path)
        code, out, err = run_cli(["analyze", cut,
                                  f"--significance={epsilon}"], capsys)
        assert (code, out) == (2, "")
        assert err == ("error: --significance must be a finite number\n"
                       if epsilon == "nan" else
                       "error: --significance must lie in (0, 1)\n")


class TestFaultsCommand:
    def test_listing_without_campaign(self, capsys):
        assert main(["faults"]) == 0
        out = capsys.readouterr().out
        assert "straggler/cfd" in out
        assert "--campaign" in out

    def test_campaign_prints_precision_recall(self, capsys):
        assert main(["faults", "--campaign", "--require-perfect"]) == 0
        out = capsys.readouterr().out
        assert "precision=1.00" in out
        assert "recall=1.00" in out
        for case in ("straggler/cfd", "link/cfd", "drop/cfd", "crash/cfd",
                     "straggler/checkpoint", "crash/checkpoint"):
            assert case in out


class TestTemporalCommand:
    def test_basic(self, tracefile, capsys):
        assert main(["temporal", tracefile]) == 0
        out = capsys.readouterr().out
        assert "time-resolved analysis" in out
        assert "work" in out

    def test_phases_and_forecast_flags(self, tracefile, capsys):
        assert main(["temporal", tracefile, "--windows", "6",
                     "--phases", "--forecast", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "phase" in out.lower()
        assert "forecast" in out.lower()

    def test_heatmap_flag(self, tracefile, capsys):
        assert main(["temporal", tracefile, "--heatmap"]) == 0
        out = capsys.readouterr().out
        assert any(level in out for level in "▁▂▃▄▅▆▇█")

    def test_requires_trace_or_sweep(self, capsys):
        assert main(["temporal"]) == 2
        assert "trace file" in capsys.readouterr().err

    def test_bad_window_count(self, tracefile, capsys):
        assert main(["temporal", tracefile, "--windows", "0"]) == 2

    @pytest.mark.parametrize("level", ["nan", "inf", "-inf"])
    def test_non_finite_forecast_exits_2(self, tracefile, capsys, level):
        assert main(["temporal", tracefile, f"--forecast={level}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --forecast must be a finite number\n"

    def test_missing_sweep_directory(self, tmp_path, capsys):
        assert main(["temporal", "--sweep", str(tmp_path / "nope")]) == 2

    def test_sweep_directory(self, tracefile, capsys):
        import os
        directory = os.path.dirname(tracefile)
        assert main(["temporal", "--sweep", directory,
                     "--windows", "4", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Time-resolved sweep" in out
        assert "run.jsonl" in out

    def test_sweep_uses_cache_on_second_run(self, tracefile, capsys):
        import os
        directory = os.path.dirname(tracefile)
        assert main(["temporal", "--sweep", directory,
                     "--windows", "4"]) == 0
        capsys.readouterr()
        assert main(["temporal", "--sweep", directory,
                     "--windows", "4"]) == 0
        assert "[cached]" in capsys.readouterr().out

    def test_sweep_refuses_an_unknown_index(self, tracefile, capsys):
        import os
        directory = os.path.dirname(tracefile)
        assert main(["temporal", "--sweep", directory, "--index", "nope",
                     "--no-cache"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown index of dispersion 'nope'" in captured.err

    def test_sweep_rejects_fewer_than_one_job(self, tracefile, capsys):
        """Cached or not, the sweep refuses ``--jobs`` below 1 like
        ``analyze --jobs`` does."""
        import os
        directory = os.path.dirname(tracefile)
        for _ in range(2):
            assert main(["temporal", "--sweep", directory, "--windows",
                         "4", "--jobs", "-3"]) == 2
            assert "--jobs must be at least 1" in capsys.readouterr().err
            assert main(["temporal", "--sweep", directory,
                         "--windows", "4"]) == 0


    @pytest.mark.parametrize("flags", [["--phases"], ["--forecast", "0"],
                                       ["--heatmap"]],
                             ids=["phases", "forecast", "heatmap"])
    def test_sweep_refuses_single_trace_flags(self, tracefile, capsys,
                                              monkeypatch, flags):
        """The sweep table has no phase, forecast or heatmap section:
        the flag exits 2 before any trace is read."""
        import os

        def unread(*args, **kwargs):
            raise AssertionError("a trace was read")

        monkeypatch.setattr("repro.sweep.build_report", unread)
        directory = os.path.dirname(tracefile)
        assert main(["temporal", "--sweep", directory, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --sweep already streams per worker and prints one "
            f"table row per trace; it takes no {flags[0]}\n")
        assert not os.path.exists(os.path.join(directory,
                                               ".repro-temporal-cache"))

    def test_sweep_passes_strict_and_chunk_size_on(self, tracefile, capsys,
                                                   monkeypatch):
        import os

        from repro import reports
        seen = []

        def spy(kind, source, params):
            seen.append((params["strict"], params["chunk_size"]))
            return reports.build_report(kind, source, params)

        monkeypatch.setattr("repro.sweep.build_report", spy)
        directory = os.path.dirname(tracefile)
        assert main(["temporal", "--sweep", directory, "--chunk-size", "0",
                     "--no-cache"]) == 2
        assert "--chunk-size must be at least 1" in capsys.readouterr().err
        assert main(["temporal", "--sweep", directory, "--strict",
                     "--chunk-size", "3", "--jobs", "1", "--no-cache"]) == 0
        assert seen == [(True, 3)]

    def test_jobs_needs_sweep(self, tracefile, capsys, monkeypatch):
        """A single trace's temporal report starts no worker, so
        ``--jobs`` without ``--sweep`` exits 2 before the read."""
        def unread(*args, **kwargs):
            raise AssertionError("the trace was read")

        monkeypatch.setattr("repro.cli.build_report", unread)
        assert main(["temporal", tracefile, "--jobs", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--jobs applies to --sweep" in captured.err

class TestStreamFlag:
    """`analyze --stream`: same bytes as the eager path, same exit-code
    contract (0 ok, 1 failed check, 2 usage/data error, 3 internal)."""

    def _eager_output(self, tracefile, capsys, *extra):
        assert main(["analyze", tracefile, *extra]) == 0
        return capsys.readouterr().out

    def test_stream_output_is_byte_identical(self, tracefile, capsys):
        eager = self._eager_output(tracefile, capsys)
        assert main(["analyze", tracefile, "--stream"]) == 0
        assert capsys.readouterr().out == eager

    def test_chunk_size_does_not_change_the_bytes(self, tracefile, capsys):
        eager = self._eager_output(tracefile, capsys)
        assert main(["analyze", tracefile, "--stream",
                     "--chunk-size", "7"]) == 0
        assert capsys.readouterr().out == eager

    def test_sharded_jobs_render_the_same_bytes(self, tracefile, capsys):
        eager = self._eager_output(tracefile, capsys)
        assert main(["analyze", tracefile, "--stream", "--jobs", "2"]) == 0
        assert capsys.readouterr().out == eager

    def test_stream_reads_binary_traces(self, tracefile, tmp_path, capsys):
        from repro.instrument import read_trace, write_binary_trace
        binary = tmp_path / "t.rptb"
        write_binary_trace(binary, read_trace(tracefile))
        eager = self._eager_output(tracefile, capsys)
        assert main(["analyze", str(binary), "--stream"]) == 0
        assert capsys.readouterr().out == eager

    def test_stream_reads_gzip_traces(self, tracefile, tmp_path, capsys):
        import gzip
        import pathlib
        gz = tmp_path / "t.jsonl.gz"
        gz.write_bytes(gzip.compress(
            pathlib.Path(tracefile).read_bytes()))
        eager = self._eager_output(tracefile, capsys)
        assert main(["analyze", str(gz), "--stream"]) == 0
        assert capsys.readouterr().out == eager

    def test_stream_with_index_and_diagnose(self, tracefile, capsys):
        eager = self._eager_output(tracefile, capsys, "--index", "cv",
                                   "--diagnose")
        assert main(["analyze", tracefile, "--stream", "--index", "cv",
                     "--diagnose"]) == 0
        assert capsys.readouterr().out == eager

    def test_stream_with_drop_missing_ranks(self, tracefile, tmp_path,
                                            capsys):
        from repro.instrument import read_trace, write_trace
        events = [event for event in read_trace(tracefile)
                  if event.rank != 2]
        sparse = tmp_path / "sparse.jsonl"
        write_trace(sparse, events)
        assert main(["analyze", str(sparse), "--stream",
                     "--drop-missing-ranks"]) == 0
        out = capsys.readouterr().out
        assert "dropping rank(s) with no recorded events: 2" in out

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "none.jsonl"),
                     "--stream"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unsupported_format_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "t.dat"
        bad.write_bytes(b"definitely not a trace")
        assert main(["analyze", str(bad), "--stream"]) == 2
        assert "no supported trace format" in capsys.readouterr().err

    def test_bad_chunk_size_exits_2(self, tracefile, capsys):
        assert main(["analyze", tracefile, "--stream",
                     "--chunk-size", "0"]) == 2
        assert "--chunk-size" in capsys.readouterr().err

    def test_bad_jobs_exits_2(self, tracefile, capsys):
        assert main(["analyze", tracefile, "--stream", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_timeline_under_stream_and_jobs(self, tracefile, capsys):
        """The timeline re-reads the file after the fold, so ``--stream``
        and ``--jobs`` print the plain command's bytes."""
        outputs = []
        for extra in ([], ["--stream"], ["--jobs", "2"]):
            assert main(["analyze", tracefile, "--timeline", *extra]) == 0
            outputs.append(capsys.readouterr().out)
        assert "timeline:" in outputs[0]
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_export_chrome_under_stream_and_jobs(self, tracefile, tmp_path,
                                                 capsys):
        target = tmp_path / "t.json"
        outputs, exported = [], []
        for extra in ([], ["--stream"], ["--jobs", "2"]):
            assert main(["analyze", tracefile, "--export-chrome",
                         str(target), *extra]) == 0
            outputs.append(capsys.readouterr().out)
            exported.append(target.read_bytes())
        assert f"to {target}" in outputs[0]
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
        assert exported[1] == exported[0] and exported[2] == exported[0]


class TestStreamSalvageFlags:
    """Damaged inputs through the streaming path: salvage by default,
    exit 2 under --strict — for plain, gzip and binary traces."""

    def _truncated_plain(self, tracefile, tmp_path):
        import pathlib
        lines = pathlib.Path(tracefile).read_text().splitlines()
        cut = tmp_path / "cut.jsonl"
        cut.write_text("\n".join(lines[:-1]) + "\n")
        return str(cut)

    def _truncated_gzip(self, tracefile, tmp_path):
        import gzip
        import pathlib
        data = gzip.compress(pathlib.Path(tracefile).read_bytes())
        cut = tmp_path / "cut.jsonl.gz"
        cut.write_bytes(data[:len(data) - 30])
        return str(cut)

    def _truncated_binary(self, tracefile, tmp_path):
        from repro.instrument import read_trace, write_binary_trace
        cut = tmp_path / "cut.rptb"
        write_binary_trace(cut, read_trace(tracefile))
        cut.write_bytes(cut.read_bytes()[:-20])
        return str(cut)

    @pytest.mark.parametrize("make", ["_truncated_plain",
                                      "_truncated_gzip",
                                      "_truncated_binary"])
    def test_stream_salvages_by_default(self, tracefile, tmp_path, capsys,
                                        make):
        from repro.errors import TraceWarning
        cut = getattr(self, make)(tracefile, tmp_path)
        with pytest.warns(TraceWarning):
            assert main(["analyze", cut, "--stream"]) == 0
        assert "Top-down analysis summary" in capsys.readouterr().out

    @pytest.mark.parametrize("make", ["_truncated_plain",
                                      "_truncated_gzip",
                                      "_truncated_binary"])
    def test_stream_strict_refuses_damage(self, tracefile, tmp_path,
                                          capsys, make):
        cut = getattr(self, make)(tracefile, tmp_path)
        assert main(["analyze", cut, "--stream", "--strict"]) == 2
        assert "error" in capsys.readouterr().err

    def test_strict_sharded_jobs_also_refuse(self, tracefile, tmp_path,
                                             capsys):
        cut = self._truncated_plain(tracefile, tmp_path)
        assert main(["analyze", cut, "--stream", "--strict",
                     "--jobs", "2"]) == 2
        assert "error" in capsys.readouterr().err


class TestTemporalStreamFlag:
    def test_stream_output_is_byte_identical(self, tracefile, capsys):
        assert main(["temporal", tracefile, "--windows", "5"]) == 0
        eager = capsys.readouterr().out
        assert main(["temporal", tracefile, "--windows", "5",
                     "--stream"]) == 0
        assert capsys.readouterr().out == eager

    def test_negative_time_trace_windows_identically(self, tmp_path,
                                                      capsys):
        """A trace ending before t=0: the streamed extent used to
        stretch to 0, halving the occupied windows."""
        from repro.core import OnlineAccumulator
        from repro.instrument import TraceEvent, write_trace
        events = [TraceEvent(rank, "r", "computation", -10.0 + step,
                             -9.0 + step + 0.5 * rank)
                  for step in range(4) for rank in range(2)]
        path = tmp_path / "negative.jsonl"
        write_trace(path, events)
        assert OnlineAccumulator().update(events).elapsed == -5.5
        assert OnlineAccumulator().elapsed == 0.0
        assert main(["temporal", str(path), "--windows", "4"]) == 0
        eager = capsys.readouterr().out
        assert "4 windows over 4.5 s" in eager
        assert main(["temporal", str(path), "--windows", "4",
                     "--stream"]) == 0
        assert capsys.readouterr().out == eager

    def test_stream_with_phases_and_small_chunks(self, tracefile, capsys):
        assert main(["temporal", tracefile, "--windows", "6",
                     "--phases"]) == 0
        eager = capsys.readouterr().out
        assert main(["temporal", tracefile, "--windows", "6", "--phases",
                     "--stream", "--chunk-size", "13"]) == 0
        assert capsys.readouterr().out == eager

    def test_stream_is_incompatible_with_sweep(self, tracefile, capsys):
        import os
        assert main(["temporal", "--sweep", os.path.dirname(tracefile),
                     "--stream"]) == 2
        assert "--sweep already streams" in capsys.readouterr().err

    def test_bad_chunk_size_exits_2(self, tracefile, capsys):
        assert main(["temporal", tracefile, "--stream",
                     "--chunk-size", "-3"]) == 2
        assert "--chunk-size" in capsys.readouterr().err


class TestServeVerbs:
    """Upfront validation for the service verbs: expected failures exit
    2 with a one-line error, never a bare traceback."""

    def test_serve_rejects_bad_workers(self, tmp_path, capsys):
        assert main(["serve", "--workers", "0",
                     "--store", str(tmp_path / "s")]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_serve_rejects_bad_port(self, tmp_path, capsys):
        assert main(["serve", "--port", "70000",
                     "--store", str(tmp_path / "s")]) == 2
        assert "--port" in capsys.readouterr().err

    def test_submit_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["submit", str(tmp_path / "nope.jsonl")]) == 2
        assert "error" in capsys.readouterr().err

    def test_submit_unreachable_service_exits_2(self, tracefile, capsys):
        assert main(["submit", tracefile, "--retries", "0",
                     "--url", "http://127.0.0.1:9"]) == 2
        assert "cannot reach analysis service" in capsys.readouterr().err

    def test_fetch_rejects_non_trace_non_sha_argument(self, tmp_path,
                                                      capsys):
        assert main(["fetch", "not-a-file-nor-a-sha"]) == 2
        err = capsys.readouterr().err
        assert "neither a readable trace file" in err

    def test_fetch_rejects_bad_windows(self, tracefile, capsys):
        assert main(["fetch", tracefile, "--kind", "temporal",
                     "--windows", "0"]) == 2
        assert "--windows" in capsys.readouterr().err

    def test_fetch_unreachable_service_exits_2(self, tracefile, capsys):
        assert main(["fetch", tracefile, "--retries", "0",
                     "--url", "http://127.0.0.1:9"]) == 2
        assert "cannot reach analysis service" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--max-body-bytes", "--max-queue",
                                      "--max-cache-bytes",
                                      "--max-store-bytes"])
    def test_serve_rejects_nonpositive_caps(self, tmp_path, capsys, flag):
        assert main(["serve", flag, "0",
                     "--store", str(tmp_path / "s")]) == 2
        assert flag in capsys.readouterr().err

    def test_serve_rejects_bad_request_timeout(self, tmp_path, capsys):
        assert main(["serve", "--request-timeout", "0",
                     "--store", str(tmp_path / "s")]) == 2
        assert "--request-timeout" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["submit", "fetch"])
    def test_negative_retries_exit_2(self, tracefile, capsys, verb):
        assert main([verb, tracefile, "--retries", "-1"]) == 2
        assert "--retries" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["submit", "fetch"])
    def test_negative_retry_max_wait_exits_2(self, tracefile, capsys,
                                             verb):
        assert main([verb, tracefile, "--retry-max-wait", "-1"]) == 2
        assert "--retry-max-wait" in capsys.readouterr().err

    def test_capped_daemon_round_trip(self, tracefile, tmp_path, capsys):
        """The production-limit flags wire through: a daemon with every
        cap set still serves the byte-identical report."""
        from repro.serve import AnalysisServer
        with AnalysisServer(tmp_path / "store", port=0,
                            max_body_bytes=1 << 20,
                            max_queue=4,
                            max_cache_bytes=1 << 20,
                            max_store_bytes=1 << 20,
                            request_timeout=30.0) as daemon:
            assert main(["analyze", tracefile]) == 0
            expected = capsys.readouterr().out
            assert main(["fetch", tracefile, "--url", daemon.url]) == 0
            assert capsys.readouterr().out == expected

    def test_round_trip_through_a_live_daemon(self, tracefile, tmp_path,
                                              capsys):
        from repro.serve import AnalysisServer
        with AnalysisServer(tmp_path / "store", port=0) as daemon:
            assert main(["submit", tracefile, "--url", daemon.url]) == 0
            out = capsys.readouterr().out
            assert "stored" in out and "4 ranks" in out
            assert main(["submit", tracefile, "--url", daemon.url]) == 0
            assert "already stored" in capsys.readouterr().out
            assert main(["analyze", tracefile]) == 0
            expected = capsys.readouterr().out
            assert main(["fetch", tracefile, "--url", daemon.url]) == 0
            assert capsys.readouterr().out == expected

    def test_fetch_json_payload(self, tracefile, tmp_path, capsys):
        import json
        from repro.serve import AnalysisServer
        with AnalysisServer(tmp_path / "store", port=0) as daemon:
            assert main(["fetch", tracefile, "--url", daemon.url,
                         "--json"]) == 0
            report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "repro-report/2"
        assert report["program"]["n_processors"] == 4


class TestOneReportPipeline:
    """Every verb and job kind reads columns: no command turns a file
    into event objects."""

    @pytest.fixture()
    def no_event_objects(self, monkeypatch):
        import repro.instrument as instrument
        import repro.instrument.binary as binary
        from repro.instrument import TraceEvent

        def refuse(*args, **kwargs):
            raise AssertionError("built an event object from a file")

        monkeypatch.setattr(binary, "read_any_tracer", refuse)
        monkeypatch.setattr(instrument, "read_any_tracer", refuse)
        monkeypatch.setattr(Tracer, "__init__", refuse)
        monkeypatch.setattr(TraceEvent, "__init__", refuse)

    def test_timeline_and_chrome_export(self, tracefile, tmp_path, capsys,
                                        no_event_objects):
        target = tmp_path / "t.json"
        assert main(["analyze", tracefile, "--timeline",
                     "--export-chrome", str(target)]) == 0
        out = capsys.readouterr().out
        assert "timeline:" in out and f"to {target}" in out
        assert target.stat().st_size > 0

    def test_every_job_kind(self, tracefile, no_event_objects):
        from repro.serve.jobs import JOB_KINDS, build_report, normalize_params
        for kind in JOB_KINDS:
            payload = build_report(tracefile, "0" * 64, kind,
                                   normalize_params(kind, {}))
            assert payload["status"] == "ok" and payload["text"]

    @pytest.fixture()
    def no_trace_events(self, monkeypatch):
        import repro.instrument as instrument
        import repro.instrument.binary as binary
        from repro.instrument import TraceEvent

        def refuse(*args, **kwargs):
            raise AssertionError("built a TraceEvent")

        # ``no_event_objects`` patches ``binary`` before the package, so
        # the package can keep its refusing binding after that fixture.
        monkeypatch.setattr(instrument, "read_any_tracer",
                            binary.read_any_tracer)
        monkeypatch.setattr(TraceEvent, "__init__", refuse)

    @pytest.fixture()
    def binary_tracefile(self, tracefile, tmp_path):
        from repro.instrument import read_any, write_binary_trace
        path = tmp_path / "run.rptb"
        write_binary_trace(path, read_any(tracefile))
        return str(path)

    def test_self_trace_and_testbed_add(self, tracefile, binary_tracefile,
                                        tmp_path, capsys, no_trace_events):
        """The self-trace is recorded and written as columns, and the
        testbed stores a file of either format through columns."""
        selftrace = tmp_path / "self.jsonl"
        assert main(["self", tracefile, "--trace", str(selftrace)]) == 0
        assert "self-trace events" in capsys.readouterr().out
        bed = str(tmp_path / "bed")
        for trace in (tracefile, binary_tracefile, str(selftrace)):
            assert main(["testbed", bed, "add", trace, "--program", "p",
                         "--machine", "m"]) == 0
        assert main(["testbed", bed, "show", "p-m-002"]) == 0
        assert "p-m-002" not in capsys.readouterr().err
