"""Unit tests for the trace file format."""

import gzip
import json

import pytest

from repro.errors import TraceError, TraceWarning
from repro.instrument import (FORMAT_NAME, Tracer, TraceEvent, read_trace,
                              read_tracer, write_trace, write_tracer)


def sample_events():
    return [
        TraceEvent(0, "r1", "computation", 0.0, 1.0),
        TraceEvent(1, "r1", "point-to-point", 0.5, 1.5, kind="send",
                   nbytes=1024, partner=0),
        TraceEvent(0, "r2", "synchronization", 1.0, 1.25, kind="wait"),
    ]


class TestRoundTrip:
    def test_plain(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        written = write_trace(path, sample_events())
        assert written == 3
        assert read_trace(path) == sample_events()

    def test_gzip(self, tmp_path):
        path = tmp_path / "trace.jsonl.gz"
        write_trace(path, sample_events())
        assert read_trace(path) == sample_events()
        with gzip.open(path, "rt") as stream:
            header = json.loads(stream.readline())
        assert header["format"] == FORMAT_NAME

    def test_tracer_roundtrip(self, tmp_path):
        tracer = Tracer()
        tracer.extend(sample_events())
        path = tmp_path / "t.jsonl"
        assert write_tracer(path, tracer) == len(tracer)
        back = read_tracer(path)
        assert back.events == tracer.events
        assert back.elapsed == tracer.elapsed

    def test_gzip_cfd_trace_compresses(self, tmp_path, cfd_run):
        tracer = cfd_run[1]
        plain, packed = tmp_path / "t.jsonl", tmp_path / "t.jsonl.gz"
        write_tracer(plain, tracer)
        write_tracer(packed, tracer)
        assert len(read_trace(packed)) == len(tracer)
        assert plain.stat().st_size > 2 * packed.stat().st_size

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_trace(path, [])
        assert read_trace(path) == []

    def test_header_metadata(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(path, sample_events())
        header = json.loads(path.read_text().splitlines()[0])
        assert header["ranks"] == 2
        assert header["events"] == 3


class TestValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError):
            read_trace(tmp_path / "nope.jsonl")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("")
        with pytest.raises(TraceError):
            read_trace(path)

    def test_wrong_format(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps({"format": "other", "version": 1}) + "\n")
        with pytest.raises(TraceError):
            read_trace(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps({"format": FORMAT_NAME,
                                    "version": 99}) + "\n")
        with pytest.raises(TraceError):
            read_trace(path)

    def test_truncated_file_salvaged(self, tmp_path):
        path = tmp_path / "t.jsonl"
        count = write_trace(path, sample_events())
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.warns(TraceWarning, match="truncated"):
            events = read_trace(path)
        assert len(events) == count - 1
        with pytest.raises(TraceError) as info:
            read_trace(path, on_error="raise")
        assert "truncated" in str(info.value)

    def test_corrupt_event_line_salvaged(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(path, sample_events()[:1])
        with open(path, "a", encoding="utf-8") as stream:
            stream.write("{not json}\n")
        with pytest.warns(TraceWarning, match="bad event"):
            events = read_trace(path)
        assert len(events) == 1
        with pytest.raises(TraceError):
            read_trace(path, on_error="raise")

    def test_invalid_event_fields(self, tmp_path):
        path = tmp_path / "t.jsonl"
        header = {"format": FORMAT_NAME, "version": 1, "ranks": 1,
                  "events": 1}
        record = {"r": 0, "g": "x", "a": "computation", "b": 5.0,
                  "e": 1.0, "k": "compute", "n": 0, "p": -1}
        path.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
        # The bad record is the only one: nothing salvageable, so even
        # the lenient default raises.
        with pytest.raises(TraceError):
            read_trace(path)

    def test_bad_on_error_value(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(path, sample_events())
        with pytest.raises(TraceError):
            read_trace(path, on_error="explode")

    def test_blank_lines_are_not_damage(self, tmp_path):
        """Blank and whitespace-only lines between or after events are
        skipped in both modes without counting against the header's
        promised event count — the JSONL mirror of the binary reader's
        trailing NUL-padding tolerance."""
        import warnings
        path = tmp_path / "t.jsonl"
        write_trace(path, sample_events())
        lines = path.read_text().splitlines()
        lines.insert(2, "")
        lines.insert(4, " \t ")
        path.write_text("\n".join(lines) + "\n\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", TraceWarning)
            assert read_trace(path) == sample_events()
            assert read_trace(path, on_error="raise") == sample_events()


class TestEndToEndFileWorkflow:
    def test_simulate_write_read_profile(self, tmp_path):
        from repro.instrument import profile
        from repro.simmpi import Simulator

        def program(comm):
            with comm.region("work"):
                yield from comm.compute(0.01 * (comm.rank + 1))
                yield from comm.barrier()

        tracer = Tracer()
        Simulator(4, trace_sink=tracer.record).run(program)
        path = tmp_path / "run.jsonl.gz"
        write_tracer(path, tracer)
        measurements = profile(read_tracer(path))
        direct = profile(tracer)
        assert measurements.regions == direct.regions
        assert measurements.total_time == pytest.approx(direct.total_time)
