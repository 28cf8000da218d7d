"""Tests for the binary trace format."""

import pytest

from repro.errors import TraceError, TraceWarning
from repro.instrument import (TraceEvent, read_any, read_binary_trace,
                              sniff_format, write_binary_trace, write_trace)


def sample_events():
    return [
        TraceEvent(0, "loop 1", "computation", 0.0, 1.5),
        TraceEvent(1, "loop 1", "point-to-point", 0.25, 2.0, kind="send",
                   nbytes=123456789, partner=0),
        TraceEvent(0, "loop 2", "synchronization", 1.5, 1.75, kind="wait",
                   nbytes=64, partner=1),
    ]


class TestRoundTrip:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "t.rptb"
        assert write_binary_trace(path, sample_events()) == 3
        assert read_binary_trace(path) == sample_events()

    def test_empty(self, tmp_path):
        path = tmp_path / "t.rptb"
        write_binary_trace(path, [])
        assert read_binary_trace(path) == []

    def test_unicode_names(self, tmp_path):
        events = [TraceEvent(0, "Schleife-1 é", "computation",
                             0.0, 1.0)]
        path = tmp_path / "t.rptb"
        write_binary_trace(path, events)
        assert read_binary_trace(path) == events

    def test_smaller_than_jsonl(self, tmp_path, cfd_run):
        _, tracer, _ = cfd_run
        jsonl = tmp_path / "t.jsonl"
        binary = tmp_path / "t.rptb"
        write_trace(jsonl, tracer.events)
        write_binary_trace(binary, tracer.events)
        assert binary.stat().st_size < jsonl.stat().st_size / 2

    def test_binary_roundtrip_of_simulator_trace(self, tmp_path, cfd_run):
        _, tracer, _ = cfd_run
        path = tmp_path / "t.rptb"
        write_binary_trace(path, tracer.events)
        assert tuple(read_binary_trace(path)) == tracer.events


class TestRecordLayout:
    def test_record_is_37_packed_bytes(self):
        import struct

        from repro.instrument.binary import RECORD
        assert RECORD.itemsize == 37
        assert struct.calcsize("<IHHddBQi") == RECORD.itemsize

    def test_empty_and_non_ascii_names_round_trip(self, tmp_path):
        from repro.instrument import iter_binary_span
        events = [
            TraceEvent(0, "", "computation", 0.0, 1.0),
            TraceEvent(1, "Schleife ü", "通信", 0.5, 2.0, kind="send",
                       nbytes=7, partner=0),
            TraceEvent(2, "", "écriture", 1.0, 1.5, kind="wait"),
        ]
        path = tmp_path / "t.rptb"
        assert write_binary_trace(path, events) == 3
        assert read_binary_trace(path) == events
        assert [event for chunk in iter_binary_span(path, 0, 3, 2)
                for event in chunk] == events


class TestValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError):
            read_binary_trace(tmp_path / "none.rptb")

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "t.rptb"
        path.write_bytes(b"NOPE" + b"\x00" * 30)
        with pytest.raises(TraceError):
            read_binary_trace(path)

    def test_truncated_records_salvaged(self, tmp_path):
        path = tmp_path / "t.rptb"
        write_binary_trace(path, sample_events())
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.warns(TraceWarning, match="truncated"):
            events = read_binary_trace(path)
        assert events == sample_events()[:-1]
        with pytest.raises(TraceError) as info:
            read_binary_trace(path, on_error="raise")
        assert "truncated" in str(info.value)

    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_count_past_any_file_offset_is_truncation(self, tmp_path,
                                                      n_shards):
        """A header promising 2**62 records puts their byte offsets past
        the largest a file can have: the records present are salvaged,
        read whole or in shards."""
        import struct
        from repro.shards import shard_accumulate
        path = tmp_path / "t.rptb"
        write_binary_trace(path, sample_events())
        data = bytearray(path.read_bytes())
        struct.pack_into("<Q", data, 10, 1 << 62)   # <4sHIQI: event count
        path.write_bytes(bytes(data))
        with pytest.warns(TraceWarning, match="truncated"):
            fold = shard_accumulate(path, jobs=1, n_shards=n_shards)
        assert fold.n_events == len(sample_events())

    def test_too_short(self, tmp_path):
        path = tmp_path / "t.rptb"
        path.write_bytes(b"RP")
        with pytest.raises(TraceError):
            read_binary_trace(path)

    def test_trailing_nul_padding_is_not_damage(self, tmp_path):
        """Block-padded storage appends NULs after the records; both
        modes read through them cleanly — the binary mirror of the
        JSONL reader's blank-line tolerance."""
        import warnings
        path = tmp_path / "t.rptb"
        write_binary_trace(path, sample_events())
        path.write_bytes(path.read_bytes() + b"\x00" * 4096)
        with warnings.catch_warnings():
            warnings.simplefilter("error", TraceWarning)
            assert read_binary_trace(path) == sample_events()
            assert read_binary_trace(
                path, on_error="raise") == sample_events()

    def test_non_nul_trailing_bytes_are_damage(self, tmp_path):
        path = tmp_path / "t.rptb"
        write_binary_trace(path, sample_events())
        path.write_bytes(path.read_bytes() + b"\x00extra")
        with pytest.warns(TraceWarning, match="truncated"):
            assert read_binary_trace(path) == sample_events()
        with pytest.raises(TraceError):
            read_binary_trace(path, on_error="raise")


class TestUnencodable:
    """What a record or the string table cannot hold is refused before
    the file is opened, instead of reading back as something else."""

    def refused(self, tmp_path, event, match):
        path = tmp_path / "t.rptb"
        with pytest.raises(TraceError, match=match):
            write_binary_trace(path, sample_events() + [event])
        assert not path.exists()

    def test_negative_nbytes(self, tmp_path):
        self.refused(tmp_path, TraceEvent(0, "r", "a", 0.0, 1.0, nbytes=-5),
                     "nbytes")

    def test_nbytes_past_u64(self, tmp_path):
        self.refused(tmp_path, TraceEvent(0, "r", "a", 0.0, 1.0,
                                          nbytes=2 ** 64), "nbytes")

    def test_partner_past_i32(self, tmp_path):
        self.refused(tmp_path, TraceEvent(0, "r", "a", 0.0, 1.0,
                                          partner=2 ** 31), "partner")
        self.refused(tmp_path, TraceEvent(0, "r", "a", 0.0, 1.0,
                                          partner=-2 ** 31 - 1), "partner")

    def test_rank_count_past_u32(self, tmp_path):
        """The header's rank count is the largest rank + 1."""
        self.refused(tmp_path, TraceEvent(2 ** 32, "r", "a", 0.0, 1.0),
                     "rank")
        self.refused(tmp_path, TraceEvent(2 ** 32 - 1, "r", "a", 0.0, 1.0),
                     "rank")

    def test_name_with_nul(self, tmp_path):
        self.refused(tmp_path, TraceEvent(0, "a\x00b", "a", 0.0, 1.0),
                     "NUL")

    def test_limits_themselves_round_trip(self, tmp_path):
        path = tmp_path / "t.rptb"
        events = [TraceEvent(2 ** 32 - 2, "r", "a", 0.0, 1.0,
                             nbytes=2 ** 64 - 1, partner=-2 ** 31),
                  TraceEvent(0, "r", "a", 0.0, 1.0, partner=2 ** 31 - 1)]
        write_binary_trace(path, events)
        assert read_binary_trace(path) == events


class TestSniffAndDispatch:
    def test_sniff_binary(self, tmp_path):
        path = tmp_path / "t.rptb"
        write_binary_trace(path, sample_events())
        assert sniff_format(path) == "binary"
        assert read_any(path) == sample_events()

    def test_sniff_jsonl(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_trace(path, sample_events())
        assert sniff_format(path) == "jsonl"
        assert read_any(path) == sample_events()

    def test_sniff_gzip_jsonl(self, tmp_path):
        path = tmp_path / "t.jsonl.gz"
        write_trace(path, sample_events())
        assert sniff_format(path) == "jsonl"
        assert read_any(path) == sample_events()

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "mystery.dat"
        path.write_bytes(b"garbage")
        assert sniff_format(path) == "unknown"
        with pytest.raises(TraceError):
            read_any(path)


class TestChunkSources:
    """The writer takes chunks as a ``Tracer`` does; each chunk's names
    are re-coded into the one string table."""

    def test_tracer_of_reader_chunks_writes_its_events_bytes(self,
                                                             tmp_path):
        from repro.instrument import Tracer, iter_any
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_trace(first, sample_events())
        # Other names, and shared ones in another order: the two
        # reader chunks carry different name tables.
        write_trace(second, [
            TraceEvent(2, "loop 9", "i/o", 0.0, 0.5),
            TraceEvent(3, "loop 2", "computation", 0.5, 1.0),
            TraceEvent(2, "loop 1", "collective", 1.0, 3.0, kind="recv",
                       nbytes=8, partner=3),
        ])
        tracer = Tracer()
        tracer.extend(iter_any(first))
        tracer.extend(iter_any(second))
        chunks = list(tracer)
        assert len(chunks) == 2 and chunks[0].names != chunks[1].names
        from_chunks, from_events = tmp_path / "c.rptb", tmp_path / "e.rptb"
        assert write_binary_trace(from_chunks, tracer) == 6
        assert write_binary_trace(from_events, tracer.events) == 6
        assert from_chunks.read_bytes() == from_events.read_bytes()
        assert read_binary_trace(from_chunks) == list(tracer.events)

    def test_names_only_a_chunk_table_holds_are_not_written(self,
                                                             tmp_path):
        """A selected chunk keeps its whole name table; the file holds
        only the names its events use."""
        import numpy as np
        from repro.instrument import Tracer
        chunk, = Tracer(sample_events())
        kept = chunk.select(np.array([False, True, True]))
        path, expected = tmp_path / "s.rptb", tmp_path / "x.rptb"
        write_binary_trace(path, [kept])
        write_binary_trace(expected, sample_events()[1:])
        assert path.read_bytes() == expected.read_bytes()

    def test_folded_trace_and_chunk_generator(self, tmp_path):
        from repro.instrument import iter_any
        from repro.instrument.stream import FoldedTrace, accumulate_trace
        jsonl = tmp_path / "t.jsonl"
        write_trace(jsonl, sample_events())
        expected = tmp_path / "e.rptb"
        write_binary_trace(expected, sample_events())
        folded = FoldedTrace(jsonl, accumulate_trace(jsonl), 2, "raise")
        for source in (folded, iter_any(jsonl, chunk_size=1)):
            path = tmp_path / "t.rptb"
            assert write_binary_trace(path, source) == 3
            assert path.read_bytes() == expected.read_bytes()
