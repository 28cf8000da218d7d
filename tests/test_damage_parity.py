"""One damage policy at every entry point (Hypothesis).

A trace is written in each format (JSONL, gzipped JSONL, binary) and
given one damage: a truncation at any offset, overwritten bytes, NUL
padding or non-NUL junk after the end, a broken gzip stream, a bad
UTF-8 byte (the header included), or a header that lies about its
event or rank count.  Every entry point must then give the *same*
outcome — the same events kept, the same tensor (to 1e-12), the same
warning text, or the same :class:`~repro.errors.TraceError`:

* ``read_any`` (the reference),
* ``OnlineAccumulator().consume(iter_any(...))``,
* ``accumulate_trace``,
* ``shard_accumulate`` over 1, 2 and 7 shards,
* daemon ingest (``TraceStore.add_bytes``: accepted with the same
  event count and ``salvaged`` flag, or refused), and over HTTP never
  a 5xx.

Fixed damaged inputs also run through the CLI's ``main()``: every
``analyze`` and ``temporal`` variant gives the same exit code and the
same one-line stderr, and the variants of one verb the same stdout.
"""

import gzip
import http.client
import json
import struct
import sys
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import OnlineAccumulator
from repro.errors import TraceError, TraceWarning
from repro.instrument import read_any, write_binary_trace, write_trace
from repro.instrument.stream import accumulate_trace, iter_any, trace_windows
from repro.serve import AnalysisServer, TraceStore
from repro.shards import shard_accumulate
from tests.test_properties_stream import annotated_traces

FORMATS = ("jsonl", "jsonl.gz", "rptb")
DAMAGES = ("truncate", "overwrite", "nul_pad", "junk", "bad_utf8",
           "header_events", "header_ranks")

#: Offsets of the rank and event counts in the binary header
#: (``<4sHIQI``: magic, version, ranks, events, string-table length).
_RANKS_AT, _EVENTS_AT = 6, 10


@st.composite
def damaged_traces(draw):
    """``(events, format, damage, where, junk, delta)``: a trace and
    one damage to apply to its file."""
    return (draw(annotated_traces(max_size=30)),
            draw(st.sampled_from(FORMATS)), draw(st.sampled_from(DAMAGES)),
            draw(st.floats(0.0, 1.0, exclude_max=True)),
            draw(st.binary(min_size=1, max_size=8)),
            draw(st.integers(-3, 3).filter(bool)))


def _lie(data: bytes, fmt: str, field: str, delta: int) -> bytes:
    """The file with its header's ``field`` count moved by ``delta``."""
    if fmt == "rptb":
        at = _RANKS_AT if field == "ranks" else _EVENTS_AT
        code = "<I" if field == "ranks" else "<Q"
        value = struct.unpack_from(code, data, at)[0]
        lied = bytearray(data)
        struct.pack_into(code, lied, at, max(value + delta, 0))
        return bytes(lied)
    header, rest = data.split(b"\n", 1)
    fields = json.loads(header)
    fields[field] = max(fields[field] + delta, 0)
    return json.dumps(fields).encode("utf-8") + b"\n" + rest


def damage(data: bytes, fmt: str, kind: str, where: float, junk: bytes,
           delta: int) -> bytes:
    """Apply one damage.  A gzip trace takes content damage (bad UTF-8,
    header lies) inside the stream and byte damage on the stream."""
    if fmt == "jsonl.gz" and kind in ("bad_utf8", "header_events",
                                      "header_ranks"):
        plain = damage(gzip.decompress(data), "jsonl", kind, where, junk,
                       delta)
        return gzip.compress(plain, mtime=0)
    position = int(where * len(data))
    if kind == "truncate":
        return data[:position]
    if kind == "overwrite":
        return data[:position] + junk[:len(data) - position] \
            + data[position + len(junk):]
    if kind == "nul_pad":
        return data + b"\x00" * len(junk)
    if kind == "junk":
        return data + (junk if junk.strip(b"\x00") else b"#" + junk)
    if kind == "bad_utf8":
        return data[:position] + b"\xff" + data[position:]
    return _lie(data, fmt, kind[len("header_"):], delta)


def write_damaged(directory, events, fmt, *damage_args):
    """Write ``events`` as a damaged ``fmt`` trace: ``(path, bytes)``."""
    path = directory / f"t.{fmt}"
    if fmt == "rptb":
        write_binary_trace(path, events)
    else:
        write_trace(path, events)
    data = damage(path.read_bytes(), fmt, *damage_args)
    path.write_bytes(data)
    return path, data


def outcome(call):
    """``("raised", message)`` or ``("read", events, warnings,
    measurements)`` — ``measurements`` being the finalized tensor's
    labels and values, or why finalizing failed."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call()
        except TraceError as error:
            return ("raised", str(error))
    if isinstance(result, list):
        result = OnlineAccumulator().update(result)
    try:
        finalized = result.finalize()
        measurements = (finalized.regions, finalized.activities,
                        finalized.times, finalized.total_time)
    except Exception as error:          # noqa: BLE001 - compared below
        measurements = (type(error).__name__, str(error))
    return ("read", result.n_events,
            [str(entry.message) for entry in caught
             if issubclass(entry.category, TraceWarning)], measurements)


def assert_same(got, expected, name):
    assert got[:3] == expected[:3], name
    if expected[0] == "raised" or isinstance(expected[3][0], str):
        assert got == expected, name
        return
    regions, activities, times, total = got[3]
    assert (regions, activities) == expected[3][:2], name
    assert times.shape == expected[3][2].shape, name
    assert np.allclose(times, expected[3][2], rtol=0, atol=1e-12), name
    assert abs(total - expected[3][3]) <= 1e-12, name


def entry_points(path, chunk_size):
    points = {
        "iter_any": lambda: OnlineAccumulator().consume(
            iter_any(path, chunk_size=chunk_size)),
        "accumulate_trace": lambda: accumulate_trace(
            path, chunk_size=chunk_size),
    }
    for n_shards in (1, 2, 7):
        points[f"shards-{n_shards}"] = (
            lambda n=n_shards: shard_accumulate(
                path, jobs=1, n_shards=n, chunk_size=chunk_size))
    return points


class TestEveryEntryPointAgrees:
    @settings(max_examples=250, deadline=None)
    @given(case=damaged_traces(), chunk_size=st.integers(1, 7))
    def test_damaged_trace(self, tmp_path_factory, case, chunk_size):
        events, fmt, *damage_args = case
        directory = tmp_path_factory.mktemp("damage")
        path, data = write_damaged(directory, events, fmt, *damage_args)
        expected = outcome(lambda: read_any(path))
        for name, call in entry_points(path, chunk_size).items():
            assert_same(outcome(call), expected, name)

        store = TraceStore(directory / "store")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TraceWarning)
            try:
                meta, _ = store.add_bytes(data)
            except TraceError:
                assert expected[0] == "raised"
                return
        assert expected[0] == "read"
        assert (meta.events, meta.salvaged) == (expected[1],
                                                bool(expected[2]))


def _paper_fixture(directory, fmt):
    """The synthesized paper trace (289 events) with one bad event in
    the middle: a malformed JSON line, or a binary record ending before
    it begins."""
    from repro.calibrate import synthesize_paper_trace
    from repro.instrument.binary import RECORD
    clean = directory / "paper.jsonl"
    synthesize_paper_trace(clean)
    if fmt == "jsonl":
        lines = clean.read_bytes().split(b"\n")
        lines[151] = b'{"r": 0, "g": '
        path = directory / "bad-line.jsonl"
        path.write_bytes(b"\n".join(lines))
        return path
    path = directory / "end-before-begin.rptb"
    events = read_any(clean)
    write_binary_trace(path, events)
    data = path.read_bytes()
    at = len(data) - RECORD.itemsize * len(events)
    records = np.frombuffer(data, dtype=RECORD, offset=at).copy()
    records["end"][150] = records["begin"][150] - 1.0
    path.write_bytes(data[:at] + records.tobytes())
    return path


class TestFixedInputs:
    @pytest.mark.parametrize("fmt", ["jsonl", "rptb"])
    def test_worker_pool_salvages_the_sequential_prefix(self, tmp_path,
                                                        fmt):
        """A real two-process pool over three shards: the shards after
        the damage are dropped, the warning is the sequential one."""
        path = _paper_fixture(tmp_path, fmt)
        expected = outcome(lambda: read_any(path))
        assert expected[0] == "read" and expected[1] == 150
        assert_same(outcome(lambda: shard_accumulate(path, jobs=2,
                                                     n_shards=3)),
                    expected, "pool")

    @pytest.mark.parametrize("fmt", ["jsonl", "rptb"])
    def test_rank_beyond_the_header_is_record_damage(self, tmp_path, fmt):
        """A hostile rank is damage, never a huge tensor: the prefix
        before it is salvaged, or strict mode refuses the trace."""
        path = hostile_rank(tmp_path, fmt)
        with pytest.warns(TraceWarning, match="not below the header's 4 "
                          "ranks; salvaged the first 5"):
            folded = accumulate_trace(path)
        assert (folded.n_events, folded.n_ranks) == (5, 4)
        with pytest.raises(TraceError, match="rank 4278190084"):
            accumulate_trace(path, on_error="raise")

    def test_hostile_nesting_is_line_damage(self, tmp_path):
        """JSON nested past the recursion limit is a bad line (or a bad
        header), not an internal error."""
        from repro.instrument import TraceEvent
        path = tmp_path / "nested.jsonl"
        write_trace(path, [TraceEvent(0, "work", "computation", 0.0, 1.0)])
        clean = path.read_bytes()
        nested = b"[" * 100_000 + b"]" * 100_000 + b"\n"
        path.write_bytes(clean + nested)
        with pytest.warns(TraceWarning, match="recursion"):
            assert accumulate_trace(path).n_events == 1
        path.write_bytes(b'{"format": ' + nested[:-1] + b"}\n" + clean)
        with pytest.raises(TraceError, match="bad trace header"):
            accumulate_trace(path)

    def test_corrupt_gzip_is_stream_damage(self, tmp_path, capsys):
        """A zlib error mid-stream salvages the decoded prefix (exit 0
        with a warning) or refuses the trace (exit 2, ``--strict``) —
        in the CLI and in daemon ingest alike, never a crash."""
        from repro.cli import main
        path = corrupt_gzip(tmp_path)
        for argv in (["analyze", str(path)],
                     ["temporal", str(path), "--windows", "4"]):
            with pytest.warns(TraceWarning, match="damaged stream"):
                assert main(argv) == 0
            assert main(argv + ["--strict"]) == 2
            assert "damaged stream" in capsys.readouterr().err
        meta, _ = TraceStore(tmp_path / "store").add_bytes(
            path.read_bytes())
        assert meta.salvaged and 0 < meta.events < 289


def hostile_rank(directory, fmt):
    """Eight events on four ranks, the sixth claiming rank 0xFF000004."""
    from repro.instrument import TraceEvent
    events = [TraceEvent(rank % 4, "work", "computation", float(rank),
                         float(rank) + 1.0) for rank in range(8)]
    path = directory / f"hostile.{fmt}"
    (write_binary_trace if fmt == "rptb" else write_trace)(path, events)
    data = path.read_bytes()
    if fmt == "rptb":
        from repro.instrument.binary import RECORD
        at = len(data) - RECORD.itemsize * len(events)
        records = np.frombuffer(data, dtype=RECORD, offset=at).copy()
        records["rank"][5] = 0xFF000004
        path.write_bytes(data[:at] + records.tobytes())
    else:
        lines = data.split(b"\n")
        lines[6] = lines[6].replace(b'"r": 1', b'"r": 4278190084')
        path.write_bytes(b"\n".join(lines))
    return path


def headerless_rank(directory, ranks=(0xFF000004,)):
    """A JSONL trace whose header declares no rank count, holding one
    event per rank in ``ranks`` (by default one at rank 0xFF000004)."""
    header = {"format": "repro-trace", "version": 1, "events": len(ranks)}
    lines = [json.dumps(header)] + [json.dumps(
        {"r": rank, "g": "work", "a": "computation", "b": 0.0, "e": 1.0,
         "k": "compute", "n": 0, "p": -1}) for rank in ranks]
    path = directory / "headerless-rank.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


def boundless_rank(directory):
    """The binary paper trace with a header declaring 0xFFFFFFFF ranks
    and record 150 claiming rank 0xFF000004."""
    from repro.calibrate import synthesize_paper_trace
    from repro.instrument.binary import RECORD
    clean = directory / "paper.jsonl"
    synthesize_paper_trace(clean)
    events = read_any(clean)
    path = directory / "boundless-rank.rptb"
    write_binary_trace(path, events)
    data = bytearray(path.read_bytes())
    struct.pack_into("<I", data, _RANKS_AT, 0xFFFFFFFF)
    at = len(data) - RECORD.itemsize * len(events)
    records = np.frombuffer(bytes(data), dtype=RECORD, offset=at).copy()
    records["rank"][150] = 0xFF000004
    path.write_bytes(bytes(data[:at]) + records.tobytes())
    return path


def wide_rank(directory):
    """A 5.5 MB binary trace: 150,000 events on 64 ranks x 32 regions x
    4 activities, one of them claiming rank 5,000,000 (below both the
    header's 0xFFFFFFFF ranks and the file's size in bytes)."""
    from repro.instrument.binary import RECORD
    count = 150_000
    names = [f"region {index}" for index in range(32)] + [
        "computation", "point-to-point", "collective", "synchronization"]
    table = "\0".join(names).encode()
    records = np.zeros(count, dtype=RECORD)
    index = np.arange(count)
    records["rank"] = index % 64
    records["region"] = index // 64 % 32
    records["activity"] = 32 + index // 2048 % 4
    records["begin"] = index // 64
    records["end"] = records["begin"] + 0.5
    records["rank"][count // 2] = 5_000_000
    path = directory / "wide-rank.rptb"
    path.write_bytes(struct.pack("<4sHIQI", b"RPTB", 1, 0xFFFFFFFF, count,
                                 len(table)) + table + records.tobytes())
    return path


def corrupt_gzip(directory):
    """The gzipped paper trace with four deflate bytes overwritten where
    that makes zlib fail mid-stream."""
    from repro.calibrate import synthesize_paper_trace
    clean = directory / "paper.jsonl"
    synthesize_paper_trace(clean)
    packed = gzip.compress(clean.read_bytes(), mtime=0)
    path = directory / "broken.jsonl.gz"
    for position in range(len(packed) // 2, len(packed) - 8):
        broken = packed[:position] + b"\xff" * 4 + packed[position + 4:]
        try:
            gzip.decompress(broken)
        except zlib.error:
            path.write_bytes(broken)
            return path
        except (EOFError, OSError):
            continue
    raise AssertionError("no overwrite breaks the deflate stream")


#: Every fixed damaged input, by id.
FIXED_INPUTS = {
    "bad-line": lambda directory: _paper_fixture(directory, "jsonl"),
    "end-before-begin": lambda directory: _paper_fixture(directory, "rptb"),
    "corrupt-gzip": corrupt_gzip,
    "rank-jsonl": lambda directory: hostile_rank(directory, "jsonl"),
    "rank-rptb": lambda directory: hostile_rank(directory, "rptb"),
    "headerless-rank": headerless_rank,
    "boundless-rank": boundless_rank,
    "wide-rank": wide_rank,
    "rank-past-int64": lambda directory: headerless_rank(
        directory, (0, 1 << 70)),
}

#: The CLI variants of each verb the oracle drives.
VARIANTS = {
    "analyze": ([], ["--jobs", "2"], ["--stream"], ["--timeline"]),
    "temporal": (["--windows", "4"], ["--windows", "4", "--stream"]),
}


def _show_on_stderr(message, category, filename, lineno, file=None,
                    line=None):
    """Python's default warning display, which the test runner's own
    warning capture replaces."""
    sys.stderr.write(warnings.formatwarning(message, category, filename,
                                            lineno, line))


def run_cli(argv, capsys):
    """``(exit code, stdout, stderr)`` of one ``main()`` call, with its
    warnings shown as the command line shows them."""
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = _show_on_stderr
        code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCliAgrees:
    @pytest.mark.parametrize("make", FIXED_INPUTS.values(),
                             ids=FIXED_INPUTS.keys())
    def test_every_variant_gives_one_outcome(self, tmp_path, capsys, make):
        """Same exit code and stderr line from every variant of both
        verbs, the same stdout within a verb (the timeline adds its own
        section after the report); a salvage warning is one line."""
        path = str(make(tmp_path))
        runs = {verb: [run_cli([verb, path, *extra], capsys)
                       for extra in variants]
                for verb, variants in VARIANTS.items()}
        outcomes = [run for verb_runs in runs.values() for run in verb_runs]
        code, _, err = outcomes[0]
        assert code in (0, 2)
        assert len(err.splitlines()) == 1
        assert err.startswith("warning: " if code == 0 else "error: ")
        for other in outcomes[1:]:
            assert (other[0], other[2]) == (code, err)
        plain, jobs, streamed, timeline = (run[1] for run in runs["analyze"])
        assert jobs == plain and streamed == plain
        if code == 0:
            assert timeline.startswith(plain[:-1] + "\n\ntimeline: ")
        assert runs["temporal"][1][1] == runs["temporal"][0][1]


class TestProcessorAxisBound:
    def test_event_bytes_mirror_the_binary_record(self):
        from repro.core.online import EVENT_BYTES
        from repro.instrument.binary import RECORD
        assert EVENT_BYTES == RECORD.itemsize

    @pytest.mark.parametrize("make", [headerless_rank, boundless_rank,
                                      wide_rank],
                             ids=["headerless-rank", "boundless-rank",
                                  "wide-rank"])
    def test_rank_out_of_proportion_is_refused(self, tmp_path, make):
        """A rank that would give the tensor more cells than the events
        take bytes refuses the trace in every fold and in daemon ingest,
        without allocating that tensor."""
        import tracemalloc
        path = make(tmp_path)
        refused = "would give the tensor .* cells, more than the"
        tracemalloc.start()
        try:
            for read in (lambda: accumulate_trace(path).finalize(),
                         lambda: accumulate_trace(path, jobs=2).n_ranks,
                         lambda: trace_windows(path, 4, reread=True)):
                with pytest.raises(TraceError, match=refused):
                    read()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < max(path.stat().st_size, 1 << 20)
        with pytest.raises(TraceError, match=refused):
            TraceStore(tmp_path / "store").add_bytes(path.read_bytes())

    @pytest.mark.parametrize("offset,ranks", [(48, 64), (4096, None)])
    def test_sparse_rank_ids_are_judged_by_their_events(
            self, tmp_path, capsys, offset, ranks):
        """Rank ids need not be dense (``merge(rank_offsets=)`` shifts
        them apart): such a trace reads intact while its events take at
        least as many bytes as the tensor has cells, and is refused
        (exit 2) past that."""
        from repro.calibrate import synthesize_paper_trace
        from repro.instrument import read_any_tracer
        from repro.instrument.filters import merge
        synthesize_paper_trace(tmp_path / "paper.jsonl")
        paper = read_any_tracer(tmp_path / "paper.jsonl")
        path = tmp_path / "merged.jsonl"
        write_trace(path, merge([paper, paper], [0, offset]).events)
        code = main(["analyze", str(path)])
        err = capsys.readouterr().err
        if ranks is None:
            assert code == 2
            assert err.startswith(f"error: rank {offset + 15} would give")
        else:
            assert (code, err) == (0, "")
            assert accumulate_trace(path).n_ranks == ranks


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    store = tmp_path_factory.mktemp("fuzz") / "store"
    with AnalysisServer(store, port=0, workers=1) as server:
        yield server


def post_trace(server, body: bytes) -> int:
    host, port = server.address
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        connection.request("POST", "/traces", body=body,
                           headers={"Content-Length": str(len(body))})
        response = connection.getresponse()
        response.read()
        return response.status
    finally:
        connection.close()


class TestDaemonIngestFuzz:
    @settings(max_examples=60, deadline=None)
    @given(case=damaged_traces())
    def test_ingest_never_answers_5xx(self, daemon, tmp_path_factory, case):
        events, fmt, *damage_args = case
        _, data = write_damaged(tmp_path_factory.mktemp("post"), events,
                                fmt, *damage_args)
        assert post_trace(daemon, data) < 500

    @pytest.mark.parametrize("make", [
        corrupt_gzip, lambda directory: hostile_rank(directory, "rptb"),
        lambda directory: hostile_rank(directory, "jsonl")],
        ids=["corrupt-gzip", "rank-rptb", "rank-jsonl"])
    def test_hostile_fixtures_are_accepted(self, daemon, tmp_path, make):
        assert post_trace(daemon, make(tmp_path).read_bytes()) == 201

    @pytest.mark.parametrize("make", [headerless_rank, boundless_rank],
                             ids=["headerless-rank", "boundless-rank"])
    def test_ranks_out_of_proportion_answer_400(self, daemon, tmp_path,
                                                make):
        """Refused like ``repro analyze`` exits 2."""
        assert post_trace(daemon, make(tmp_path).read_bytes()) == 400
