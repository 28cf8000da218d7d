"""Windows fold through the shard driver, like the tensor.

``repro temporal`` reads its trace through
:func:`repro.shards.shard_accumulate` folding a
:class:`~repro.instrument.windows.WindowFold`, as ``analyze`` folds an
accumulator.  So its damage is judged once, by the driver, and any
plan gives the sequential fold's windows bit for bit:

* a Hypothesis property over the damaged traces of
  :mod:`tests.test_damage_parity`: the 1-, 2- and 7-shard plans give
  ``fold_windows`` over the sequential read's outcome — the same
  warnings or error, labels, ``T`` and ``array_equal`` packed rows;
* non-finite event times (JSONL ``Infinity``/``NaN``, a binary ``inf``)
  are record damage, salvaged like any other, by every CLI variant of
  both verbs and by daemon ingest.
"""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError, TraceWarning
from repro.instrument import (EventColumns, TraceEvent, write_binary_trace,
                              write_trace)
from repro.instrument.stream import iter_any
from repro.instrument.windows import WindowFold, fold_windows
from repro.serve import TraceStore
from repro.shards import shard_accumulate
from tests.test_damage_parity import (VARIANTS, TestCliAgrees,
                                      damaged_traces, run_cli,
                                      write_damaged)


def windows_outcome(read):
    """``(warnings, error or None, layout facts, windows)`` of windowing
    what ``read()`` returns: ``(windows, layout)``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        error, facts, built = None, None, []
        try:
            windows, layout = read()
            facts = (layout.n_events, layout.begin, layout.elapsed,
                     layout.regions(), layout.activities())
            built = [(window.begin, window.end, window.regions,
                      window.activities, window.total_time, window.t_ij,
                      window.rows) for window in windows]
        except ReproError as failure:
            error = (type(failure).__name__, str(failure))
    return ([str(entry.message) for entry in caught
             if issubclass(entry.category, TraceWarning)], error, facts,
            built)


def assert_same_windows(got, expected, name):
    assert got[:3] == expected[:3], name
    assert len(got[3]) == len(expected[3]), name
    for window, reference in zip(got[3], expected[3]):
        assert window[:5] == reference[:5], name
        for array, oracle in zip(window[5:], reference[5:]):
            assert array.dtype == oracle.dtype, name
            assert np.array_equal(array, oracle), name


class TestEveryPlanWindowsAlike:
    @settings(max_examples=150, deadline=None)
    @given(case=damaged_traces(), chunk_size=st.integers(1, 7),
           n_windows=st.integers(1, 6))
    def test_damaged_trace(self, tmp_path_factory, case, chunk_size,
                           n_windows):
        events, fmt, *damage_args = case
        path, _ = write_damaged(tmp_path_factory.mktemp("windows"), events,
                                fmt, *damage_args)
        expected = windows_outcome(lambda: fold_windows(
            iter_any(path, chunk_size=chunk_size), n_windows))
        for n_shards in (1, 2, 7):
            def sharded(n=n_shards):
                fold = shard_accumulate(path, jobs=1, n_shards=n,
                                        chunk_size=chunk_size,
                                        fold=WindowFold)
                return fold.windows(n_windows), fold.layout
            assert_same_windows(windows_outcome(sharded), expected,
                                f"shards-{n_shards}")

    def test_merged_pair_codes_widen(self):
        """A later shard's pair codes are re-coded into the merged
        table, in a type wide enough for every code."""
        first = _fold([f"a{index}" for index in range(256)])
        second = _fold(["b0", "a3"])
        assert second.kept.slabs[-1].code.dtype == np.uint8
        merged = first.merge(second)
        assert len(merged.kept.pairs) == 257
        tail = merged.kept.slabs[-1]
        assert tail.code.dtype == np.uint16
        assert tail.code.tolist() == [256, 3]


def _fold(regions):
    """A window fold of one event per region, one second each."""
    return WindowFold().consume([EventColumns.from_events(
        TraceEvent(0, region, "computation", float(at), at + 1.0)
        for at, region in enumerate(regions))])


def _events():
    """Six events on two ranks and two regions, one second each."""
    return [TraceEvent(at % 2, ("work", "halo")[at // 3], "computation",
                       float(at), at + 1.0) for at in range(6)]


def jsonl_non_finite(value):
    """The six events as JSONL, the fourth ending at ``value``."""
    def make(directory):
        path = directory / f"non-finite-{value}.jsonl"
        write_trace(path, _events())
        lines = path.read_text().split("\n")
        record = json.loads(lines[4])
        record["e"] = float(value)
        lines[4] = json.dumps(record)
        path.write_text("\n".join(lines))
        return path
    return make


def rptb_infinite(directory):
    """The six events as RPTB, the fourth ending at +inf."""
    from repro.instrument.binary import RECORD
    path = directory / "non-finite.rptb"
    write_binary_trace(path, _events())
    data = path.read_bytes()
    at = len(data) - RECORD.itemsize * 6
    records = np.frombuffer(data, dtype=RECORD, offset=at).copy()
    records["end"][3] = np.inf
    path.write_bytes(data[:at] + records.tobytes())
    return path


NON_FINITE = {"jsonl-infinity": jsonl_non_finite("inf"),
              "jsonl-nan": jsonl_non_finite("nan"),
              "rptb-inf": rptb_infinite}


class TestNonFiniteTimesAreRecordDamage:
    @pytest.mark.parametrize("make", NON_FINITE.values(),
                             ids=NON_FINITE.keys())
    def test_every_variant_salvages_the_prefix(self, tmp_path, capsys,
                                               make):
        path = make(tmp_path)
        TestCliAgrees().test_every_variant_gives_one_outcome(
            tmp_path, capsys, lambda directory: path)
        code, _, err = run_cli(["temporal", str(path),
                                *VARIANTS["temporal"][0]], capsys)
        assert code == 0
        assert "event times must be finite" in err
        assert err.endswith("salvaged the first 3 event(s)\n")

    @pytest.mark.parametrize("make", NON_FINITE.values(),
                             ids=NON_FINITE.keys())
    def test_daemon_ingest_salvages_the_prefix(self, tmp_path, make):
        data = make(tmp_path).read_bytes()
        meta, _ = TraceStore(tmp_path / "store").add_bytes(data)
        assert (meta.events, meta.salvaged) == (3, True)

    @pytest.mark.parametrize("end", [float("inf"), float("nan")])
    def test_an_event_refuses_non_finite_times(self, end):
        with pytest.raises(ReproError, match="event times must be finite"):
            TraceEvent(0, "work", "computation", 0.0, end)
