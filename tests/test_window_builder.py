"""The one-window-at-a-time builder against the stack oracle.

:func:`repro.instrument.windows.fold_windows` builds each window's
``(N, K, P)`` tensor on demand from the binning columns its one pass
keeps.  It must give, window for window, the very tensors the
``(W, N, K, P)`` stack binner it replaced gives
(``tests.oracles.stack_fold_windows``): ``array_equal`` tensors, equal
``total_time``, the same kept windows and the same error when there is
none.  Inputs cover explicit boundaries inside and beyond the extent,
zero-length events, events outside every region, fixed activities
missing one the trace has (poisoned windows), one window, ranks with
no events, any chunking of the input, and slabs far smaller than the
trace, so one window's events come from several slabs.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.online import OUTSIDE_REGION
from repro.errors import ReproError
from repro.instrument import EventColumns, TraceEvent
from repro.instrument import windows as windowing
from repro.instrument.windows import fold_windows
from tests.oracles import stack_fold_windows

REGIONS = ("alpha", "beta", OUTSIDE_REGION)
ACTIVITIES = ("computation", "point-to-point", "io phase")

#: Times on a coarse grid (they hit window edges and give zero-length
#: events) or anywhere, so sums round and their order matters.
TIMES = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0]),
                  st.floats(min_value=0.0, max_value=4.0,
                            allow_nan=False, allow_infinity=False))


@st.composite
def events(draw):
    """One event: a rank among five (so some have none), a region or
    none, an activity, and an interval that may have no length."""
    begin, end = sorted((draw(TIMES), draw(TIMES)))
    if draw(st.integers(0, 4)) == 0:
        end = begin
    return TraceEvent(draw(st.sampled_from([0, 1, 3, 4])),
                      draw(st.sampled_from(REGIONS)),
                      draw(st.sampled_from(ACTIVITIES)), begin, end)


@st.composite
def windowings(draw):
    """Equal windows (one of them sometimes), or explicit boundaries
    inside and beyond the extent; fixed activities sometimes missing
    one the trace has; fixed regions sometimes, the label of time
    outside every region among them."""
    options = {}
    if draw(st.booleans()):
        options["n_windows"] = draw(st.sampled_from([1, 1, 2, 3, 5, 8]))
    else:
        options["boundaries"] = sorted(draw(st.sets(
            st.one_of(TIMES, st.floats(min_value=-2.0, max_value=7.0)),
            min_size=2, max_size=7)))
    if draw(st.booleans()):
        options["activities"] = draw(st.lists(
            st.sampled_from(ACTIVITIES), min_size=1, max_size=3,
            unique=True))
    if draw(st.integers(0, 3)) == 0:
        options["regions"] = draw(st.lists(
            st.sampled_from(REGIONS), min_size=1, max_size=3,
            unique=True))
    return options


def chunks_of(trace, size):
    """The events cut into chunks of ``size``, each with its own names
    table."""
    return [EventColumns.from_events(trace[start:start + size])
            for start in range(0, len(trace), size)]


def outcome(build):
    """The windows a build gives, or its error's type and message."""
    try:
        return build()
    except ReproError as error:
        return type(error), str(error)


def assert_same_windows(got, expected):
    if isinstance(expected, tuple):
        assert got == expected
        return
    assert not isinstance(got, tuple), got
    assert len(got) == len(expected)
    for mine, theirs in zip(got, expected):
        assert (mine.begin, mine.end) == (theirs.begin, theirs.end)
        ours, reference = mine.measurements, theirs.measurements
        assert ours.regions == reference.regions
        assert ours.activities == reference.activities
        assert np.array_equal(ours.times, reference.times)
        assert ours.total_time == reference.total_time


def built_windows(chunks, options, slab):
    with mock.patch.object(windowing, "SLAB_EVENTS", slab):
        return list(fold_windows(chunks, **options)[0])


@settings(max_examples=300, deadline=None)
@given(trace=st.lists(events(), min_size=1, max_size=40),
       options=windowings(), size=st.integers(1, 41),
       slab=st.sampled_from([1, 2, 3, 7, 1 << 16]))
def test_builder_matches_the_stack_oracle(trace, options, size, slab):
    chunks = chunks_of(trace, size)
    expected = outcome(lambda: stack_fold_windows(chunks, **options))
    got = outcome(lambda: built_windows(chunks, options, slab))
    assert_same_windows(got, expected)


def wide_traces():
    """Pair codes past a byte; ranks past a byte, then past 16 bits
    (with events enough that the processor axis is allowed)."""
    rng = np.random.default_rng(3)

    def event(rank, region, step):
        begin = step + rng.uniform(0.0, 0.5)
        return TraceEvent(rank, region, "computation", begin,
                          begin + rng.uniform(0.1, 0.6))

    codes = [event(rank, f"r{region}", step) for step in range(3)
             for region in range(2 if step == 0 else 300)
             for rank in range(2)]
    ranks = [event(int(rank), "solve", step)
             for step, top in enumerate((5, 300, 70_000))
             for rank in rng.integers(0, top + 1, size=700)]
    return codes, ranks


@pytest.mark.parametrize("trace", wide_traces(), ids=["codes", "ranks"])
def test_wide_codes_and_ranks_open_wider_slabs(trace):
    """Each chunk that needs wider integer types than the slab it would
    go to opens a slab that has them; the windows still match."""
    chunks = chunks_of(trace, 97)
    opened = []
    original = windowing._Slab.__init__

    def spy(slab, types):
        opened.append(tuple(np.dtype(kind).itemsize for kind in types))
        original(slab, types)

    for options in ({"n_windows": 1}, {"n_windows": 7},
                    {"boundaries": [0.5, 1.0, 2.25, 3.0, 9.0]}):
        expected = stack_fold_windows(chunks, **options)
        opened.clear()
        with mock.patch.object(windowing, "SLAB_EVENTS", 64), \
                mock.patch.object(windowing._Slab, "__init__", spy):
            got = list(fold_windows(chunks, **options)[0])
        assert_same_windows(got, expected)
        assert opened[0] == (1, 1)
        assert opened[-1] in {(2, 1), (1, 4)}


def test_windows_are_built_on_demand():
    """Nothing is binned before the windows are iterated, and each one
    comes from its own tensor."""
    trace = [TraceEvent(rank, "alpha", "computation", float(step),
                        step + 0.5 + 0.1 * rank)
             for step in range(4) for rank in range(3)]
    with mock.patch.object(windowing.obspans, "span",
                           wraps=windowing.obspans.span) as spans:
        windows, scout = fold_windows(chunks_of(trace, 5), 4)
        assert scout.n_events == len(trace)
        assert not spans.called
        first = next(windows)
        assert [call.args for call in spans.call_args_list] \
            == [("window_bin",)]
        rest = list(windows)
    assert len(rest) == 3
    assert all(window.measurements.times.base is None
               for window in [first, *rest])


@pytest.mark.parametrize("options,message", [
    ({"boundaries": [0.0]}, "need at least two boundaries"),
    ({"boundaries": [1.0, 1.0]}, "strictly increasing"),
    ({"boundaries": [100.0, 200.0]}, "no window contains annotated"),
    ({"n_windows": 0}, "need at least one window"),
])
def test_errors_match_the_oracle(options, message):
    trace = [TraceEvent(0, "alpha", "computation", 0.0, 1.0)]
    expected = outcome(lambda: stack_fold_windows(chunks_of(trace, 1),
                                                  **options))
    got = outcome(lambda: list(fold_windows(chunks_of(trace, 1),
                                            **options)[0]))
    assert got == expected
    assert message in got[1]
