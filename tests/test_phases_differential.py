"""Change-point segmentation against the double-loop oracle.

:func:`repro.core.detect_phases` computes every segment start's cost for
one stop as an array and picks the winner with the sequential rule of
:func:`tests.oracles.loop_detect_phases`: a candidate replaces the
running best only when it is lower by more than 1e-12.  Boundaries and
phase means must be identical, ties and nan windows included.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import detect_phases
from repro.core.temporal import _sequential_winner
from tests.oracles import loop_detect_phases

#: Few distinct levels (ties and constant runs), nan windows, and
#: free floats.
levels = st.one_of(st.sampled_from([0.0, 1.0, 2.5, float("nan")]),
                   st.floats(min_value=-50.0, max_value=50.0))
penalties = st.one_of(st.none(), st.just(0.0),
                      st.floats(min_value=1e-15, max_value=10.0))


def _same(actual, expected):
    assert [(p.begin, p.end) for p in actual] == \
        [(p.begin, p.end) for p in expected]
    for got, want in zip(actual, expected):
        assert got.mean == want.mean or (np.isnan(got.mean)
                                         and np.isnan(want.mean))


@settings(max_examples=400, deadline=None)
@given(st.lists(levels, min_size=1, max_size=40), penalties,
       st.integers(min_value=1, max_value=4))
@example([2.0] * 12, None, 1)
@example([2.0] * 12, None, 3)
@example([float("nan")] * 5, None, 1)
@example([0.0, 0.0, 0.0, 5.0, 5.0, 5.0], None, 2)
@example([1.0, float("nan"), 1.0, 4.0, float("nan"), 4.0], 1e-13, 1)
def test_phases_match_the_double_loop(series, penalty, min_size):
    _same(detect_phases(series, penalty=penalty, min_size=min_size),
          loop_detect_phases(series, penalty=penalty, min_size=min_size))


def _scan(costs):
    """The rule the winner follows, one candidate at a time."""
    running, winner = np.inf, -1
    for start, cost in enumerate(costs):
        if cost < running - 1e-12:
            running, winner = cost, start
    return winner


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(
    st.sampled_from([0.0, 1e-12, 2e-12, 5e-13, 1.0, float("inf"),
                     float("nan")]),
    st.floats(min_value=-1e-11, max_value=1e-11)), min_size=1,
    max_size=30))
@example([1.0, 1.0 - 5e-13, 1.0 - 1.5e-12, 1.0 - 1.7e-12, 0.0])
def test_winner_follows_the_sequential_rule(costs):
    assert _sequential_winner(np.array(costs)) == _scan(costs)


def test_stepped_series_at_many_windows():
    """A long series keeps the oracle's answer (the old loop's cost
    grows with the square of the window count)."""
    rng = np.random.default_rng(3)
    series = rng.normal(0.0, 0.1, 400) + np.repeat([0.0, 3.0, 1.0, 5.0],
                                                    100)
    assert [phase.begin for phase in detect_phases(series)] == \
        [0, 100, 200, 300]
    _same(detect_phases(series), loop_detect_phases(series))
    series[::37] = np.nan
    _same(detect_phases(series), loop_detect_phases(series))


def test_errors_unchanged():
    for call in (lambda f: f([]), lambda f: f([1.0], min_size=0)):
        with pytest.raises(Exception) as fast:
            call(detect_phases)
        with pytest.raises(Exception) as loop:
            call(loop_detect_phases)
        assert type(fast.value) is type(loop.value)
        assert str(fast.value) == str(loop.value)
