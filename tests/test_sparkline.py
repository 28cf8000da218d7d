"""Sparklines: the vectorized renderer against the per-value loop it
replaced, which is kept here as the reference."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.viz.sparkline import SPARK_GAP, SPARK_LEVELS, render_sparkline


def loop_sparkline(values, lo=None, hi=None):
    """One value at a time: the renderer before it was vectorized."""
    series = np.asarray(list(values), dtype=float)
    finite = series[np.isfinite(series)]
    if finite.size == 0:
        return SPARK_GAP * series.size
    low = float(finite.min()) if lo is None else float(lo)
    high = float(finite.max()) if hi is None else float(hi)
    span = high - low
    characters = []
    for value in series:
        if not np.isfinite(value):
            characters.append(SPARK_GAP)
            continue
        if span <= 0.0:
            characters.append(SPARK_LEVELS[0])
            continue
        level = int((value - low) / span * (len(SPARK_LEVELS) - 1) + 0.5)
        characters.append(SPARK_LEVELS[min(max(level, 0),
                                           len(SPARK_LEVELS) - 1)])
    return "".join(characters)


VALUES = st.one_of(st.floats(min_value=-1e6, max_value=1e6),
                   st.sampled_from([0.0, 0.5, 1.0, float("nan"),
                                    float("inf"), float("-inf")]))
#: Given bounds, some inverted or equal, none so close that the loop's
#: ``int()`` of a scaled value overflows.
BOUNDS = st.one_of(st.none(), st.sampled_from([-1.0, 0.0, 0.25, 1.0, 5.0]))


@settings(max_examples=300, deadline=None)
@given(values=st.lists(VALUES, min_size=1, max_size=40), lo=BOUNDS,
       hi=BOUNDS)
def test_matches_the_per_value_loop(values, lo, hi):
    assert render_sparkline(values, lo, hi) == loop_sparkline(values, lo, hi)


def test_levels_gaps_and_flat_series():
    assert render_sparkline([0.0, 1.0, float("nan"), 0.5]) \
        == SPARK_LEVELS[0] + SPARK_LEVELS[-1] + SPARK_GAP + SPARK_LEVELS[4]
    assert render_sparkline([2.0, 2.0]) == SPARK_LEVELS[0] * 2
    assert render_sparkline([float("nan")] * 3) == SPARK_GAP * 3
