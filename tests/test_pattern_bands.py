"""The pattern bands as one int8 array, and their laziness.

:func:`repro.core.patterns.band_codes` classifies every last-axis row of a
tensor at once; the per-value comparison chain it replaced is the
oracle (:func:`tests.oracles.scalar_classify`).  The grids of an
analysis are classified on first access of ``AnalysisResult.patterns``,
so an ``analyze`` without ``--patterns`` builds none.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import (BANDS, Band, MeasurementSet, PatternGrid, analyze,
                        classify, pattern_grid)
from repro.core.patterns import BAND_FRACTION, _pattern_grids, band_codes
from tests.oracles import scalar_classify

#: Few distinct values, so ties at the extremes and on the cuts are
#: common; P = 1 and constant rows come with them.
tensors = st.tuples(
    st.integers(min_value=1, max_value=4),     # regions
    st.integers(min_value=1, max_value=3),     # activities
    st.integers(min_value=1, max_value=9),     # processors
).flatmap(lambda shape: hnp.arrays(
    np.float64, shape,
    elements=st.one_of(
        st.sampled_from([0.0, 1.0, 1.5, 8.5, 10.0]),
        st.floats(min_value=0.0, max_value=100.0))))

fractions = st.one_of(st.just(BAND_FRACTION),
                      st.floats(min_value=0.01, max_value=0.49))


@settings(max_examples=300, deadline=None)
@given(tensors, fractions)
@example(np.array([[[0.0, 8.5, 10.0]]]), BAND_FRACTION)
@example(np.array([[[2.0, 2.0, 2.0]]]), BAND_FRACTION)
@example(np.array([[[3.0]]]), BAND_FRACTION)
@example(np.array([[[1.0, 1.0, 5.0, 5.0]]]), BAND_FRACTION)
def test_band_array_matches_the_scalar_loop(tensor, band_fraction):
    codes = band_codes(tensor, band_fraction)
    assert codes.dtype == np.int8 and codes.shape == tensor.shape
    for i, j in np.ndindex(*tensor.shape[:2]):
        expected = scalar_classify(tensor[i, j], band_fraction)
        assert tuple(BANDS[code] for code in codes[i, j]) == expected
        assert classify(tensor[i, j], band_fraction) == expected


@settings(max_examples=100, deadline=None)
@given(tensors)
def test_grids_equal_the_per_activity_grid(tensor):
    if not tensor.any():
        return
    ms = MeasurementSet(tensor)
    grids = _pattern_grids(ms)
    performed = [activity for j, activity in enumerate(ms.activities)
                 if ms.performed[:, j].any()]
    assert [grid.activity for grid in grids] == performed
    for grid in grids:
        single = pattern_grid(ms, grid.activity)
        assert grid.regions == single.regions
        assert grid.rows == single.rows
        assert grid == single and hash(grid) == hash(single)
        for region in grid.regions:
            i = ms.region_index(region)
            j = ms.activity_index(grid.activity)
            assert grid.row(region) == scalar_classify(ms.times[i, j])


def test_grid_rows_are_views_of_one_array(paper_measurements):
    grids = _pattern_grids(paper_measurements)
    first = grids[0].codes[0]
    assert first.base is not None
    for grid in grids:
        for row in grid.codes:
            assert row.dtype == np.int8
            assert np.shares_memory(row, first.base)


def test_grids_compare_by_value(paper_measurements):
    first = pattern_grid(paper_measurements, "computation")
    again = pattern_grid(paper_measurements, "computation")
    assert first is not again and first == again
    assert hash(first) == hash(again)
    flat = np.full_like(first.codes[-1], BANDS.index(Band.MID))
    assert first != PatternGrid(first.activity, first.regions,
                                first.codes[:-1] + (flat,))
    assert first != pattern_grid(paper_measurements, "collective")
    assert first != first.rows


def test_patterns_are_classified_on_first_access(paper_measurements):
    result = analyze(paper_measurements)
    assert "patterns" not in vars(result)
    grids = result.patterns
    assert result.patterns is grids
    assert [grid.activity for grid in grids] == \
        [grid.activity for grid in _pattern_grids(paper_measurements)]


@pytest.fixture()
def built_grids(monkeypatch):
    """Activities of every :class:`PatternGrid` built while it is in use."""
    built = []
    original = PatternGrid.__init__

    def counting(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(self.activity)

    monkeypatch.setattr(PatternGrid, "__init__", counting)
    return built


@pytest.fixture(scope="module")
def paper_trace(tmp_path_factory):
    from repro.calibrate import synthesize_paper_trace
    path = tmp_path_factory.mktemp("bands") / "paper.jsonl"
    synthesize_paper_trace(path)
    return str(path)


def test_default_cli_analyze_builds_no_grid(paper_trace, built_grids,
                                            capsys):
    from repro.cli import main
    assert main(["analyze", paper_trace]) == 0
    assert built_grids == []
    assert main(["analyze", paper_trace, "--patterns"]) == 0
    assert "computation" in built_grids
    assert "legend" in capsys.readouterr().out


def test_daemon_jobs_build_no_grid(paper_trace, built_grids):
    from repro.serve.jobs import JOB_KINDS, build_report, normalize_params
    for kind in JOB_KINDS:
        payload = build_report(paper_trace, "0" * 64, kind,
                               normalize_params(kind, {}))
        assert payload["status"] == "ok", kind
    assert built_grids == []
