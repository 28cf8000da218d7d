"""Golden-file regression test: the full report of the reconstructed
paper dataset must stay byte-identical.

The reconstruction, the analysis and the rendering are all
deterministic, so any diff here means a behaviour change in one of
them; update `docs/paper_report.txt` deliberately if the change is
intended (`python -c "..."` recipe in the file's git history).

The batch-engine variants below pin the vectorized rewire: the session
path, the batch-backed views, and the scalar reference loop must all
render the very same bytes — the engine may change *how* Tables 1–4
are computed, never a single published number.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.core import (AnalysisSession, BatchAnalysis, analyze,
                        dispersion_matrix, render_full_report)
from tests.oracles import scalar_dispersion_matrix

GOLDEN = Path(__file__).resolve().parent.parent / "docs" / "paper_report.txt"


def test_paper_report_matches_golden_file(paper_measurements):
    rendered = render_full_report(analyze(paper_measurements)) + "\n"
    assert rendered == GOLDEN.read_text(), (
        "rendered report drifted from docs/paper_report.txt; "
        "regenerate the golden file if the change is intentional")


def test_session_report_matches_golden_file(paper_measurements):
    """The memoized session path renders the same bytes."""
    session = AnalysisSession(paper_measurements)
    assert session.report() + "\n" == GOLDEN.read_text()
    # render_full_report(session) reuses the cached text verbatim.
    assert render_full_report(session) is session.report()


def test_batch_and_scalar_render_identically(paper_measurements):
    """Byte-compare the report built from the batch engine's matrix
    against one built from the scalar reference loop: the vectorized
    rewire changes no published number."""
    from repro.core.views import compute_activity_and_region_views

    def render(matrix):
        from dataclasses import replace

        from repro.core.report import render_dispersion_table, report_to_dict
        activity_view, _ = compute_activity_and_region_views(
            paper_measurements, dispersion=matrix)
        return render_dispersion_table(report_to_dict(replace(
            analyze(paper_measurements), activity_view=activity_view)))

    batch_table = render(dispersion_matrix(paper_measurements))
    scalar_table = render(scalar_dispersion_matrix(paper_measurements))
    assert batch_table == scalar_table
    assert batch_table in GOLDEN.read_text()


def test_batch_matrix_nan_pattern_matches_paper_dashes(paper_measurements):
    """Dash cells in Table 2 are exactly the nan entries of the batch
    matrix."""
    matrix = BatchAnalysis(paper_measurements).matrix("euclidean")
    assert np.array_equal(np.isnan(matrix),
                          ~paper_measurements.performed)


@pytest.fixture(scope="module")
def paper_trace(tmp_path_factory, paper_measurements):
    """A trace whose profile *is* the paper's measurement set.

    Synthesized by :func:`repro.calibrate.synthesize_paper_trace` (one
    event per performed cell, region-major, plus a rank-0
    outside-region span pinning elapsed time to the paper's ``T``) —
    the same trace the service-smoke CI job and the serving benchmarks
    feed the daemon.
    """
    from repro.calibrate import synthesize_paper_trace

    path = tmp_path_factory.mktemp("paper") / "paper.jsonl"
    n_events = synthesize_paper_trace(path, paper_measurements)
    assert n_events == 289
    return str(path)


def test_streamed_analyze_renders_the_golden_bytes(paper_trace, capsys):
    """`repro analyze --stream` on the paper trace must print the very
    bytes of docs/paper_report.txt — the streaming engine changes *how*
    the tables are computed, never a single published number."""
    from repro.cli import main
    assert main(["analyze", paper_trace, "--stream"]) == 0
    assert capsys.readouterr().out == GOLDEN.read_text()


def test_sharded_analyze_renders_the_golden_bytes(paper_trace, capsys):
    """The sharded map-reduce path renders the same bytes: the report
    rounds far above the summation-tree difference of merged shards."""
    from repro.cli import main
    assert main(["analyze", paper_trace, "--stream", "--jobs", "2"]) == 0
    assert capsys.readouterr().out == GOLDEN.read_text()


def test_streamed_and_eager_cli_agree_on_the_paper_trace(paper_trace,
                                                         capsys):
    from repro.cli import main
    assert main(["analyze", paper_trace]) == 0
    eager = capsys.readouterr().out
    assert main(["analyze", paper_trace, "--stream",
                 "--chunk-size", "64"]) == 0
    assert capsys.readouterr().out == eager == GOLDEN.read_text()
