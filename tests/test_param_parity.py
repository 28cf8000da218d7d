"""One declaration of the report parameters, one outcome everywhere.

Parameter sets are drawn from :data:`repro.reports.PARAMS`: every report
kind, every registered index of dispersion and names that are not one,
and window counts on both sides of the declared bounds.  For each set,
``repro analyze``/``temporal`` and the daemon's job agree: in range, the
command prints the job's ``text``; out of range, the command exits 2
and ``normalize_params`` raises, with the same message but for how each
spells the parameter (``--windows`` against ``windows``).
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.dispersion import available_indices
from repro.errors import ReproError
from repro.reports import PARAMS, REPORT_KINDS
from repro.serve import jobs

WINDOWS = PARAMS["windows"]

indices = st.sampled_from(available_indices()) | st.text(max_size=6).filter(
    lambda name: name not in available_indices())


@pytest.fixture(scope="module")
def paper_trace(tmp_path_factory):
    from repro.calibrate import synthesize_paper_trace
    path = tmp_path_factory.mktemp("parity") / "paper.jsonl"
    synthesize_paper_trace(path)
    return str(path)


def run_cli(argv):
    """``(exit code, stdout, stderr)`` of one ``main()`` call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(REPORT_KINDS), index=indices,
       windows=st.integers(WINDOWS.low - 3, 48))
@example(kind="temporal", index="euclidean", windows=WINDOWS.served_high)
@example(kind="temporal", index="euclidean",
         windows=WINDOWS.served_high + 1)
@example(kind="temporal", index="nope", windows=WINDOWS.served_high + 1)
def test_cli_and_daemon_take_and_refuse_alike(paper_trace, kind, index,
                                              windows):
    params = {"index": index}
    argv = ["temporal" if kind == "temporal" else "analyze", paper_trace,
            f"--index={index}"]
    if kind == "temporal":
        params["windows"] = windows
        argv.append(f"--windows={windows}")
    elif kind != "analyze":
        argv.append(f"--{kind}")
    code, out, err = run_cli(argv)
    try:
        normalized = jobs.normalize_params(kind, params)
    except ReproError as refusal:
        message = str(refusal)
        if kind == "temporal" and windows > WINDOWS.served_high:
            # The one served-only bound: a local run may ask for more.
            assert message == f"windows must be at most {WINDOWS.served_high}"
            assert code == (0 if index in available_indices() else 2)
            return
        assert (code, out) == (2, "")
        assert err in (f"error: {message}\n", f"error: --{message}\n")
        return
    payload = jobs.build_report(paper_trace, "0" * 64, kind, normalized)
    assert (code, err) == (0, "")
    assert out == payload["text"]
