"""Golden-file regression test for the time-resolved report.

`repro temporal` of the trace `repro cfd --trace` writes, with
`--windows 8 --phases --forecast 0.5 --heatmap`, must print the very
bytes of `docs/temporal_report.txt`.  The simulation, the windowing,
the per-window views and the rendering are all deterministic, so any
diff here means a behaviour change in one of them; regenerate the file
with the same two commands if the change is intentional.
"""

from pathlib import Path

from repro.cli import main

GOLDEN = (Path(__file__).resolve().parent.parent / "docs"
          / "temporal_report.txt")


def test_temporal_report_matches_golden_file(tmp_path, capsys):
    trace = str(tmp_path / "cfd.jsonl")
    assert main(["cfd", "--trace", trace]) == 0
    capsys.readouterr()
    assert main(["temporal", trace, "--windows", "8", "--phases",
                 "--forecast", "0.5", "--heatmap"]) == 0
    assert capsys.readouterr().out == GOLDEN.read_text(), (
        "rendered temporal report drifted from docs/temporal_report.txt; "
        "regenerate the golden file if the change is intentional")
