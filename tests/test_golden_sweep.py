"""Golden-file regression test for the time-resolved sweep table.

`repro temporal --sweep DIR --windows 8 --no-cache` over a fixed fleet
(the synthesized paper trace as JSONL, the binary trace `repro cfd
--trace` writes, and that trace as JSONL cut off mid-line after 30 %
of its bytes), once with the default index and once with `--index cv`,
must print the very bytes of `docs/sweep_report.txt` (the two tables,
one blank line apart).  Every
step is deterministic, so any diff means a behaviour change in the
sweep's analysis or its table; regenerate the file with
:func:`render_fleet` if the change is intentional.
"""

from pathlib import Path

from repro.cli import main

GOLDEN = (Path(__file__).resolve().parent.parent / "docs"
          / "sweep_report.txt")


def write_fleet(directory: Path, capsys) -> Path:
    """The three traces of the golden fleet, in ``directory/fleet``."""
    from repro.calibrate import synthesize_paper_trace
    from repro.instrument import read_any, write_trace
    fleet = directory / "fleet"
    fleet.mkdir()
    synthesize_paper_trace(fleet / "paper.jsonl")
    assert main(["cfd", "--trace", str(fleet / "cfd.rptb")]) == 0
    capsys.readouterr()
    truncated = fleet / "truncated.jsonl"
    write_trace(truncated, read_any(fleet / "cfd.rptb"))
    data = truncated.read_bytes()
    truncated.write_bytes(data[:len(data) * 3 // 10])
    return fleet


def render_fleet(fleet: Path, capsys) -> str:
    """Both sweep tables over ``fleet``, as the golden file holds them."""
    tables = []
    for extra in ([], ["--index", "cv"]):
        assert main(["temporal", "--sweep", str(fleet), "--windows", "8",
                     "--no-cache", *extra]) == 0
        tables.append(capsys.readouterr().out)
    return "\n".join(tables)


def test_sweep_table_matches_golden_file(tmp_path, capsys):
    fleet = write_fleet(tmp_path, capsys)
    assert render_fleet(fleet, capsys) == GOLDEN.read_text(), (
        "rendered sweep table drifted from docs/sweep_report.txt; "
        "regenerate the golden file if the change is intentional")
